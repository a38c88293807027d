#include "plugins/shorewestern_plugin.h"

#include "obs/trace.h"
#include "util/limit.h"
#include "util/strings.h"

namespace nees::plugins {

ShoreWesternPlugin::ShoreWesternPlugin(Config config, net::RpcClient* rpc,
                                       std::string controller_endpoint)
    : config_(config), controller_(rpc, std::move(controller_endpoint)) {}

util::Status ShoreWesternPlugin::Validate(const ntcp::Proposal& proposal) {
  if (proposal.actions.size() != 1 ||
      proposal.actions[0].control_point != config_.control_point) {
    return util::InvalidArgument("this site controls only '" +
                                 config_.control_point + "'");
  }
  const auto& action = proposal.actions[0];
  if (action.target_displacement.size() != 1) {
    return util::InvalidArgument("control point has exactly one DOF");
  }
  if (!util::WithinLimit(action.target_displacement[0],
                         config_.max_abs_displacement_m)) {
    return util::PolicyViolation("target exceeds site displacement limit");
  }
  if (!action.target_force.empty()) {
    return util::PolicyViolation("site is displacement-controlled");
  }
  return util::OkStatus();
}

util::Result<ntcp::TransactionResult> ShoreWesternPlugin::Execute(
    const ntcp::Proposal& proposal) {
  const double target = proposal.actions[0].target_displacement[0];
  obs::Span span;
  if (tracer_ != nullptr) {
    span = tracer_->StartSpan("actuator.move", "settle");
    span.AddTag("target", util::Format("%.6g", target));
  }
  NEES_ASSIGN_OR_RETURN(auto move, controller_.Move(target));
  if (tracer_ != nullptr) {
    // The settle time is modeled by the rig, not slept; charge it to the
    // span so the trace shows where a real hybrid step's seconds go.
    span.AddModeledMicros(
        static_cast<std::int64_t>(move.motion_seconds * 1e6));
    tracer_->metrics().Observe("actuator.settle_micros",
                               move.motion_seconds * 1e6);
  }
  ntcp::TransactionResult result;
  ntcp::ControlPointResult cp;
  cp.control_point = config_.control_point;
  cp.measured_displacement = {move.position_m};
  cp.measured_force = {move.force_n};
  result.results.push_back(std::move(cp));
  return result;
}

}  // namespace nees::plugins
