#include "plugins/labview_plugin.h"

#include "obs/trace.h"
#include "util/limit.h"

namespace nees::plugins {

LabViewPlugin::LabViewPlugin(
    Config config, std::unique_ptr<testbed::PhysicalSpecimen> specimen)
    : config_(config), specimen_(std::move(specimen)) {}

util::Status LabViewPlugin::Validate(const ntcp::Proposal& proposal) {
  if (proposal.actions.size() != 1 ||
      proposal.actions[0].control_point != config_.control_point) {
    return util::InvalidArgument("this rig controls only '" +
                                 config_.control_point + "'");
  }
  const auto& action = proposal.actions[0];
  if (action.target_displacement.size() != 1) {
    return util::InvalidArgument("control point has exactly one DOF");
  }
  if (!util::WithinLimit(action.target_displacement[0],
                         config_.max_abs_displacement_m)) {
    return util::PolicyViolation("target exceeds Mini-MOST travel limit");
  }
  if (specimen_->interlock_tripped()) {
    return util::SafetyInterlock("rig interlock is tripped");
  }
  return util::OkStatus();
}

util::Result<ntcp::TransactionResult> LabViewPlugin::Execute(
    const ntcp::Proposal& proposal) {
  const double target = proposal.actions[0].target_displacement[0];
  NEES_ASSIGN_OR_RETURN(testbed::Measurement measurement,
                        specimen_->ApplyDisplacement(target));
  if (tracer_ != nullptr) {
    tracer_->RecordEvent(
        "actuator.settle", "settle",
        static_cast<std::int64_t>(measurement.motion_seconds * 1e6),
        {{"rig", std::string(specimen_->name())}});
    tracer_->metrics().Observe("actuator.settle_micros",
                               measurement.motion_seconds * 1e6);
  }
  ntcp::TransactionResult result;
  ntcp::ControlPointResult cp;
  cp.control_point = config_.control_point;
  cp.measured_displacement = {measurement.displacement_m};
  cp.measured_force = {measurement.force_n};
  result.results.push_back(std::move(cp));
  return result;
}

}  // namespace nees::plugins
