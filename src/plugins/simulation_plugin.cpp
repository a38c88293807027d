#include "plugins/simulation_plugin.h"

#include "obs/trace.h"

namespace nees::plugins {
namespace {

// Trace vocabulary.
const obs::Atom kComputeEvent("sim.compute");
const obs::Atom kSimulationCategory("simulation");
const obs::Atom kActions("actions");

}  // namespace

void SimulationPlugin::AddControlPoint(
    const std::string& name,
    std::unique_ptr<structural::SubstructureModel> model) {
  models_[name] = std::move(model);
}

util::Status SimulationPlugin::Validate(const ntcp::Proposal& proposal) {
  if (proposal.actions.empty()) {
    return util::InvalidArgument("proposal has no actions");
  }
  for (const ntcp::ControlPointRequest& action : proposal.actions) {
    auto it = models_.find(action.control_point);
    if (it == models_.end()) {
      return util::NotFound("unknown control point: " + action.control_point);
    }
    if (action.target_displacement.size() != it->second->dof_count()) {
      return util::InvalidArgument(
          "DOF count mismatch for control point " + action.control_point);
    }
  }
  return util::OkStatus();
}

util::Result<ntcp::TransactionResult> SimulationPlugin::Execute(
    const ntcp::Proposal& proposal) {
  ++executions_;
  ntcp::TransactionResult result;
  result.results.reserve(proposal.actions.size());
  for (const ntcp::ControlPointRequest& action : proposal.actions) {
    auto it = models_.find(action.control_point);
    if (it == models_.end()) {
      return util::NotFound("unknown control point: " + action.control_point);
    }
    ntcp::ControlPointResult& cp = result.results.emplace_back();
    NEES_RETURN_IF_ERROR(
        it->second->Restore(action.target_displacement, cp.measured_force));
    cp.control_point = action.control_point;
    cp.measured_displacement = action.target_displacement;  // ideal tracking
  }
  if (tracer_ != nullptr) {
    tracer_->RecordEvent(kComputeEvent, kSimulationCategory, 0,
                         {{kActions, result.results.size()}});
  }
  return result;
}

}  // namespace nees::plugins
