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
  for (const ntcp::ControlPointRequest& action : proposal.actions) {
    auto it = models_.find(action.control_point);
    if (it == models_.end()) {
      return util::NotFound("unknown control point: " + action.control_point);
    }
    NEES_ASSIGN_OR_RETURN(structural::Vector force,
                          it->second->Restore(action.target_displacement));
    ntcp::ControlPointResult cp;
    cp.control_point = action.control_point;
    cp.measured_displacement = action.target_displacement;  // ideal tracking
    cp.measured_force = std::move(force);
    result.results.push_back(std::move(cp));
  }
  if (tracer_ != nullptr) {
    tracer_->RecordEvent(kComputeEvent, kSimulationCategory, 0,
                         {{kActions, result.results.size()}});
  }
  return result;
}

}  // namespace nees::plugins
