#include "plugins/policy_plugin.h"

#include "util/limit.h"
#include "util/strings.h"

namespace nees::plugins {

LimitPolicyPlugin::LimitPolicyPlugin(SitePolicy policy,
                                     std::unique_ptr<ntcp::ControlPlugin> inner)
    : policy_(policy), inner_(std::move(inner)) {}

util::Status LimitPolicyPlugin::Validate(const ntcp::Proposal& proposal) {
  for (const ntcp::ControlPointRequest& action : proposal.actions) {
    for (double d : action.target_displacement) {
      if (!util::WithinLimit(d, policy_.max_abs_displacement_m)) {
        ++rejections_;
        return util::PolicyViolation(util::Format(
            "site policy: |displacement| %.4g exceeds limit %.4g", d,
            policy_.max_abs_displacement_m));
      }
    }
    if (policy_.reject_force_control && !action.target_force.empty()) {
      ++rejections_;
      return util::PolicyViolation(
          "site policy: force-controlled actions not accepted here");
    }
    for (double f : action.target_force) {
      if (!util::WithinLimit(f, policy_.max_abs_force_n)) {
        ++rejections_;
        return util::PolicyViolation(util::Format(
            "site policy: |force| %.4g exceeds limit %.4g", f,
            policy_.max_abs_force_n));
      }
    }
  }
  return inner_->Validate(proposal);
}

util::Result<ntcp::TransactionResult> LimitPolicyPlugin::Execute(
    const ntcp::Proposal& proposal) {
  return inner_->Execute(proposal);
}

void LimitPolicyPlugin::OnCancel(const ntcp::Proposal& proposal) {
  inner_->OnCancel(proposal);
}

HumanApprovalPlugin::HumanApprovalPlugin(
    Approver approver, std::unique_ptr<ntcp::ControlPlugin> inner)
    : approver_(std::move(approver)), inner_(std::move(inner)) {}

util::Status HumanApprovalPlugin::Validate(const ntcp::Proposal& proposal) {
  return inner_->Validate(proposal);
}

util::Result<ntcp::TransactionResult> HumanApprovalPlugin::Execute(
    const ntcp::Proposal& proposal) {
  if (!approver_(proposal)) {
    ++denials_;
    return util::Aborted("operator denied execution of " +
                         proposal.transaction_id);
  }
  return inner_->Execute(proposal);
}

}  // namespace nees::plugins
