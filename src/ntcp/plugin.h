// The NTCP control plugin interface (Fig. 2, TR-2003-16): the boundary
// between the generic NTCP server (transaction state, at-most-once, SDEs)
// and the site-specific backend (vendor controller, Matlab simulation,
// LabVIEW rig). A site retains control by rejecting proposals in Validate
// — the negotiation step that lets a client learn a step is unacceptable
// *before* any irreversible motion happens anywhere (§2.1).
#pragma once

#include "ntcp/types.h"
#include "util/result.h"

namespace nees::obs {
class Tracer;
}  // namespace nees::obs

namespace nees::ntcp {

class ControlPlugin {
 public:
  virtual ~ControlPlugin() = default;

  /// Attaches a tracer so backends can record compute/settle/queue spans.
  /// Wrapper plugins override this to forward to the wrapped plugin.
  virtual void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Policy/feasibility check at proposal time. Must have NO side effects
  /// on the specimen. Returning non-OK rejects the proposal.
  virtual util::Status Validate(const Proposal& proposal) = 0;

  /// Performs the proposed actions and returns measured results. Called at
  /// most once per transaction (the server guarantees it).
  virtual util::Result<TransactionResult> Execute(const Proposal& proposal) = 0;

  /// Invoked when an accepted (never-executed) transaction is cancelled.
  virtual void OnCancel(const Proposal& proposal) { (void)proposal; }

  /// Short human-readable type tag for SDEs/logs ("simulation", "mplugin"...)
  virtual std::string_view kind() const = 0;

 protected:
  obs::Tracer* tracer_ = nullptr;  // optional; null means no tracing
};

}  // namespace nees::ntcp
