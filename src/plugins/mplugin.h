// The "Mplugin" (Fig. 9, §3.1): instead of pushing requests to the backend,
// it buffers them and implements a separate service that the backend —
// originally a Matlab process — polls for work. When the backend finishes a
// computation it notifies the plugin, which completes the pending NTCP
// execution. NCSA ran this against a pure simulation; CU ran the same
// plugin code against Matlab xPC driving real servo-hydraulics.
//
// One payload per transaction (DESIGN.md decision 26): the buffer holds no
// copy of a request. Each Execute takes a reused pending slot that points
// at the proposal the caller passed in (the NTCP server passes the one in
// its transaction record), polls hand out that pointer, and the result is
// written into the slot's storage and moved out by Execute.
//
// Backend-facing surface, both in-process and over RPC:
//   mplugin.poll    {max_wait} -> {has_work, Proposal}
//   mplugin.notify  {txn_id, ok, TransactionResult|error}
//                                -> {has_work, Proposal}
// `max_wait` stays on the wire for compatibility but is ignored: a poll
// never blocks, it answers from the queue as it stands. A notify answers
// like a poll made right after the result was posted, so a backend that
// keeps computing while notifies hand it work never sends an empty poll.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "net/rpc.h"
#include "util/mutex.h"
#include "ntcp/plugin.h"
#include "structural/substructure.h"

namespace nees::plugins {

struct MPluginConfig {
  /// DeliveryMode::kVirtual only: how long (virtual time) Execute() pumps
  /// the event loop for the backend to poll + notify. Elsewhere the inline
  /// PollingBackend has posted the result before the work notifier
  /// returns, so an unserviced request times out at once.
  std::int64_t execute_timeout_micros = 10'000'000;
  /// DeliveryMode::kVirtual only: when Execute's request is still queued
  /// and unpolled this long after the work notification (a lost wake), it
  /// sends the notification again, and again every interval after. 0 never
  /// re-sends.
  std::int64_t rewake_micros = 0;
  double max_abs_displacement_m = 1.0;
};

class MPlugin final : public ntcp::ControlPlugin {
 public:
  using Config = MPluginConfig;

  explicit MPlugin(Config config = Config());
  ~MPlugin() override;

  /// Kills the plugin: an Execute() pumping the kVirtual event loop stops
  /// waiting and unwinds as a timeout. Idempotent; the destructor calls
  /// it. Crash simulation calls it on the dead incarnation so zombie stack
  /// frames (an Execute that was on the stack when the crash fired) fail
  /// out instead of waiting on a backend that will never answer. Outside
  /// kVirtual, Execute() never waits, so there is nothing to unwind.
  void Shutdown();

  // --- ControlPlugin ---------------------------------------------------------
  util::Status Validate(const ntcp::Proposal& proposal) override;
  util::Result<ntcp::TransactionResult> Execute(
      const ntcp::Proposal& proposal) override;
  std::string_view kind() const override { return "mplugin"; }

  // --- backend-facing service -------------------------------------------------
  /// Dequeues the oldest buffered request; null when the queue is empty.
  /// Never blocks: backends poll when the work notifier says work is queued.
  /// The pointer is the proposal its Execute() was called with, not a copy
  /// (under NtcpServer, the transaction record's), valid until that
  /// Execute() returns: once the result is posted, at its timeout, or at
  /// Shutdown(). A backend reads it before posting and never holds it
  /// across a wait: the RPC poll handler encodes it at once, and the inline
  /// PollingBackend computes before its work notifier returns.
  const ntcp::Proposal* PollRequest();
  /// Completes a pending execution with a result or an error. NotFound
  /// when no Execute() is waiting on `transaction_id` (e.g. it timed out).
  util::Status PostResult(std::string_view transaction_id,
                          util::Result<ntcp::TransactionResult> outcome);

  /// Hook invoked (outside the plugin lock, on the enqueuing thread)
  /// whenever work is enqueued. An in-process PollingBackend drains the
  /// queue right here; a remote backend is woken push-style, e.g. by a
  /// one-way "mplugin.wake" RPC. An empty notifier removes the hook.
  void SetWorkNotifier(std::function<void()> notifier);

  /// Binds mplugin.poll / mplugin.notify on an RpcServer for remote backends.
  void BindBackendRpc(net::RpcServer& server);

  /// DeliveryMode::kVirtual: Execute's completion wait pumps `network`'s
  /// event loop, keeping the whole propose/poll/notify exchange
  /// single-threaded and seed-deterministic; it is also where a lost wake
  /// is re-sent (Config::rewake_micros). Attach before the run starts.
  void AttachVirtualNetwork(net::Network* network);

  std::uint64_t polls() const;
  std::size_t buffered() const;
  /// Work notifications Execute() re-sent for a request left unpolled.
  std::uint64_t rewakes() const;

 private:
  /// One Execute() in flight, keyed by its proposal's transaction id. Slots
  /// are reused: Execute frees its slot on return and the next Execute
  /// takes the first free one, so the steady state allocates no slot.
  struct Slot {
    /// The proposal Execute() was called with; null while the slot is free.
    const ntcp::Proposal* proposal = nullptr;
    /// Position in the poll queue (FIFO by this number); 0 once polled or
    /// withdrawn.
    std::uint64_t queued_seq = 0;
    bool done = false;
    util::Status status;
    /// Posted (or decoded off the wire) here; Execute() moves it out.
    ntcp::TransactionResult result;
    // Tracing context carried across the Execute -> poll -> notify hop.
    std::uint64_t parent_span_id = 0;
    std::int64_t enqueued_micros = 0;
    std::uint64_t compute_span_id = 0;
  };

  /// The slot waiting on `transaction_id`, or null.
  Slot* FindSlotLocked(std::string_view transaction_id) NEES_REQUIRES(mu_);
  /// Ends `slot`'s compute span and marks it done with `status`.
  void CompleteLocked(Slot& slot, util::Status status) NEES_REQUIRES(mu_);
  /// mplugin.notify's ok branch: decodes the result off the wire straight
  /// into the waiting slot's storage.
  util::Status PostEncodedResult(std::string_view transaction_id,
                                 util::ByteReader& reader);

  Config config_;
  // Set once via AttachVirtualNetwork before the run starts; the pump loop
  // reads it with mu_ released, so it is deliberately not guarded.
  net::Network* virtual_net_ = nullptr;  // set iff DeliveryMode::kVirtual
  mutable util::Mutex mu_{"plugins.MPlugin"};
  // Boxed so a slot's address survives the vector growing under a nested
  // Execute (a kVirtual pump can deliver another transaction).
  std::vector<std::unique_ptr<Slot>> slots_ NEES_GUARDED_BY(mu_);
  std::uint64_t enqueued_ NEES_GUARDED_BY(mu_) = 0;  // last queued_seq
  // Shared, so Execute() takes it out of the lock without copying the
  // callable (a capturing notifier would allocate on every copy).
  std::shared_ptr<const std::function<void()>> work_notifier_
      NEES_GUARDED_BY(mu_);
  std::uint64_t polls_ NEES_GUARDED_BY(mu_) = 0;
  std::uint64_t rewakes_ NEES_GUARDED_BY(mu_) = 0;
  bool shutting_down_ NEES_GUARDED_BY(mu_) = false;
};

/// In-process "Matlab" backend — the NCSA deployment in miniature. It keeps
/// the Fig. 9 pull role: on each work notification it polls the MPlugin,
/// runs a compute function on the proposal, and posts the result. The cycle
/// runs inline on the thread that enqueued the work, so Execute() finds its
/// result already posted and never parks. The backend owns no thread.
class PollingBackend {
 public:
  /// Computes `proposal` into `out`, a result the backend reuses from call
  /// to call: every entry must be overwritten and the vector resized.
  using Compute = std::function<util::Status(const ntcp::Proposal& proposal,
                                             ntcp::TransactionResult& out)>;

  PollingBackend(MPlugin* plugin, Compute compute);
  ~PollingBackend();

  /// Installs the backend as the plugin's work notifier.
  void Start();
  /// Removes the notifier: later executions go unserviced and time out.
  /// Idempotent. Must not race an Execute() on another thread.
  void Stop();

  std::uint64_t processed() const;

 private:
  void Drain();

  MPlugin* plugin_;
  Compute compute_;
  bool running_ = false;
  // Serializes drains, so computes run one at a time even when several
  // threads execute on the plugin at once.
  mutable util::Mutex mu_{"plugins.PollingBackend"};
  std::uint64_t processed_ NEES_GUARDED_BY(mu_) = 0;
  // Compute target; each result is moved into the plugin's slot.
  ntcp::TransactionResult result_ NEES_GUARDED_BY(mu_);
};

/// Remote backend speaking the RPC surface (Matlab at NCSA, across the
/// simulated network), event-driven for DeliveryMode::kVirtual: no thread
/// and no timer. A one-way "mplugin.wake" delivery drains the plugin's
/// queue inline on the network's event loop: one poll, then compute and
/// notify for as long as each notify hands back the next request. Each RPC
/// pumps the event loop recursively while it waits. A lost wake is the
/// plugin's to repair (MPluginConfig::rewake_micros): the backend runs
/// only when woken.
class VirtualPollingBackend {
 public:
  using Compute = PollingBackend::Compute;

  VirtualPollingBackend(net::RpcClient* rpc, std::string plugin_endpoint,
                        Compute compute);
  ~VirtualPollingBackend();

  /// Registers the one-way "mplugin.wake" method on `server` (the backend's
  /// control endpoint; the plugin's work notifier targets it).
  void BindWakeRpc(net::RpcServer& server);

  /// Starts answering wakes. Call once the endpoints exist.
  void Start();
  /// Stops: wakes delivered from now on are no-ops.
  void Stop();

  std::uint64_t processed() const { return processed_; }
  std::uint64_t wakes() const { return wakes_; }

 private:
  void Drain();
  /// Decodes a poll or notify response into proposal_; returns whether it
  /// carried a request.
  util::Result<bool> TakeWork(util::Result<net::Bytes> response);
  /// Computes proposal_ and notifies the result; returns whether the
  /// notify handed back the next request (decoded into proposal_).
  util::Result<bool> ComputeAndNotify();

  net::RpcClient* rpc_;
  net::EndpointId plugin_id_;  // resolved once, not per poll
  Compute compute_;
  std::vector<std::uint8_t> body_;  // reused poll/notify request body
  ntcp::Proposal proposal_;         // reused decode target of each response
  ntcp::TransactionResult result_;  // reused compute target, encoded out
  // Captured by the wake binding; cleared on Stop() so a late wake is a
  // safe no-op even after this object is torn down.
  std::shared_ptr<bool> running_ = std::make_shared<bool>(false);
  bool draining_ = false;  // re-entrancy guard; nested wakes set rewake_
  bool rewake_ = false;
  std::uint64_t processed_ = 0;
  std::uint64_t wakes_ = 0;
};

/// Builds the standard "Matlab simulation" compute function from a set of
/// control-point substructure models.
PollingBackend::Compute MakeSimulationCompute(
    std::shared_ptr<std::map<
        std::string, std::unique_ptr<structural::SubstructureModel>>>
        models);

}  // namespace nees::plugins
