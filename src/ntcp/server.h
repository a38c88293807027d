// NTCP server: the generic half of Fig. 2. Owns the transaction table and
// its state machine, guarantees at-most-once execution under client
// retries, enforces proposal timeouts, and publishes every transaction as
// an OGSI service data element (plus the "most recently changed" SDE the
// paper calls out for whole-server monitoring).
//
// RPC surface (on its own network endpoint):
//   ntcp.propose        Proposal -> {accepted, reason}
//   ntcp.execute        txn_id   -> TransactionResult   (idempotent)
//   ntcp.cancel         txn_id   -> {}
//   ntcp.getTransaction txn_id   -> TransactionRecord
//   ntcp.listTransactions {}     -> [txn_id...]
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"

#include "grid/container.h"
#include "grid/service.h"
#include "net/rpc.h"
#include "ntcp/plugin.h"
#include "ntcp/transaction_table.h"
#include "ntcp/types.h"
#include "util/clock.h"
#include "wal/wal.h"

namespace nees::ntcp {

struct NtcpServerStats {
  std::uint64_t proposals = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t executions = 0;        // actual plugin Execute() calls
  std::uint64_t duplicate_executes = 0;  // retries served from cache
  std::uint64_t duplicate_proposals = 0;
  std::uint64_t cancels = 0;
  std::uint64_t expired = 0;
  std::uint64_t failures = 0;
  std::uint64_t wal_records = 0;       // transitions logged this incarnation
  std::uint64_t wal_sync_failures = 0;
  /// Expiry-index entries ExpireStale examined (popped past their
  /// deadline), whether or not the transaction was still open: a sweep
  /// costs O(this), not O(table).
  std::uint64_t expiry_visits = 0;
  /// Entries in the expiry index now: at most 2 x (open transactions with
  /// a deadline) + NtcpServer::kExpirySlack, swept or not (see ExpireStale).
  std::uint64_t expiry_index_entries = 0;
};

/// What AttachWal reconstructed from the log (docs/RECOVERY.md, step R2).
struct WalRecovery {
  std::size_t records_replayed = 0;
  std::size_t transactions_recovered = 0;
  /// Transactions found in kExecuting — the crash interrupted the plugin
  /// and the specimen's state is unknown, so they are crash-marked kFailed
  /// (never silently re-executed; at-most-once survives the restart).
  std::size_t inflight_failed = 0;
  std::size_t torn_bytes_truncated = 0;
};

class NtcpServer {
 public:
  /// `endpoint` is the server's network name (e.g. "ntcp.uiuc").
  NtcpServer(net::Network* network, std::string endpoint,
             std::unique_ptr<ControlPlugin> plugin,
             util::Clock* clock = &util::SystemClock::Instance());
  ~NtcpServer();

  util::Status Start();
  void Stop();

  /// Hosts this server's state as a GridService in `container` so OGSI
  /// inspection (ogsi.findServiceData on "txn." keys) sees transactions.
  util::Status PublishTo(grid::ServiceContainer& container);

  /// Exposes the RPC server (to attach an AuthService, §4).
  net::RpcServer& rpc() { return rpc_server_; }
  const std::string& endpoint() const { return rpc_server_.endpoint(); }
  /// The endpoint name as a trace atom (same id as the wire endpoint).
  obs::Atom endpoint_atom() const { return rpc_server_.endpoint_id().atom(); }

  // Local (in-process) protocol operations; RPC methods call these.
  struct ProposeOutcome {
    bool accepted = false;
    std::string reason;
  };
  /// By value: the RPC handler moves the freshly decoded proposal straight
  /// into the transaction table; in-process callers pass lvalues (copied).
  ProposeOutcome Propose(Proposal proposal);
  util::Result<TransactionResult> Execute(const std::string& transaction_id);
  util::Status Cancel(const std::string& transaction_id);
  util::Result<TransactionRecord> GetTransaction(
      const std::string& transaction_id) const;
  std::vector<std::string> ListTransactions() const;

  /// Moves proposed/accepted transactions past their timeout to kExpired;
  /// returns how many expired. Call periodically (or before reusing ids).
  /// Costs O(lapsed entries): a deadline-ordered index yields exactly the
  /// transactions a full table walk would find, expired in id order. The
  /// index is bounded whether or not anything sweeps: once its stale
  /// entries (transactions no longer proposed or accepted) outnumber the
  /// live ones by more than kExpirySlack, they are dropped in one O(index)
  /// pass.
  int ExpireStale();
  /// Stale expiry-index entries tolerated beyond the live count, so a
  /// small index is never compacted and a compaction's O(index) cost is
  /// amortized over the transitions that staled it.
  static constexpr std::size_t kExpirySlack = 64;

  /// kVirtual only: runs ExpireStale() on `network`'s event loop at the
  /// ticks arm time + k * `period_micros` of virtual time, so proposal
  /// expiry joins the same totally ordered, seed-reproducible schedule as
  /// delivery and retries. A tick is queued only while a transaction can
  /// lapse: a tick that leaves nothing open does not re-arm, and the
  /// Propose that opens one queues the next tick of the grid (as does this
  /// call, for transactions recovered from the WAL). A skipped tick would
  /// have found nothing to expire. Disarmed by Stop() (an already-queued
  /// tick becomes a no-op and does not re-arm).
  void ArmExpiryTimer(net::Network* network, std::int64_t period_micros);

  /// Drops terminal transactions older than `retention_micros`, bounding
  /// the table; returns how many were dropped.
  int GarbageCollect(std::int64_t retention_micros);

  /// Attaches a write-ahead log (docs/RECOVERY.md). Opens `log`, replays
  /// every record into the transaction table (restoring proposals, states,
  /// timestamps, and cached results), crash-marks transactions caught in
  /// kExecuting as kFailed, and from then on logs every transition durably
  /// before the reply that discloses it. Call once, before the server
  /// takes traffic; `log` must outlive the server. Replay is silent (no
  /// re-emitted trace events) except for one "ntcp.recover" summary event
  /// and the crash-mark transitions, which are traced with
  /// cause=crash-recovery so nees-lint can audit the restart.
  util::Result<WalRecovery> AttachWal(wal::Log* log);

  NtcpServerStats stats() const;

  /// Attaches a tracer to the server AND its plugin: protocol-phase spans
  /// here, compute/settle/queue spans in the backend.
  void set_tracer(obs::Tracer* tracer);

  /// The grid service holding the SDEs (for direct inspection in-process).
  grid::GridService& service_data() { return *service_; }

 private:
  /// Execute() with the outcome handed to `consume(const TransactionResult&)`
  /// under the table lock instead of copied out: the RPC handler encodes the
  /// cached result straight into its reply frame.
  template <typename Consume>
  util::Status ExecuteWith(std::string_view transaction_id, Consume&& consume);
  /// Moves `record` to `to`, stamped `at`: the caller's one clock read,
  /// shared by every transition it makes at that instant.
  void TransitionLocked(TransactionRecord& record, TransactionState to,
                        std::int64_t at, std::string_view detail = {},
                        std::string_view cause = {}) NEES_REQUIRES(mu_);
  /// Emits one "ntcp.txn" protocol event per state change (from "none" for
  /// creation) into the trace stream; nees-lint replays these. A non-empty
  /// `cause` is added as a tag (crash-mark transitions carry
  /// cause=crash-recovery).
  void RecordTxnEventLocked(const TransactionRecord& record, obs::Atom from,
                            obs::Atom to, std::int64_t at_micros,
                            std::string_view cause = {}) NEES_REQUIRES(mu_);
  /// WAL append helpers; no-ops when no log is attached. Sync failures are
  /// counted and logged but do not fail the operation for MemoryStorage-
  /// style stores (which cannot fail); FileStorage callers watch stats.
  void WalLogCreateLocked(const TransactionRecord& record)
      NEES_REQUIRES(mu_);
  void WalLogTransitionLocked(const TransactionRecord& record,
                              std::int64_t at_micros) NEES_REQUIRES(mu_);
  void WalSyncLocked() NEES_REQUIRES(mu_);
  /// Emits an "ntcp.dup" event when a retry is served from the
  /// at-most-once cache (kind: propose / propose-mismatch / execute).
  void RecordDupEventLocked(const TransactionRecord& record, obs::Atom kind)
      NEES_REQUIRES(mu_);
  /// Eagerly materialises the three SDE documents (txn.<id>, lastChanged,
  /// serverStats) for one transaction. Only runs on the hot path when the
  /// grid service has subscribers; otherwise transitions just mark the
  /// table dirty and FlushSde() rebuilds the documents on the next OGSI
  /// read (publish-on-read via GridService::SetRefreshHook). `now_micros`
  /// is the lastChanged time.
  void PublishSdeLocked(const TransactionRecord& record,
                        std::int64_t now_micros) NEES_REQUIRES(mu_);
  void PublishTxnSdeLocked(const TransactionRecord& record)
      NEES_REQUIRES(mu_);
  void PublishServerStatsLocked() NEES_REQUIRES(mu_);
  /// Records that SDE documents are stale and captures the most recent
  /// change for the lastChanged SDE without allocating.
  void MarkSdeDirtyLocked(const TransactionRecord& record,
                          std::int64_t at_micros) NEES_REQUIRES(mu_);
  /// Refresh-hook target: republishes every transaction plus lastChanged
  /// and serverStats iff something changed since the last flush.
  void FlushSde();
  void FlushSdeLocked() NEES_REQUIRES(mu_);
  void BindRpcMethods();

  /// Adds `record` to the expiry index if it is open and has a deadline.
  void IndexForExpiryLocked(TransactionRecord& record) NEES_REQUIRES(mu_);
  /// Rebuilds the expiry index from the table (after WAL replay and after
  /// GarbageCollect erased records the old entries pointed at).
  void RebuildExpiryIndexLocked() NEES_REQUIRES(mu_);
  /// Drops the stale index entries once they outnumber the live ones by
  /// more than kExpirySlack.
  void BoundExpiryIndexLocked() NEES_REQUIRES(mu_);
  int ExpireStaleLocked(std::int64_t now) NEES_REQUIRES(mu_);
  /// Queues the first expiry tick of the grid strictly after now, unless
  /// the timer is unarmed, a tick is already queued, or nothing can lapse.
  void QueueExpiryTickLocked() NEES_REQUIRES(mu_);
  void OnExpiryTick();

  net::RpcServer rpc_server_;
  std::unique_ptr<ControlPlugin> plugin_;
  util::Clock* clock_;
  obs::Tracer* tracer_ = nullptr;
  std::shared_ptr<grid::GridService> service_;

  mutable util::Mutex mu_{"ntcp.Server"};
  TransactionTable transactions_ NEES_GUARDED_BY(mu_);
  // Expiry index: a min-heap of (proposal deadline, record), one entry per
  // transaction accepted with a deadline. Records never move, so the
  // pointers stay valid until GarbageCollect erases records, which rebuilds
  // the heap. Entries whose transaction has since left proposed/accepted
  // are dropped when their deadline passes.
  struct ExpiryEntry {
    std::int64_t deadline_micros;
    TransactionRecord* record;
    // With std::greater the std::*_heap max-heap puts the earliest
    // deadline at the front.
    bool operator>(const ExpiryEntry& other) const {
      return deadline_micros > other.deadline_micros;
    }
  };
  std::vector<ExpiryEntry> expiry_index_ NEES_GUARDED_BY(mu_);
  // Open transactions with a deadline: each has one index entry, except
  // while Propose is creating it or ExpireStale has popped it to expire.
  std::size_t expiry_live_ NEES_GUARDED_BY(mu_) = 0;
  // Reused by each sweep for the lapsed entries it sorts into id order.
  std::vector<TransactionRecord*> lapsed_ NEES_GUARDED_BY(mu_);
  NtcpServerStats stats_ NEES_GUARDED_BY(mu_);
  wal::Log* wal_ NEES_GUARDED_BY(mu_) = nullptr;
  // Every WAL record is encoded here, so logging a transition reuses one
  // buffer instead of allocating a payload per record.
  std::vector<std::uint8_t> wal_buffer_ NEES_GUARDED_BY(mu_);

  // Lazy-SDE state: set by MarkSdeDirtyLocked, consumed by FlushSdeLocked.
  // last_changed_id_ reuses its capacity across steps, so marking a
  // transition dirty performs no heap allocation in steady state.
  bool sde_dirty_ NEES_GUARDED_BY(mu_) = false;
  std::string last_changed_id_ NEES_GUARDED_BY(mu_);
  TransactionState last_changed_state_ NEES_GUARDED_BY(mu_) =
      TransactionState::kProposed;
  std::int64_t last_changed_at_ NEES_GUARDED_BY(mu_) = 0;

  // The expiry tick grid (ArmExpiryTimer): ticks fall at expiry_origin_ +
  // k * expiry_period_ on expiry_net_'s clock; null until armed.
  net::Network* expiry_net_ NEES_GUARDED_BY(mu_) = nullptr;
  std::int64_t expiry_origin_ NEES_GUARDED_BY(mu_) = 0;
  std::int64_t expiry_period_ NEES_GUARDED_BY(mu_) = 0;
  bool expiry_tick_queued_ NEES_GUARDED_BY(mu_) = false;
  // Liveness flag captured by queued expiry ticks; cleared on Stop() so a
  // tick that fires after shutdown is a safe no-op.
  std::shared_ptr<bool> expiry_armed_;
};

}  // namespace nees::ntcp
