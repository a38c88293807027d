#include "ntcp/server.h"

#include <algorithm>
#include <functional>

#include "check/invariant.h"
#include "obs/trace.h"
#include "util/frame_pool.h"
#include "util/logging.h"
#include "util/strings.h"

namespace nees::ntcp {
namespace {

// WAL record vocabulary (see docs/RECOVERY.md, "Record grammar").
constexpr std::uint8_t kWalTxnCreate = 1;      // proposal + proposed_at
constexpr std::uint8_t kWalTxnTransition = 2;  // id, to, at, detail[, result]

// Trace vocabulary.
const obs::Atom kDupEvent("ntcp.dup");
const obs::Atom kRecoverEvent("ntcp.recover");
const obs::Atom kTxnCategory("txn");
const obs::Atom kProtocol("protocol");
const obs::Atom kProposeSpan("server.propose");
const obs::Atom kExecuteSpan("server.execute");
const obs::Atom kGetTransactionSpan("server.getTransaction");
const obs::Atom kTxn("txn");
const obs::Atom kEndpoint("endpoint");
const obs::Atom kStep("step");
const obs::Atom kKind("kind");
const obs::Atom kState("state");

bool IsOpen(TransactionState state) {
  return state == TransactionState::kProposed ||
         state == TransactionState::kAccepted;
}

}  // namespace

NtcpServer::NtcpServer(net::Network* network, std::string endpoint,
                       std::unique_ptr<ControlPlugin> plugin,
                       util::Clock* clock)
    : rpc_server_(network, std::move(endpoint)),
      plugin_(std::move(plugin)),
      clock_(clock),
      service_(std::make_shared<grid::GridService>(rpc_server_.endpoint())) {
  // Publish-on-read: OGSI reads flush any transitions that were only
  // marked dirty (the subscriber-free hot path skips eager publication).
  service_->SetRefreshHook([this] { FlushSde(); });
}

NtcpServer::~NtcpServer() {
  // The container may keep the shared GridService alive past this server;
  // detach the hook so a later read cannot call into freed memory.
  service_->SetRefreshHook(nullptr);
  Stop();
}

util::Status NtcpServer::Start() {
  NEES_RETURN_IF_ERROR(rpc_server_.Start());
  BindRpcMethods();
  return util::OkStatus();
}

void NtcpServer::Stop() {
  if (expiry_armed_ != nullptr) *expiry_armed_ = false;
  rpc_server_.Stop();
}

void NtcpServer::ArmExpiryTimer(net::Network* network,
                                std::int64_t period_micros) {
  // A fresh flag per arming: ticks queued by an earlier arming stay dead.
  if (expiry_armed_ != nullptr) *expiry_armed_ = false;
  expiry_armed_ = std::make_shared<bool>(true);
  util::MutexLock lock(mu_);
  expiry_net_ = network;
  expiry_origin_ = network->clock()->NowMicros();
  expiry_period_ = period_micros;
  expiry_tick_queued_ = false;
  QueueExpiryTickLocked();
}

void NtcpServer::QueueExpiryTickLocked() {
  if (expiry_net_ == nullptr || expiry_tick_queued_ || expiry_live_ == 0) {
    return;
  }
  const std::int64_t now = expiry_net_->clock()->NowMicros();
  const std::int64_t due =
      expiry_origin_ +
      ((now - expiry_origin_) / expiry_period_ + 1) * expiry_period_;
  expiry_tick_queued_ = true;
  expiry_net_->ScheduleAt(due, [this, armed = expiry_armed_] {
    if (*armed) OnExpiryTick();
  });
}

void NtcpServer::OnExpiryTick() {
  util::MutexLock lock(mu_);
  ExpireStaleLocked();
  expiry_tick_queued_ = false;
  QueueExpiryTickLocked();
}

void NtcpServer::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  plugin_->set_tracer(tracer);
}

util::Status NtcpServer::PublishTo(grid::ServiceContainer& container) {
  return container.AddService(service_).status();
}

void NtcpServer::PublishTxnSdeLocked(const std::string& id,
                                     const TransactionRecord& record) {
  grid::SdeValue value;
  value.Set("state", std::string(TransactionStateName(record.state)));
  value.Set("step", std::to_string(record.proposal.step_index));
  value.Set("actions", std::to_string(record.proposal.actions.size()));
  value.Set("timeout_micros", std::to_string(record.proposal.timeout_micros));
  if (!record.detail.empty()) value.Set("detail", record.detail);
  for (const auto& [state_name, micros] : record.state_timestamps) {
    value.Set("t_" + state_name, std::to_string(micros));
  }
  if (record.state == TransactionState::kCompleted) {
    value.Set("results", std::to_string(record.result.results.size()));
  }
  service_->SetServiceData("txn." + id, value);
}

void NtcpServer::PublishServerStatsLocked() {
  // Aggregate server statistics, inspectable via OGSI.
  grid::SdeValue stats;
  stats.Set("proposals", std::to_string(stats_.proposals));
  stats.Set("accepted", std::to_string(stats_.accepted));
  stats.Set("rejected", std::to_string(stats_.rejected));
  stats.Set("executions", std::to_string(stats_.executions));
  stats.Set("duplicate_executes", std::to_string(stats_.duplicate_executes));
  stats.Set("failures", std::to_string(stats_.failures));
  stats.Set("open_transactions", std::to_string(transactions_.size()));
  service_->SetServiceData("serverStats", stats);
}

void NtcpServer::PublishSdeLocked(const std::string& id,
                                  const TransactionRecord& record) {
  PublishTxnSdeLocked(id, record);

  // The "most recently changed" SDE monitors the server as a whole (§2.1).
  grid::SdeValue last;
  last.Set("transaction", id);
  last.Set("state", std::string(TransactionStateName(record.state)));
  last.Set("time", std::to_string(clock_->NowMicros()));
  service_->SetServiceData("lastChanged", last);

  PublishServerStatsLocked();
}

void NtcpServer::MarkSdeDirtyLocked(const std::string& id,
                                    TransactionState state,
                                    std::int64_t at_micros) {
  sde_dirty_ = true;
  last_changed_id_.assign(id);  // reuses capacity in steady state
  last_changed_state_ = state;
  last_changed_at_ = at_micros;
}

void NtcpServer::FlushSde() {
  util::MutexLock lock(mu_);
  FlushSdeLocked();
}

void NtcpServer::FlushSdeLocked() {
  if (!sde_dirty_) return;
  sde_dirty_ = false;
  for (const auto& [id, record] : transactions_) {
    PublishTxnSdeLocked(id, record);
  }
  if (!last_changed_id_.empty()) {
    grid::SdeValue last;
    last.Set("transaction", last_changed_id_);
    last.Set("state",
             std::string(TransactionStateName(last_changed_state_)));
    last.Set("time", std::to_string(last_changed_at_));
    service_->SetServiceData("lastChanged", last);
  }
  PublishServerStatsLocked();
}

void NtcpServer::RecordTxnEventLocked(const TransactionRecord& record,
                                      obs::Atom from, obs::Atom to,
                                      std::int64_t at_micros,
                                      std::string_view cause) {
  if (tracer_ == nullptr) return;
  obs::TxnTransition transition;
  transition.txn = record.proposal.transaction_id;
  transition.endpoint = endpoint_atom();
  transition.from = from;
  transition.to = to;
  transition.step = record.proposal.step_index;
  transition.at = at_micros;
  transition.timeout = record.proposal.timeout_micros;
  if (!cause.empty()) transition.cause = obs::Atom(cause);
  tracer_->RecordTxnTransition(transition);
}

void NtcpServer::WalLogCreateLocked(const TransactionRecord& record) {
  if (wal_ == nullptr) return;
  util::ByteWriter writer(std::move(wal_buffer_));
  EncodeProposal(record.proposal, writer);
  const auto it = record.state_timestamps.find(
      TransactionStateName(TransactionState::kProposed));
  writer.WriteI64(it == record.state_timestamps.end() ? -1 : it->second);
  if (wal_->Append(kWalTxnCreate, writer.data()).ok()) ++stats_.wal_records;
  wal_buffer_ = writer.Take();
}

void NtcpServer::WalLogTransitionLocked(const std::string& id,
                                        const TransactionRecord& record,
                                        std::int64_t at_micros) {
  if (wal_ == nullptr) return;
  util::ByteWriter writer(std::move(wal_buffer_));
  writer.WriteString(id);
  writer.WriteU8(static_cast<std::uint8_t>(record.state));
  writer.WriteI64(at_micros);
  writer.WriteString(record.detail);
  const bool has_result = record.state == TransactionState::kCompleted;
  writer.WriteBool(has_result);
  if (has_result) EncodeTransactionResult(record.result, writer);
  if (wal_->Append(kWalTxnTransition, writer.data()).ok()) {
    ++stats_.wal_records;
  }
  wal_buffer_ = writer.Take();
}

void NtcpServer::WalSyncLocked() {
  if (wal_ == nullptr) return;
  const util::Status status = wal_->Sync();
  if (!status.ok()) {
    ++stats_.wal_sync_failures;
    NEES_LOG_ERROR("ntcp.server." + endpoint())
        << "WAL sync failed: " << status.ToString();
  }
}

void NtcpServer::RecordDupEventLocked(const TransactionRecord& record,
                                      obs::Atom kind) {
  if (tracer_ == nullptr) return;
  tracer_->RecordEvent(kDupEvent, kTxnCategory, 0,
                       {{kTxn, record.proposal.transaction_id},
                        {kEndpoint, endpoint_atom()},
                        {kKind, kind},
                        {kState, TransactionStateAtom(record.state)}});
}

void NtcpServer::TransitionLocked(const std::string& id,
                                  TransactionRecord& record,
                                  TransactionState to,
                                  const std::string& detail,
                                  const std::string& cause) {
  if (!IsLegalTransition(record.state, to)) {
    NEES_LOG_ERROR("ntcp.server." + endpoint())
        << "illegal transition " << TransactionStateName(record.state)
        << " -> " << TransactionStateName(to) << " for " << id;
    return;
  }
  NEES_CHECK_INVARIANT(!IsTerminal(record.state),
                       "no transition may leave a terminal state");
  const obs::Atom from = TransactionStateAtom(record.state);
  const bool leaves_index =
      IsOpen(record.state) && !IsOpen(to) && ProposalDeadlineMicros(record) >= 0;
  record.state = to;
  if (leaves_index) {
    NEES_CHECK_INVARIANT(expiry_live_ > 0,
                         "an indexed transaction must have been counted live");
    --expiry_live_;
    BoundExpiryIndexLocked();
  }
  if (!detail.empty()) record.detail = detail;
  const std::int64_t at = clock_->NowMicros();
  record.state_timestamps[TransactionStateName(to)] = at;
  WalLogTransitionLocked(id, record, at);
  RecordTxnEventLocked(record, from, TransactionStateAtom(to), at, cause);
  if (service_->HasSdeSubscribers()) {
    // A subscriber needs the change callback now; publish eagerly.
    PublishSdeLocked(id, record);
  } else {
    // Nobody is watching: defer the (allocation-heavy) SDE rebuild to the
    // next OGSI read. This is the dominant saving on the step hot path.
    MarkSdeDirtyLocked(id, to, at);
  }
}

NtcpServer::ProposeOutcome NtcpServer::Propose(Proposal proposal) {
  // Declared before the lock so the span closes after mu_ is released.
  obs::Span span;
  if (tracer_ != nullptr) {
    span = tracer_->StartSpan(kProposeSpan, kProtocol);
    span.AddTag(kEndpoint, endpoint_atom());
    span.AddTag(kTxn, proposal.transaction_id);
    span.AddTag(kStep, proposal.step_index);
    tracer_->metrics().Increment("ntcp.server.proposals");
  }
  util::MutexLock lock(mu_);
  ++stats_.proposals;

  if (proposal.transaction_id.empty()) {
    ++stats_.rejected;
    return {false, "transaction id must not be empty"};
  }

  auto it = transactions_.find(proposal.transaction_id);
  if (it != transactions_.end()) {
    // At-most-once: an identical re-sent proposal gets the original answer;
    // a *different* proposal under the same name is a protocol violation.
    if (it->second.proposal == proposal) {
      ++stats_.duplicate_proposals;
      RecordDupEventLocked(it->second, "propose");
      const bool was_accepted =
          it->second.state != TransactionState::kRejected;
      return {was_accepted, it->second.detail};
    }
    ++stats_.rejected;
    RecordDupEventLocked(it->second, "propose-mismatch");
    return {false, "transaction id already in use with a different proposal"};
  }

  const util::Status validation = plugin_->Validate(proposal);
  TransactionRecord record;
  record.proposal = std::move(proposal);
  record.state = TransactionState::kProposed;
  const std::int64_t proposed_at = clock_->NowMicros();
  record.state_timestamps[TransactionStateName(
      TransactionState::kProposed)] = proposed_at;

  // Pair members construct in order, so the key is copied out of
  // record.proposal before the record itself is moved into the node.
  auto [inserted, unused] = transactions_.emplace(
      record.proposal.transaction_id, std::move(record));
  (void)unused;
  const std::string& id = inserted->first;
  NEES_CHECK_INVARIANT(inserted->second.state == TransactionState::kProposed,
                       "a freshly created transaction must be kProposed");
  if (ProposalDeadlineMicros(inserted->second) >= 0) ++expiry_live_;
  WalLogCreateLocked(inserted->second);
  RecordTxnEventLocked(inserted->second, NoTransactionStateAtom(),
                       TransactionStateAtom(TransactionState::kProposed),
                       proposed_at);
  if (validation.ok()) {
    ++stats_.accepted;
    TransitionLocked(id, inserted->second, TransactionState::kAccepted, "");
    IndexForExpiryLocked(*inserted);
    QueueExpiryTickLocked();
    WalSyncLocked();  // durable before the accept is disclosed
    return {true, ""};
  }
  ++stats_.rejected;
  TransitionLocked(id, inserted->second, TransactionState::kRejected,
                   validation.ToString());
  WalSyncLocked();
  return {false, validation.ToString()};
}

util::Result<TransactionResult> NtcpServer::Execute(
    const std::string& transaction_id) {
  TransactionResult result;
  NEES_RETURN_IF_ERROR(ExecuteWith(
      transaction_id,
      [&result](const TransactionResult& cached) { result = cached; }));
  return result;
}

template <typename Consume>
util::Status NtcpServer::ExecuteWith(const std::string& transaction_id,
                                     Consume&& consume) {
  obs::Span span;
  if (tracer_ != nullptr) {
    span = tracer_->StartSpan(kExecuteSpan, kProtocol);
    span.AddTag(kEndpoint, endpoint_atom());
    span.AddTag(kTxn, transaction_id);
    tracer_->metrics().Increment("ntcp.server.executes");
  }
  const Proposal* proposal = nullptr;
  {
    util::MutexLock lock(mu_);
    auto it = transactions_.find(transaction_id);
    if (it == transactions_.end()) {
      return util::NotFound("unknown transaction: " + transaction_id);
    }
    TransactionRecord& record = it->second;

    switch (record.state) {
      case TransactionState::kCompleted:
        // At-most-once: a retried execute returns the cached result.
        ++stats_.duplicate_executes;
        RecordDupEventLocked(record, "execute");
        consume(record.result);
        return util::OkStatus();
      case TransactionState::kFailed:
        ++stats_.duplicate_executes;
        RecordDupEventLocked(record, "execute");
        return util::Status(util::ErrorCode::kAborted,
                            "execution previously failed: " + record.detail);
      case TransactionState::kExecuting:
        return util::Unavailable("execution in progress; retry");
      case TransactionState::kRejected:
        return util::FailedPrecondition("transaction was rejected");
      case TransactionState::kCancelled:
        return util::FailedPrecondition("transaction was cancelled");
      case TransactionState::kExpired:
        return util::FailedPrecondition("transaction expired");
      case TransactionState::kProposed:
        return util::FailedPrecondition("transaction not yet accepted");
      case TransactionState::kAccepted:
        break;
    }

    // Enforce the proposal timeout window.
    if (ProposalWindowLapsed(record, clock_->NowMicros())) {
      ++stats_.expired;
      TransitionLocked(transaction_id, record, TransactionState::kExpired,
                       "proposal timeout lapsed before execute");
      NEES_CHECK_INVARIANT(record.state == TransactionState::kExpired,
                           "lapsed-window transaction must end kExpired");
      WalSyncLocked();
      return util::FailedPrecondition("transaction expired");
    }

    TransitionLocked(transaction_id, record, TransactionState::kExecuting,
                     "");
    // The intent to execute must be durable *before* the plugin can move the
    // specimen: after a crash, recovery sees kExecuting and crash-marks it
    // kFailed instead of silently re-executing (at-most-once).
    WalSyncLocked();
    // Safe to read outside the lock: the proposal is immutable once the
    // record is created, std::map nodes do not move, and the record cannot
    // be erased while kExecuting (GarbageCollect only drops terminal
    // states, and AttachWal runs before the server takes traffic).
    proposal = &record.proposal;
    ++stats_.executions;
  }

  // Run the plugin outside the table lock: executions can take (simulated)
  // seconds and inspection must stay responsive meanwhile.
  util::Result<TransactionResult> outcome = plugin_->Execute(*proposal);

  util::MutexLock lock(mu_);
  auto it = transactions_.find(transaction_id);
  if (it == transactions_.end()) {
    return util::Internal("transaction vanished during execution");
  }
  NEES_CHECK_INVARIANT(it->second.state == TransactionState::kExecuting,
                       "transaction left kExecuting during plugin execution");
  if (outcome.ok()) {
    it->second.result = std::move(*outcome);
    TransitionLocked(transaction_id, it->second, TransactionState::kCompleted,
                     "");
    WalSyncLocked();  // result durable before the reply that caches it
    consume(it->second.result);
    return util::OkStatus();
  }
  ++stats_.failures;
  TransitionLocked(transaction_id, it->second, TransactionState::kFailed,
                   outcome.status().ToString());
  WalSyncLocked();
  return outcome.status();
}

util::Status NtcpServer::Cancel(const std::string& transaction_id) {
  util::MutexLock lock(mu_);
  auto it = transactions_.find(transaction_id);
  if (it == transactions_.end()) {
    return util::NotFound("unknown transaction: " + transaction_id);
  }
  TransactionRecord& record = it->second;
  if (record.state == TransactionState::kCancelled) return util::OkStatus();
  if (!IsOpen(record.state)) {
    return util::FailedPrecondition(
        "cannot cancel a transaction in state " +
        std::string(TransactionStateName(record.state)));
  }
  ++stats_.cancels;
  TransitionLocked(transaction_id, record, TransactionState::kCancelled,
                   "cancelled by client");
  WalSyncLocked();
  plugin_->OnCancel(record.proposal);
  return util::OkStatus();
}

util::Result<TransactionRecord> NtcpServer::GetTransaction(
    const std::string& transaction_id) const {
  obs::Span span;
  if (tracer_ != nullptr) {
    span = tracer_->StartSpan(kGetTransactionSpan, kProtocol);
    span.AddTag(kEndpoint, endpoint_atom());
  }
  util::MutexLock lock(mu_);
  auto it = transactions_.find(transaction_id);
  if (it == transactions_.end()) {
    return util::NotFound("unknown transaction: " + transaction_id);
  }
  return it->second;
}

std::vector<std::string> NtcpServer::ListTransactions() const {
  util::MutexLock lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(transactions_.size());
  for (const auto& [id, record] : transactions_) {
    (void)record;
    ids.push_back(id);
  }
  return ids;
}

void NtcpServer::IndexForExpiryLocked(TransactionTable::value_type& entry) {
  if (!IsOpen(entry.second.state)) return;
  const std::int64_t deadline = ProposalDeadlineMicros(entry.second);
  if (deadline < 0) return;  // no timeout: ProposalWindowLapsed never fires
  expiry_index_.push_back(ExpiryEntry{deadline, &entry});
  std::push_heap(expiry_index_.begin(), expiry_index_.end(),
                 std::greater<>());
  BoundExpiryIndexLocked();
}

void NtcpServer::RebuildExpiryIndexLocked() {
  expiry_index_.clear();
  for (auto& entry : transactions_) {
    if (!IsOpen(entry.second.state)) continue;
    const std::int64_t deadline = ProposalDeadlineMicros(entry.second);
    if (deadline >= 0) expiry_index_.push_back(ExpiryEntry{deadline, &entry});
  }
  std::make_heap(expiry_index_.begin(), expiry_index_.end(),
                 std::greater<>());
  expiry_live_ = expiry_index_.size();
}

void NtcpServer::BoundExpiryIndexLocked() {
  if (expiry_index_.size() <= 2 * expiry_live_ + kExpirySlack) return;
  // A transaction never reopens, so a stale entry would only ever be
  // skipped by a sweep: dropping it keeps the expiry set, and the sweep
  // sorts what lapses into id order whatever the heap's shape.
  std::erase_if(expiry_index_, [](const ExpiryEntry& e) {
    return !IsOpen(e.entry->second.state);
  });
  std::make_heap(expiry_index_.begin(), expiry_index_.end(),
                 std::greater<>());
}

int NtcpServer::ExpireStale() {
  util::MutexLock lock(mu_);
  return ExpireStaleLocked();
}

int NtcpServer::ExpireStaleLocked() {
  const std::int64_t now = clock_->NowMicros();
  // A deadline is fixed at creation (proposed_at + timeout), so the entries
  // strictly past `now` whose transaction is still open are exactly the
  // records ProposalWindowLapsed(record, now) selects in a table walk.
  lapsed_.clear();
  while (!expiry_index_.empty() &&
         expiry_index_.front().deadline_micros < now) {
    std::pop_heap(expiry_index_.begin(), expiry_index_.end(),
                  std::greater<>());
    TransactionTable::value_type* entry = expiry_index_.back().entry;
    expiry_index_.pop_back();
    ++stats_.expiry_visits;
    if (IsOpen(entry->second.state)) lapsed_.push_back(entry);
  }
  // Transition in id order, the table walk's order, so ntcp.txn events,
  // WAL records and schedule ties are unchanged.
  std::sort(lapsed_.begin(), lapsed_.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (TransactionTable::value_type* entry : lapsed_) {
    TransactionRecord& record = entry->second;
    NEES_CHECK_INVARIANT(ProposalWindowLapsed(record, now),
                         "expiry index entry must match the proposal window");
    TransitionLocked(entry->first, record, TransactionState::kExpired,
                     "proposal timeout lapsed");
    NEES_CHECK_INVARIANT(record.state == TransactionState::kExpired,
                         "lapsed-window transaction must end kExpired");
    ++stats_.expired;
  }
  if (!lapsed_.empty()) WalSyncLocked();
  return static_cast<int>(lapsed_.size());
}

int NtcpServer::GarbageCollect(std::int64_t retention_micros) {
  util::MutexLock lock(mu_);
  const std::int64_t cutoff = clock_->NowMicros() - retention_micros;
  int removed = 0;
  for (auto it = transactions_.begin(); it != transactions_.end();) {
    std::int64_t last_change = 0;
    for (const auto& [state, micros] : it->second.state_timestamps) {
      last_change = std::max(last_change, micros);
    }
    if (IsTerminal(it->second.state) && last_change < cutoff) {
      service_->RemoveServiceData("txn." + it->first);
      it = transactions_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  // Erased records may still have index entries (their deadline had not
  // passed yet); rebuild from the survivors so none dangles.
  if (removed > 0) RebuildExpiryIndexLocked();
  return removed;
}

util::Result<WalRecovery> NtcpServer::AttachWal(wal::Log* log) {
  util::MutexLock lock(mu_);
  WalRecovery recovery;
  NEES_ASSIGN_OR_RETURN(std::vector<wal::Record> records, log->Open());
  recovery.records_replayed = records.size();
  recovery.torn_bytes_truncated = log->open_stats().truncated_bytes;

  // Replay is *silent*: re-emitting three-month-old transitions would make
  // nees-lint see every transaction created twice. The table is rebuilt
  // directly; only the summary event and the crash-marks below are traced.
  for (const wal::Record& rec : records) {
    util::ByteReader reader(rec.payload);
    if (rec.type == kWalTxnCreate) {
      NEES_ASSIGN_OR_RETURN(Proposal proposal, DecodeProposal(reader));
      NEES_ASSIGN_OR_RETURN(std::int64_t at, reader.ReadI64());
      auto [it, inserted] =
          transactions_.try_emplace(proposal.transaction_id);
      if (!inserted) continue;  // double recovery: upsert, don't clobber
      it->second.proposal = std::move(proposal);
      it->second.state = TransactionState::kProposed;
      if (at >= 0) {
        it->second.state_timestamps[TransactionStateName(
            TransactionState::kProposed)] = at;
      }
      ++recovery.transactions_recovered;
    } else if (rec.type == kWalTxnTransition) {
      NEES_ASSIGN_OR_RETURN(std::string id, reader.ReadString());
      NEES_ASSIGN_OR_RETURN(std::uint8_t state_raw, reader.ReadU8());
      NEES_ASSIGN_OR_RETURN(std::int64_t at, reader.ReadI64());
      NEES_ASSIGN_OR_RETURN(std::string detail, reader.ReadString());
      NEES_ASSIGN_OR_RETURN(bool has_result, reader.ReadBool());
      if (state_raw > static_cast<std::uint8_t>(TransactionState::kExpired)) {
        return util::DataLoss(util::Format(
            "WAL transition for %s names unknown state %u", id.c_str(),
            static_cast<unsigned>(state_raw)));
      }
      auto it = transactions_.find(id);
      if (it == transactions_.end()) {
        // Creates are synced before any transition is appended, so a
        // transition without its create means the log is not ours.
        return util::DataLoss("WAL transition for unknown transaction: " + id);
      }
      it->second.state = static_cast<TransactionState>(state_raw);
      if (!detail.empty()) it->second.detail = detail;
      it->second.state_timestamps[TransactionStateName(
          it->second.state)] = at;
      if (has_result) {
        NEES_ASSIGN_OR_RETURN(it->second.result,
                              DecodeTransactionResult(reader));
      }
    } else {
      return util::DataLoss(util::Format(
          "WAL record has unknown type %u", static_cast<unsigned>(rec.type)));
    }
  }

  // Only attach once replay succeeded: a corrupt log must not be appended to.
  wal_ = log;

  std::vector<std::string> inflight;
  for (const auto& [id, record] : transactions_) {
    if (record.state == TransactionState::kExecuting) inflight.push_back(id);
  }

  if (!records.empty() && tracer_ != nullptr) {
    tracer_->RecordEvent(
        kRecoverEvent, kTxnCategory, 0,
        {{kEndpoint, endpoint_atom()},
         {"records", recovery.records_replayed},
         {"transactions", recovery.transactions_recovered},
         {"inflight", inflight.size()},
         {"truncated_bytes", recovery.torn_bytes_truncated}});
  }

  // Crash-mark: a transaction caught mid-execute left the specimen in an
  // unknown state. Never silently re-execute it — fail it (a legal
  // executing -> failed edge) and let the coordinator re-propose under a
  // fresh attempt id. These transitions ARE traced (cause=crash-recovery)
  // and logged, so a second crash replays them instead of re-deciding.
  for (const std::string& id : inflight) {
    auto it = transactions_.find(id);
    ++stats_.failures;
    TransitionLocked(id, it->second, TransactionState::kFailed,
                     "site crashed during execution; specimen state unknown",
                     "crash-recovery");
    ++recovery.inflight_failed;
  }
  WalSyncLocked();
  // Recovered proposed/accepted transactions keep their original deadlines.
  RebuildExpiryIndexLocked();
  QueueExpiryTickLocked();

  // Republish every recovered transaction's SDE so OGSI inspection of the
  // new incarnation sees the full table, not just post-restart changes.
  for (const auto& [id, record] : transactions_) {
    PublishSdeLocked(id, record);
  }
  return recovery;
}

NtcpServerStats NtcpServer::stats() const {
  util::MutexLock lock(mu_);
  NtcpServerStats stats = stats_;
  stats.expiry_index_entries = expiry_index_.size();
  return stats;
}

void NtcpServer::BindRpcMethods() {
  rpc_server_.RegisterMethod(
      "ntcp.propose",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(Proposal proposal, DecodeProposal(reader));
        const ProposeOutcome outcome = Propose(std::move(proposal));
        util::ByteWriter writer(util::AcquireFrame());
        writer.WriteBool(outcome.accepted);
        writer.WriteString(outcome.reason);
        return writer.Take();
      });
  rpc_server_.RegisterMethod(
      "ntcp.execute",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string id, reader.ReadString());
        util::ByteWriter writer(util::AcquireFrame());
        NEES_RETURN_IF_ERROR(
            ExecuteWith(id, [&writer](const TransactionResult& result) {
              EncodeTransactionResult(result, writer);
            }));
        return writer.Take();
      });
  rpc_server_.RegisterMethod(
      "ntcp.cancel",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string id, reader.ReadString());
        NEES_RETURN_IF_ERROR(Cancel(id));
        return net::Bytes{};
      });
  rpc_server_.RegisterMethod(
      "ntcp.getTransaction",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string id, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(TransactionRecord record, GetTransaction(id));
        util::ByteWriter writer(util::AcquireFrame());
        EncodeTransactionRecord(record, writer);
        return writer.Take();
      });
  rpc_server_.RegisterMethod(
      "ntcp.listTransactions",
      [this](const net::CallContext&,
             const net::Bytes&) -> util::Result<net::Bytes> {
        const auto ids = ListTransactions();
        util::ByteWriter writer(util::AcquireFrame());
        writer.WriteU32(static_cast<std::uint32_t>(ids.size()));
        for (const std::string& id : ids) writer.WriteString(id);
        return writer.Take();
      });
}

}  // namespace nees::ntcp
