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
  ExpireStaleLocked(clock_->NowMicros());
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

void NtcpServer::PublishTxnSdeLocked(const TransactionRecord& record) {
  grid::SdeValue value;
  value.Set("state", std::string(TransactionStateName(record.state)));
  value.Set("step", std::to_string(record.proposal.step_index));
  value.Set("actions", std::to_string(record.proposal.actions.size()));
  value.Set("timeout_micros", std::to_string(record.proposal.timeout_micros));
  if (!record.detail.empty()) value.Set("detail", record.detail);
  record.state_timestamps.ForEach(
      [&value](TransactionState state, std::int64_t micros) {
        std::string key = "t_";
        key += TransactionStateName(state);
        value.Set(key, std::to_string(micros));
      });
  if (record.state == TransactionState::kCompleted) {
    value.Set("results", std::to_string(record.result.results.size()));
  }
  service_->SetServiceData("txn." + record.proposal.transaction_id, value);
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

void NtcpServer::PublishSdeLocked(const TransactionRecord& record,
                                  std::int64_t now_micros) {
  PublishTxnSdeLocked(record);

  // The "most recently changed" SDE monitors the server as a whole (§2.1).
  grid::SdeValue last;
  last.Set("transaction", record.proposal.transaction_id);
  last.Set("state", std::string(TransactionStateName(record.state)));
  last.Set("time", std::to_string(now_micros));
  service_->SetServiceData("lastChanged", last);

  PublishServerStatsLocked();
}

void NtcpServer::MarkSdeDirtyLocked(const TransactionRecord& record,
                                    std::int64_t at_micros) {
  sde_dirty_ = true;
  // Reuses capacity in steady state.
  last_changed_id_.assign(record.proposal.transaction_id);
  last_changed_state_ = record.state;
  last_changed_at_ = at_micros;
}

void NtcpServer::FlushSde() {
  util::MutexLock lock(mu_);
  FlushSdeLocked();
}

void NtcpServer::FlushSdeLocked() {
  if (!sde_dirty_) return;
  sde_dirty_ = false;
  // In id order: a subscriber that joined since the change sees one
  // notification per transaction, in the order it always has.
  for (const TransactionRecord* record : transactions_.SortedById()) {
    PublishTxnSdeLocked(*record);
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
  const StateTimestamps& stamps = record.state_timestamps;
  writer.WriteI64(stamps.contains(TransactionState::kProposed)
                      ? stamps.at(TransactionState::kProposed)
                      : -1);
  if (wal_->Append(kWalTxnCreate, writer.data()).ok()) ++stats_.wal_records;
  wal_buffer_ = writer.Take();
}

void NtcpServer::WalLogTransitionLocked(const TransactionRecord& record,
                                        std::int64_t at_micros) {
  if (wal_ == nullptr) return;
  util::ByteWriter writer(std::move(wal_buffer_));
  writer.WriteString(record.proposal.transaction_id);
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

void NtcpServer::TransitionLocked(TransactionRecord& record,
                                  TransactionState to, std::int64_t at,
                                  std::string_view detail,
                                  std::string_view cause) {
  if (!IsLegalTransition(record.state, to)) {
    NEES_LOG_ERROR("ntcp.server." + endpoint())
        << "illegal transition " << TransactionStateName(record.state)
        << " -> " << TransactionStateName(to) << " for "
        << record.proposal.transaction_id;
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
  if (!detail.empty()) record.detail.assign(detail);
  StampState(record, to, at);
  WalLogTransitionLocked(record, at);
  RecordTxnEventLocked(record, from, TransactionStateAtom(to), at, cause);
  if (service_->HasSdeSubscribers()) {
    // A subscriber needs the change callback now; publish eagerly.
    PublishSdeLocked(record, at);
  } else {
    // Nobody is watching: defer the (allocation-heavy) SDE rebuild to the
    // next OGSI read. This is the dominant saving on the step hot path.
    MarkSdeDirtyLocked(record, at);
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

  // The id is hashed once: for the duplicate check and for the insert.
  const std::uint64_t hash = TransactionTable::Hash(proposal.transaction_id);
  if (const TransactionRecord* existing =
          transactions_.Find(proposal.transaction_id, hash)) {
    // At-most-once: an identical re-sent proposal gets the original answer;
    // a *different* proposal under the same name is a protocol violation.
    if (existing->proposal == proposal) {
      ++stats_.duplicate_proposals;
      RecordDupEventLocked(*existing, "propose");
      const bool was_accepted = existing->state != TransactionState::kRejected;
      return {was_accepted, existing->detail};
    }
    ++stats_.rejected;
    RecordDupEventLocked(*existing, "propose-mismatch");
    return {false, "transaction id already in use with a different proposal"};
  }

  const util::Status validation = plugin_->Validate(proposal);
  // One clock read stamps the creation and the accept/reject decision.
  const std::int64_t proposed_at = clock_->NowMicros();
  TransactionRecord& record = transactions_.Insert(hash, std::move(proposal));
  StampState(record, TransactionState::kProposed, proposed_at);
  NEES_CHECK_INVARIANT(record.state == TransactionState::kProposed,
                       "a freshly created transaction must be kProposed");
  if (ProposalDeadlineMicros(record) >= 0) ++expiry_live_;
  WalLogCreateLocked(record);
  RecordTxnEventLocked(record, NoTransactionStateAtom(),
                       TransactionStateAtom(TransactionState::kProposed),
                       proposed_at);
  if (validation.ok()) {
    ++stats_.accepted;
    TransitionLocked(record, TransactionState::kAccepted, proposed_at);
    IndexForExpiryLocked(record);
    QueueExpiryTickLocked();
    WalSyncLocked();  // durable before the accept is disclosed
    return {true, ""};
  }
  ++stats_.rejected;
  std::string reason = validation.ToString();
  TransitionLocked(record, TransactionState::kRejected, proposed_at, reason);
  WalSyncLocked();
  return {false, std::move(reason)};
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
util::Status NtcpServer::ExecuteWith(std::string_view transaction_id,
                                     Consume&& consume) {
  obs::Span span;
  if (tracer_ != nullptr) {
    span = tracer_->StartSpan(kExecuteSpan, kProtocol);
    span.AddTag(kEndpoint, endpoint_atom());
    span.AddTag(kTxn, std::string(transaction_id));
    tracer_->metrics().Increment("ntcp.server.executes");
  }
  TransactionRecord* executing = nullptr;
  {
    util::MutexLock lock(mu_);
    TransactionRecord* found = transactions_.Find(transaction_id);
    if (found == nullptr) {
      return util::NotFound("unknown transaction: " +
                            std::string(transaction_id));
    }
    TransactionRecord& record = *found;

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

    // Enforce the proposal timeout window. The same read stamps whichever
    // transition follows.
    const std::int64_t now = clock_->NowMicros();
    if (ProposalWindowLapsed(record, now)) {
      ++stats_.expired;
      TransitionLocked(record, TransactionState::kExpired, now,
                       "proposal timeout lapsed before execute");
      NEES_CHECK_INVARIANT(record.state == TransactionState::kExpired,
                           "lapsed-window transaction must end kExpired");
      WalSyncLocked();
      return util::FailedPrecondition("transaction expired");
    }

    TransitionLocked(record, TransactionState::kExecuting, now);
    // The intent to execute must be durable *before* the plugin can move the
    // specimen: after a crash, recovery sees kExecuting and crash-marks it
    // kFailed instead of silently re-executing (at-most-once).
    WalSyncLocked();
    // Safe to use outside the lock: the proposal is immutable once the
    // record is created, records never move, and the record cannot be
    // erased while kExecuting (GarbageCollect only drops terminal states,
    // and AttachWal runs before the server takes traffic). The plugin
    // relies on this too: an MPlugin queues this very proposal, not a copy
    // (DESIGN.md decision 26).
    executing = &record;
    ++stats_.executions;
  }

  // Run the plugin outside the table lock: executions can take (simulated)
  // seconds and inspection must stay responsive meanwhile.
  util::Result<TransactionResult> outcome =
      plugin_->Execute(executing->proposal);

  util::MutexLock lock(mu_);
  TransactionRecord& record = *executing;
  NEES_CHECK_INVARIANT(record.state == TransactionState::kExecuting,
                       "transaction left kExecuting during plugin execution");
  const std::int64_t done_at = clock_->NowMicros();
  if (outcome.ok()) {
    record.result = std::move(*outcome);
    TransitionLocked(record, TransactionState::kCompleted, done_at);
    WalSyncLocked();  // result durable before the reply that caches it
    consume(record.result);
    return util::OkStatus();
  }
  ++stats_.failures;
  TransitionLocked(record, TransactionState::kFailed, done_at,
                   outcome.status().ToString());
  WalSyncLocked();
  return outcome.status();
}

util::Status NtcpServer::Cancel(const std::string& transaction_id) {
  util::MutexLock lock(mu_);
  TransactionRecord* record = transactions_.Find(transaction_id);
  if (record == nullptr) {
    return util::NotFound("unknown transaction: " + transaction_id);
  }
  if (record->state == TransactionState::kCancelled) return util::OkStatus();
  if (!IsOpen(record->state)) {
    return util::FailedPrecondition(
        "cannot cancel a transaction in state " +
        std::string(TransactionStateName(record->state)));
  }
  ++stats_.cancels;
  TransitionLocked(*record, TransactionState::kCancelled, clock_->NowMicros(),
                   "cancelled by client");
  WalSyncLocked();
  plugin_->OnCancel(record->proposal);
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
  const TransactionRecord* record = transactions_.Find(transaction_id);
  if (record == nullptr) {
    return util::NotFound("unknown transaction: " + transaction_id);
  }
  return *record;
}

std::vector<std::string> NtcpServer::ListTransactions() const {
  util::MutexLock lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(transactions_.size());
  for (const TransactionRecord* record : transactions_.SortedById()) {
    ids.push_back(record->proposal.transaction_id);
  }
  return ids;
}

void NtcpServer::IndexForExpiryLocked(TransactionRecord& record) {
  if (!IsOpen(record.state)) return;
  const std::int64_t deadline = ProposalDeadlineMicros(record);
  if (deadline < 0) return;  // no timeout: ProposalWindowLapsed never fires
  expiry_index_.push_back(ExpiryEntry{deadline, &record});
  std::push_heap(expiry_index_.begin(), expiry_index_.end(),
                 std::greater<>());
  BoundExpiryIndexLocked();
}

void NtcpServer::RebuildExpiryIndexLocked() {
  expiry_index_.clear();
  transactions_.ForEach([this](TransactionRecord& record) {
    if (!IsOpen(record.state)) return;
    const std::int64_t deadline = ProposalDeadlineMicros(record);
    if (deadline >= 0) expiry_index_.push_back(ExpiryEntry{deadline, &record});
  });
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
    return !IsOpen(e.record->state);
  });
  std::make_heap(expiry_index_.begin(), expiry_index_.end(),
                 std::greater<>());
}

int NtcpServer::ExpireStale() {
  util::MutexLock lock(mu_);
  return ExpireStaleLocked(clock_->NowMicros());
}

int NtcpServer::ExpireStaleLocked(std::int64_t now) {
  // A deadline is fixed at creation (proposed_at + timeout), so the entries
  // strictly past `now` whose transaction is still open are exactly the
  // records ProposalWindowLapsed(record, now) selects in a table walk.
  lapsed_.clear();
  while (!expiry_index_.empty() &&
         expiry_index_.front().deadline_micros < now) {
    std::pop_heap(expiry_index_.begin(), expiry_index_.end(),
                  std::greater<>());
    TransactionRecord* record = expiry_index_.back().record;
    expiry_index_.pop_back();
    ++stats_.expiry_visits;
    if (IsOpen(record->state)) lapsed_.push_back(record);
  }
  // Transition in id order, the order a table walk in id order would take,
  // so ntcp.txn events, WAL records and schedule ties are unchanged.
  TransactionTable::SortById(lapsed_);
  for (TransactionRecord* record : lapsed_) {
    NEES_CHECK_INVARIANT(ProposalWindowLapsed(*record, now),
                         "expiry index entry must match the proposal window");
    TransitionLocked(*record, TransactionState::kExpired, now,
                     "proposal timeout lapsed");
    NEES_CHECK_INVARIANT(record->state == TransactionState::kExpired,
                         "lapsed-window transaction must end kExpired");
    ++stats_.expired;
  }
  if (!lapsed_.empty()) WalSyncLocked();
  return static_cast<int>(lapsed_.size());
}

int NtcpServer::GarbageCollect(std::int64_t retention_micros) {
  util::MutexLock lock(mu_);
  const std::int64_t cutoff = clock_->NowMicros() - retention_micros;
  const std::size_t removed =
      transactions_.EraseIf([&](const TransactionRecord& record) {
        std::int64_t last_change = 0;
        record.state_timestamps.ForEach(
            [&last_change](TransactionState, std::int64_t micros) {
              last_change = std::max(last_change, micros);
            });
        if (!IsTerminal(record.state) || last_change >= cutoff) return false;
        service_->RemoveServiceData("txn." + record.proposal.transaction_id);
        return true;
      });
  // Erased records may still have index entries (their deadline had not
  // passed yet); rebuild from the survivors so none dangles.
  if (removed > 0) RebuildExpiryIndexLocked();
  return static_cast<int>(removed);
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
      const std::uint64_t hash =
          TransactionTable::Hash(proposal.transaction_id);
      if (transactions_.Find(proposal.transaction_id, hash) != nullptr) {
        continue;  // double recovery: upsert, don't clobber
      }
      TransactionRecord& record =
          transactions_.Insert(hash, std::move(proposal));
      if (at >= 0) StampState(record, TransactionState::kProposed, at);
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
      TransactionRecord* record = transactions_.Find(id);
      if (record == nullptr) {
        // Creates are synced before any transition is appended, so a
        // transition without its create means the log is not ours.
        return util::DataLoss("WAL transition for unknown transaction: " + id);
      }
      record->state = static_cast<TransactionState>(state_raw);
      if (!detail.empty()) record->detail = std::move(detail);
      StampState(*record, record->state, at);
      if (has_result) {
        NEES_RETURN_IF_ERROR(DecodeTransactionResultInto(reader, record->result));
      }
    } else {
      return util::DataLoss(util::Format(
          "WAL record has unknown type %u", static_cast<unsigned>(rec.type)));
    }
  }

  // Only attach once replay succeeded: a corrupt log must not be appended to.
  wal_ = log;

  std::vector<TransactionRecord*> inflight;
  transactions_.ForEach([&inflight](TransactionRecord& record) {
    if (record.state == TransactionState::kExecuting) {
      inflight.push_back(&record);
    }
  });
  // In id order, so the crash-marks' ntcp.txn events and WAL records keep
  // their place.
  TransactionTable::SortById(inflight);

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
  const std::int64_t now = clock_->NowMicros();
  for (TransactionRecord* record : inflight) {
    ++stats_.failures;
    TransitionLocked(*record, TransactionState::kFailed, now,
                     "site crashed during execution; specimen state unknown",
                     "crash-recovery");
    ++recovery.inflight_failed;
  }
  WalSyncLocked();
  // Recovered proposed/accepted transactions keep their original deadlines.
  RebuildExpiryIndexLocked();
  QueueExpiryTickLocked();

  // Republish every recovered transaction's SDE so OGSI inspection of the
  // new incarnation sees the full table, not just post-restart changes. In
  // id order, which leaves lastChanged on the greatest id.
  for (const TransactionRecord* record : transactions_.SortedById()) {
    PublishSdeLocked(*record, now);
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
        // A view into the request frame, which outlives the call.
        NEES_ASSIGN_OR_RETURN(std::string_view id, reader.ReadStringView());
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
