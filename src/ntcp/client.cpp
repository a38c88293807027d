#include "ntcp/client.h"

#include <algorithm>
#include <array>
#include <limits>

#include "obs/trace.h"
#include "util/frame_pool.h"
#include "util/logging.h"

namespace nees::ntcp {
namespace {

// Method names interned once per process; the per-call hot path carries
// only the 4-byte ids.
net::MethodId ProposeMethod() {
  static const net::MethodId id("ntcp.propose");
  return id;
}
net::MethodId ExecuteMethod() {
  static const net::MethodId id("ntcp.execute");
  return id;
}
net::MethodId CancelMethod() {
  static const net::MethodId id("ntcp.cancel");
  return id;
}
net::MethodId GetTransactionMethod() {
  static const net::MethodId id("ntcp.getTransaction");
  return id;
}
net::MethodId ListTransactionsMethod() {
  static const net::MethodId id("ntcp.listTransactions");
  return id;
}

// Trace vocabulary.
const obs::Atom kProtocol("protocol");
const obs::Atom kServer("server");
const obs::Atom kTxn("txn");
const obs::Atom kStep("step");
const obs::Atom kError("error");
const obs::Atom kAttempts("attempts");
const obs::Atom kExhausted("exhausted");

}  // namespace

NtcpClient::NtcpClient(net::RpcClient* rpc, std::string server_endpoint,
                       RetryPolicy policy, util::Clock* clock)
    : rpc_(rpc),
      server_(std::move(server_endpoint)),
      server_id_(server_),
      policy_(policy),
      clock_(clock) {}

// One in-flight NTCP operation. The retry loop lives here as an explicit
// state machine so that many operations (one per site) can be interleaved
// on a single thread; a synchronous call is an AwaitAll over one op.
struct NtcpClient::AsyncOp::State {
  enum class Phase { kInFlight, kBackoff, kDone };

  NtcpClient* client = nullptr;
  net::MethodId method;
  net::Bytes body;  // kept for reissue on retry; pooled, released on finish
  int attempt = 1;
  std::int64_t backoff_micros = 0;
  bool auth_refreshed = false;  // the last attempt followed a refresh
  Phase phase = Phase::kInFlight;
  net::RpcClient::AsyncCall call;
  std::int64_t resume_at_micros = 0;  // backoff expiry (client clock)
  util::Result<net::Bytes> outcome = util::Internal("unresolved");
  std::uint64_t span_id = 0;
  std::int64_t trace_t0 = 0;       // tracer clock at issue
  std::int64_t start_micros = 0;   // client clock at issue
  std::int64_t finish_micros = 0;  // client clock at resolution
};

// Defined where AsyncOp::State is complete (op_pool_'s deleter needs it).
NtcpClient::~NtcpClient() = default;

NtcpClient::AsyncOp::AsyncOp() = default;
NtcpClient::AsyncOp::AsyncOp(AsyncOp&&) noexcept = default;
NtcpClient::AsyncOp& NtcpClient::AsyncOp::operator=(AsyncOp&&) noexcept =
    default;
NtcpClient::AsyncOp::~AsyncOp() = default;

bool NtcpClient::AsyncOp::finished() const {
  return state_ == nullptr || state_->phase == State::Phase::kDone;
}

std::int64_t NtcpClient::AsyncOp::NextEventMicros() const {
  if (finished()) return std::numeric_limits<std::int64_t>::max();
  if (state_->phase == State::Phase::kInFlight) {
    return state_->call.deadline_micros();
  }
  return state_->resume_at_micros;
}

std::int64_t NtcpClient::AsyncOp::elapsed_micros() const {
  if (state_ == nullptr || state_->phase != State::Phase::kDone) return 0;
  return state_->finish_micros - state_->start_micros;
}

bool NtcpClient::AsyncOp::Pump() {
  if (state_ == nullptr) return true;
  State& s = *state_;
  if (s.phase == State::Phase::kDone) return true;
  NtcpClient* client = s.client;

  // `error` names the failure; an invalid atom means success.
  auto finish = [&](util::Result<net::Bytes> outcome, obs::Atom error) {
    s.outcome = std::move(outcome);
    s.phase = State::Phase::kDone;
    s.finish_micros = client->clock_->NowMicros();
    util::ReleaseFrame(std::move(s.body));  // no more reissues from here
    if (client->tracer_ != nullptr) {
      if (error.valid()) {
        client->tracer_->AddTagById(s.span_id, kError, error);
      } else {
        client->tracer_->AddTagById(s.span_id, kAttempts, s.attempt);
      }
      client->tracer_->metrics().Observe(
          "ntcp.client.call_micros",
          static_cast<double>(client->tracer_->NowMicros() - s.trace_t0));
      client->tracer_->EndSpanId(s.span_id);
    }
  };

  for (;;) {
    if (s.phase == State::Phase::kInFlight) {
      util::Result<net::Bytes> result = util::Internal("unresolved");
      if (!s.call.TryResolve(&result)) return false;
      if (result.ok()) {
        if (s.attempt > 1) ++client->stats_.recovered;
        finish(std::move(result), obs::Atom());
        return true;
      }
      const util::Status error = result.status();
      const bool auth_error =
          error.code() == util::ErrorCode::kUnauthenticated ||
          error.code() == util::ErrorCode::kPermissionDenied;
      // Only a rejection *immediately* after a refresh is final. A retry
      // that failed some other way (e.g. timed out behind a slow backend)
      // may outlive the refreshed token, so the next rejection earns
      // another refresh.
      if (!auth_error) s.auth_refreshed = false;
      if (auth_error && !s.auth_refreshed &&
          client->auth_refresher_ != nullptr) {
        // An auth rejection is definitive for *this credential*, not for
        // the operation: a proxy certificate that expired mid-run (the
        // fuzzer's kCredentialExpiry fault class) is cured by re-running
        // the GSI handshake, after which the reissue below carries a fresh
        // token. Without this hook the client treated every auth error as
        // final and a routine credential rollover killed the whole run.
        s.auth_refreshed = true;
        util::Status refreshed = client->auth_refresher_();
        if (refreshed.ok()) {
          ++client->stats_.retries;
          ++client->stats_.auth_refreshes;
          NEES_LOG_WARN("ntcp.client")
              << s.method << " to " << client->server_
              << " rejected with stale credentials ("
              << error.ToString() << "); refreshed, retrying";
          s.resume_at_micros =
              client->clock_->NowMicros() + s.backoff_micros;
          s.phase = State::Phase::kBackoff;
          if (client->clock_->NowMicros() < s.resume_at_micros) return false;
          ++s.attempt;
          s.call = client->rpc_->CallAsync(client->server_id_, s.method,
                                           s.body,
                                           client->policy_.rpc_timeout_micros);
          s.phase = State::Phase::kInFlight;
          continue;
        }
        NEES_LOG_WARN("ntcp.client")
            << "credential refresh for " << client->server_
            << " failed: " << refreshed.ToString();
      }
      if (!error.transient()) {  // definitive answer
        finish(error, obs::Atom(util::ErrorCodeName(error.code())));
        return true;
      }
      if (s.attempt >= client->policy_.max_attempts) {
        ++client->stats_.gave_up;
        finish(error, kExhausted);
        return true;
      }
      ++client->stats_.retries;
      NEES_LOG_WARN("ntcp.client")
          << s.method << " to " << client->server_ << " attempt " << s.attempt
          << " failed transiently (" << error.ToString() << "); retrying";
      s.resume_at_micros = client->clock_->NowMicros() + s.backoff_micros;
      s.backoff_micros = std::min<std::int64_t>(
          static_cast<std::int64_t>(s.backoff_micros *
                                    client->policy_.backoff_multiplier),
          client->policy_.max_backoff_micros);
      s.phase = State::Phase::kBackoff;
      // Fall through: with a SimClock the backoff may already have lapsed.
    }
    if (client->clock_->NowMicros() < s.resume_at_micros) return false;
    ++s.attempt;
    s.call = client->rpc_->CallAsync(client->server_id_, s.method, s.body,
                                     client->policy_.rpc_timeout_micros);
    s.phase = State::Phase::kInFlight;
    // Loop: in immediate mode the reissued call already resolved inline.
  }
}

util::Result<net::Bytes> NtcpClient::AsyncOp::Await() {
  if (state_ == nullptr) return util::Internal("Await() on an empty AsyncOp");
  AwaitAll(std::span<AsyncOp>(this, 1));
  util::Result<net::Bytes> outcome = std::move(state_->outcome);
  // Park the spent block for the owning client's next StartOp. Resetting
  // in place is allocation-free: the body frame was already released, the
  // RPC handle was consumed, and the placeholder status fits in-line.
  NtcpClient* client = state_->client;
  constexpr std::size_t kMaxPooledOps = 64;
  if (client->op_pool_.size() < kMaxPooledOps) {
    *state_ = State();
    client->op_pool_.push_back(std::move(state_));
  } else {
    state_.reset();
  }
  return outcome;
}

NtcpClient::AsyncOp NtcpClient::StartOp(net::MethodId method, net::Bytes body,
                                        std::span<obs::Tag> op_tags,
                                        std::uint64_t parent_span_id) {
  ++stats_.calls;
  AsyncOp op;
  if (!op_pool_.empty()) {
    op.state_ = std::move(op_pool_.back());
    op_pool_.pop_back();
  } else {
    op.state_ = std::make_unique<AsyncOp::State>();
  }
  AsyncOp::State& s = *op.state_;
  s.client = this;
  s.method = method;
  s.body = std::move(body);
  s.backoff_micros = policy_.initial_backoff_micros;
  if (tracer_ != nullptr) {
    if (parent_span_id == 0) parent_span_id = tracer_->CurrentSpanId();
    // The server tag leads, then the operation's own tags.
    std::array<obs::Tag, 3> tags;
    tags[0] = obs::Tag(kServer, server_id_.atom());
    const std::size_t count = 1 + std::min(op_tags.size(), tags.size() - 1);
    std::move(op_tags.begin(), op_tags.begin() + (count - 1),
              tags.begin() + 1);
    s.span_id = tracer_->BeginSpanId(method.atom(), kProtocol, parent_span_id,
                                     std::span<obs::Tag>(tags.data(), count));
    s.trace_t0 = tracer_->NowMicros();
  }
  s.start_micros = clock_->NowMicros();
  s.call =
      rpc_->CallAsync(server_id_, method, s.body, policy_.rpc_timeout_micros);
  // Pump once so immediate-mode delivery (response already in the slot)
  // resolves without a wait; under kVirtual this is a cheap no-op (the
  // response is still in flight until a waiter pumps the event loop).
  op.Pump();
  return op;
}

void NtcpClient::AwaitAll(std::span<AsyncOp> ops) {
  // Room for one in-flight attempt per op, refilled on every wake: inline
  // for up to kInlineCalls ops, else one vector allocated on the first wait.
  constexpr std::size_t kInlineCalls = 16;
  std::array<net::RpcClient::AsyncCall*, kInlineCalls> inline_calls;
  std::vector<net::RpcClient::AsyncCall*> spilled;
  for (;;) {
    bool all_done = true;
    for (AsyncOp& op : ops) all_done &= op.Pump();
    if (all_done) return;

    // Collect the in-flight attempts and the earliest self-driven event
    // (attempt deadline or backoff expiry) across unfinished ops.
    if (ops.size() > kInlineCalls && spilled.empty()) {
      spilled.resize(ops.size());
    }
    const std::span<net::RpcClient::AsyncCall*> calls =
        spilled.empty() ? std::span<net::RpcClient::AsyncCall*>(inline_calls)
                        : std::span<net::RpcClient::AsyncCall*>(spilled);
    std::size_t in_flight = 0;
    std::int64_t wake = std::numeric_limits<std::int64_t>::max();
    net::RpcClient* rpc = nullptr;
    util::Clock* clock = nullptr;
    for (AsyncOp& op : ops) {
      if (op.finished()) continue;
      AsyncOp::State& s = *op.state_;
      rpc = s.client->rpc_;
      clock = s.client->clock_;
      wake = std::min(wake, op.NextEventMicros());
      if (s.phase == AsyncOp::State::Phase::kInFlight) {
        calls[in_flight++] = &s.call;
      }
    }
    if (rpc == nullptr) return;  // nothing unfinished after all
    if (in_flight > 0) {
      // Sleep until any in-flight attempt completes, a deadline lapses, or
      // the earliest backoff expires — whichever is first.
      rpc->WaitAnyUntil(calls.first(in_flight), wake);
    } else {
      // Only backoff timers remain; sleeping advances a SimClock instantly.
      const std::int64_t now = clock->NowMicros();
      if (wake > now) clock->SleepMicros(wake - now);
    }
  }
}

NtcpClient::AsyncOp NtcpClient::ProposeAsync(const Proposal& proposal,
                                             std::uint64_t parent_span_id) {
  util::ByteWriter writer(util::AcquireFrame());
  EncodeProposal(proposal, writer);
  // Tags annotate the operation's span; skip building them untraced.
  std::array<obs::Tag, 2> tags;
  if (tracer_ != nullptr) {
    tags = {obs::Tag(kTxn, proposal.transaction_id),
            obs::Tag(kStep, proposal.step_index)};
  }
  return StartOp(ProposeMethod(), writer.Take(), tags, parent_span_id);
}

NtcpClient::AsyncOp NtcpClient::ExecuteAsync(
    const std::string& transaction_id, std::uint64_t parent_span_id) {
  util::ByteWriter writer(util::AcquireFrame(transaction_id.size() + 4));
  writer.WriteString(transaction_id);
  std::array<obs::Tag, 1> tags;
  if (tracer_ != nullptr) tags[0] = obs::Tag(kTxn, transaction_id);
  return StartOp(ExecuteMethod(), writer.Take(), tags, parent_span_id);
}

NtcpClient::AsyncOp NtcpClient::CancelAsync(const std::string& transaction_id,
                                            std::uint64_t parent_span_id) {
  util::ByteWriter writer(util::AcquireFrame(transaction_id.size() + 4));
  writer.WriteString(transaction_id);
  std::array<obs::Tag, 1> tags;
  if (tracer_ != nullptr) tags[0] = obs::Tag(kTxn, transaction_id);
  return StartOp(CancelMethod(), writer.Take(), tags, parent_span_id);
}

util::Status NtcpClient::FinishPropose(AsyncOp& op) {
  const std::string server =
      op.state_ != nullptr ? op.state_->client->server_ : "";
  NEES_ASSIGN_OR_RETURN(net::Bytes response, op.Await());
  util::ByteReader reader(response);
  NEES_ASSIGN_OR_RETURN(bool accepted, reader.ReadBool());
  NEES_ASSIGN_OR_RETURN(std::string reason, reader.ReadString());
  util::ReleaseFrame(std::move(response));
  if (!accepted) {
    return util::PolicyViolation("proposal rejected by " + server + ": " +
                                 reason);
  }
  return util::OkStatus();
}

util::Status NtcpClient::FinishExecute(AsyncOp& op,
                                       TransactionResult& result) {
  NEES_ASSIGN_OR_RETURN(net::Bytes response, op.Await());
  util::ByteReader reader(response);
  const util::Status status = DecodeTransactionResultInto(reader, result);
  util::ReleaseFrame(std::move(response));
  return status;
}

util::Status NtcpClient::FinishCancel(AsyncOp& op) {
  util::Result<net::Bytes> response = op.Await();
  if (response.ok()) util::ReleaseFrame(std::move(response.value()));
  return response.status();
}

util::Status NtcpClient::Propose(const Proposal& proposal) {
  AsyncOp op = ProposeAsync(proposal);
  return FinishPropose(op);
}

util::Result<TransactionResult> NtcpClient::Execute(
    const std::string& transaction_id) {
  AsyncOp op = ExecuteAsync(transaction_id);
  TransactionResult result;
  NEES_RETURN_IF_ERROR(FinishExecute(op, result));
  return result;
}

util::Status NtcpClient::Cancel(const std::string& transaction_id) {
  AsyncOp op = CancelAsync(transaction_id);
  return FinishCancel(op);
}

util::Result<TransactionRecord> NtcpClient::GetTransaction(
    const std::string& transaction_id) {
  util::ByteWriter writer(util::AcquireFrame(transaction_id.size() + 4));
  writer.WriteString(transaction_id);
  AsyncOp op = StartOp(GetTransactionMethod(), writer.Take(), {},
                       /*parent_span_id=*/0);
  NEES_ASSIGN_OR_RETURN(net::Bytes response, op.Await());
  util::ByteReader reader(response);
  return DecodeTransactionRecord(reader);
}

util::Result<std::vector<std::string>> NtcpClient::ListTransactions() {
  AsyncOp op = StartOp(ListTransactionsMethod(), {}, {},
                       /*parent_span_id=*/0);
  NEES_ASSIGN_OR_RETURN(net::Bytes response, op.Await());
  util::ByteReader reader(response);
  NEES_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadU32());
  std::vector<std::string> ids;
  for (std::uint32_t i = 0; i < count; ++i) {
    NEES_ASSIGN_OR_RETURN(std::string id, reader.ReadString());
    ids.push_back(std::move(id));
  }
  return ids;
}

}  // namespace nees::ntcp
