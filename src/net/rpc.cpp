#include "net/rpc.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/clock.h"
#include "util/frame_pool.h"
#include "util/logging.h"

namespace nees::net {

namespace {

MethodId BatchMethodId() {
  static const MethodId id{kBatchMethodName};
  return id;
}

}  // namespace

Bytes EncodeRequestEnvelope(const std::string& auth_token, const Bytes& body) {
  util::ByteWriter writer(util::AcquireFrame(8 + auth_token.size() +
                                             body.size()));
  writer.WriteString(auth_token);
  writer.WriteBytes(body);
  return writer.Take();
}

util::Status DecodeRequestEnvelope(const Bytes& payload,
                                   std::string* auth_token, Bytes* body) {
  util::ByteReader reader(payload);
  NEES_ASSIGN_OR_RETURN(*auth_token, reader.ReadString());
  NEES_ASSIGN_OR_RETURN(*body, reader.ReadBytes());
  return util::OkStatus();
}

Bytes EncodeResponseEnvelope(const util::Status& status, const Bytes& body) {
  util::ByteWriter writer(util::AcquireFrame(10 + status.message().size() +
                                             body.size()));
  writer.WriteU16(static_cast<std::uint16_t>(status.code()));
  writer.WriteString(status.message());
  writer.WriteBytes(body);
  return writer.Take();
}

util::Status DecodeResponseEnvelope(const Bytes& payload, util::Status* status,
                                    Bytes* body) {
  util::ByteReader reader(payload);
  NEES_ASSIGN_OR_RETURN(std::uint16_t code, reader.ReadU16());
  NEES_ASSIGN_OR_RETURN(std::string message, reader.ReadString());
  NEES_ASSIGN_OR_RETURN(*body, reader.ReadBytes());
  *status = util::Status(static_cast<util::ErrorCode>(code), message);
  return util::OkStatus();
}

namespace {

// Parses the length prefix of the trailing body field and, if it spans the
// exact remainder of the frame, moves the body out of `payload` by erasing
// the already-decoded header prefix. The encoders always place the body
// last, so a mismatched length means a corrupt frame.
util::Status TakeTrailingBody(Bytes* payload, util::ByteReader& reader,
                              Bytes* body) {
  NEES_ASSIGN_OR_RETURN(std::uint32_t length, reader.ReadU32());
  if (length != reader.remaining()) {
    return util::DataLoss("envelope body length mismatch");
  }
  payload->erase(payload->begin(),
                 payload->begin() +
                     static_cast<std::ptrdiff_t>(payload->size() - length));
  *body = std::move(*payload);
  return util::OkStatus();
}

}  // namespace

util::Status ConsumeRequestEnvelope(Bytes* payload, std::string* auth_token,
                                    Bytes* body) {
  util::ByteReader reader(*payload);
  NEES_ASSIGN_OR_RETURN(*auth_token, reader.ReadString());
  return TakeTrailingBody(payload, reader, body);
}

util::Status ConsumeResponseEnvelope(Bytes* payload, util::Status* status,
                                     Bytes* body) {
  util::ByteReader reader(*payload);
  NEES_ASSIGN_OR_RETURN(std::uint16_t code, reader.ReadU16());
  NEES_ASSIGN_OR_RETURN(std::string message, reader.ReadString());
  *status = util::Status(static_cast<util::ErrorCode>(code), message);
  return TakeTrailingBody(payload, reader, body);
}

// ---------------------------------------------------------------------------
// RpcServer

RpcServer::RpcServer(Network* network, std::string endpoint)
    : network_(network),
      endpoint_(std::move(endpoint)),
      endpoint_id_(endpoint_) {}

RpcServer::~RpcServer() { Stop(); }

util::Status RpcServer::Start() {
  NEES_RETURN_IF_ERROR(network_->RegisterEndpoint(
      endpoint_id_,
      [this](Message message) { HandleMessage(std::move(message)); }));
  started_ = true;
  return util::OkStatus();
}

void RpcServer::Stop() {
  if (started_) {
    network_->UnregisterEndpoint(endpoint_id_);
    started_ = false;
  }
}

RpcServer::MethodEntry& RpcServer::EntryLocked(MethodId id) {
  std::uint32_t& index = method_index_[id.raw()];
  if (index == 0) {
    method_entries_.emplace_back();
    index = static_cast<std::uint32_t>(method_entries_.size());
  }
  return method_entries_[index - 1];
}

void RpcServer::RegisterMethod(MethodId name, Method method) {
  util::MutexLock lock(mu_);
  EntryLocked(name).request =
      std::make_shared<const Method>(std::move(method));
}

void RpcServer::RegisterOneWay(MethodId name, OneWayMethod method) {
  util::MutexLock lock(mu_);
  EntryLocked(name).oneway =
      std::make_shared<const OneWayMethod>(std::move(method));
}

void RpcServer::SetAuthenticator(Authenticator authenticator) {
  util::MutexLock lock(mu_);
  authenticator_ = std::move(authenticator);
}

util::Result<Bytes> RpcServer::DispatchCall(CallContext& context,
                                            MethodId method,
                                            const Bytes& body) {
  std::shared_ptr<const Method> handler;
  Authenticator authenticator;
  {
    util::MutexLock lock(mu_);
    if (const std::uint32_t* index = method_index_.Find(method.raw())) {
      handler = method_entries_[*index - 1].request;
    }
    authenticator = authenticator_;
  }
  if (handler == nullptr || !*handler) {
    return util::Unimplemented("no such method: " + method.str());
  }
  if (authenticator) {
    auto subject = authenticator(context.auth_token, method.str());
    if (!subject.ok()) return subject.status();
    context.subject = *std::move(subject);
  }
  return (*handler)(context, body);
}

void RpcServer::HandleMessage(Message message) {
  if (message.kind == MessageKind::kRequest &&
      message.method == BatchMethodId()) {
    HandleBatch(std::move(message));
    return;
  }

  std::string auth_token;
  Bytes body;
  const util::Status decode_status =
      ConsumeRequestEnvelope(&message.payload, &auth_token, &body);

  CallContext context;
  context.caller_endpoint = message.from.name();
  context.auth_token = std::move(auth_token);
  context.method = message.method.name();

  if (message.kind == MessageKind::kOneWay) {
    if (!decode_status.ok()) return;  // corrupt one-way frame: drop
    std::shared_ptr<const OneWayMethod> handler;
    {
      util::MutexLock lock(mu_);
      const std::uint32_t* index = method_index_.Find(message.method.raw());
      if (index == nullptr) return;
      handler = method_entries_[*index - 1].oneway;
      if (handler == nullptr || !*handler) return;
      if (authenticator_) {
        auto subject = authenticator_(context.auth_token, message.method.str());
        if (!subject.ok()) return;  // silently discard unauthenticated stream
        context.subject = *std::move(subject);
      }
    }
    (*handler)(context, body);
    util::ReleaseFrame(std::move(body));
    return;
  }

  if (message.kind != MessageKind::kRequest) return;

  util::Status status = decode_status;
  Bytes response_body;
  if (status.ok()) {
    auto result = DispatchCall(context, message.method, body);
    if (result.ok()) {
      response_body = *std::move(result);
    } else {
      status = result.status();
    }
  }
  util::ReleaseFrame(std::move(body));

  Message response;
  response.from = endpoint_id_;
  response.to = message.from;
  response.kind = MessageKind::kResponse;
  response.correlation_id = message.correlation_id;
  response.method = message.method;
  util::ByteWriter writer(util::AcquireFrame(
      10 + status.message().size() + response_body.size()));
  writer.WriteU16(static_cast<std::uint16_t>(status.code()));
  writer.WriteString(status.message());
  writer.WriteBytes(response_body);
  response.payload = writer.Take();
  util::ReleaseFrame(std::move(response_body));
  // Best effort: if the reply is lost the caller times out and may retry.
  (void)network_->Send(std::move(response));
}

void RpcServer::HandleBatch(Message message) {
  std::string auth_token;
  Bytes body;
  if (!ConsumeRequestEnvelope(&message.payload, &auth_token, &body).ok()) {
    return;  // corrupt batch frame: lost, callers time out (like loss)
  }

  CallContext context;
  context.caller_endpoint = message.from.name();
  context.auth_token = std::move(auth_token);

  // Sub-frames: u64 correlation | u32 method | bytes body, `count` times.
  // Each sub-call runs the normal dispatch path (method table, auth hook,
  // handler) so server-side semantics — at-most-once state machines, trace
  // events per transaction — are identical to unbatched delivery.
  util::ByteReader reader(body);
  auto count = reader.ReadU32();
  if (!count.ok()) {
    util::ReleaseFrame(std::move(body));
    return;
  }
  util::ByteWriter response_writer(util::AcquireFrame(body.size()));
  response_writer.WriteU32(*count);
  Bytes sub_body = util::AcquireFrame();
  bool corrupt = false;
  for (std::uint32_t i = 0; i < *count && !corrupt; ++i) {
    auto correlation = reader.ReadU64();
    auto method_raw = reader.ReadU32();
    auto view = reader.ReadBytesView();
    if (!correlation.ok() || !method_raw.ok() || !view.ok()) {
      corrupt = true;  // truncated mid-batch: drop the whole frame
      break;
    }
    const MethodId method = MethodId::FromRaw(*method_raw);
    sub_body.assign(view->begin(), view->end());
    context.method = method.name();
    context.subject.clear();
    util::Status status;
    Bytes result_body;
    if (!EndpointTable::Instance().Known(*method_raw)) {
      status = util::DataLoss("batch sub-call: unknown method id " +
                              std::to_string(*method_raw));
    } else {
      auto result = DispatchCall(context, method, sub_body);
      if (result.ok()) {
        result_body = *std::move(result);
      } else {
        status = result.status();
      }
    }
    response_writer.WriteU64(*correlation);
    response_writer.WriteU16(static_cast<std::uint16_t>(status.code()));
    response_writer.WriteString(status.message());
    response_writer.WriteBytes(result_body);
    util::ReleaseFrame(std::move(result_body));
  }
  util::ReleaseFrame(std::move(sub_body));
  util::ReleaseFrame(std::move(body));
  if (corrupt) return;

  Message response;
  response.from = endpoint_id_;
  response.to = message.from;
  response.kind = MessageKind::kResponse;
  response.correlation_id = message.correlation_id;
  response.method = BatchMethodId();
  Bytes response_body = response_writer.Take();
  util::ByteWriter envelope(util::AcquireFrame(10 + response_body.size()));
  envelope.WriteU16(static_cast<std::uint16_t>(util::ErrorCode::kOk));
  envelope.WriteString("");
  envelope.WriteBytes(response_body);
  response.payload = envelope.Take();
  util::ReleaseFrame(std::move(response_body));
  (void)network_->Send(std::move(response));
}

// ---------------------------------------------------------------------------
// RpcClient

RpcClient::RpcClient(Network* network, std::string endpoint)
    : network_(network),
      endpoint_(std::move(endpoint)),
      endpoint_id_(endpoint_) {
  const util::Status status = network_->RegisterEndpoint(
      endpoint_id_,
      [this](Message message) { HandleMessage(std::move(message)); });
  registered_ = status.ok();
  if (!status.ok()) {
    NEES_LOG_ERROR("net.rpc") << "client endpoint registration failed: "
                              << status.ToString();
  }
}

RpcClient::~RpcClient() { Stop(); }

void RpcClient::Stop() {
  if (!registered_) return;
  registered_ = false;
  network_->UnregisterEndpoint(endpoint_id_);
}

void RpcClient::SetAuthToken(std::string token) {
  util::MutexLock lock(mu_);
  auth_token_ = std::move(token);
}

void RpcClient::SetAuthTokenFor(EndpointId target, std::string token) {
  util::MutexLock lock(mu_);
  per_target_tokens_[target.raw()] = std::move(token);
}

const std::string& RpcClient::TokenRefLocked(EndpointId target) const {
  const std::string* token = per_target_tokens_.Find(target.raw());
  return token != nullptr ? *token : auth_token_;
}

std::string RpcClient::TokenForLocked(EndpointId target) const {
  return TokenRefLocked(target);
}

std::string RpcClient::TokenFor(EndpointId target) {
  util::MutexLock lock(mu_);
  return TokenForLocked(target);
}

void RpcClient::HandleMessage(Message message) {
  if (message.kind != MessageKind::kResponse) return;
  if (message.method == BatchMethodId()) {
    HandleBatchResponse(std::move(message));
    return;
  }
  util::Status status;
  Bytes body;
  const util::Status decoded =
      ConsumeResponseEnvelope(&message.payload, &status, &body);
  util::MutexLock lock(mu_);
  auto* slot = pending_.Find(message.correlation_id);
  if (slot == nullptr) return;  // late/duplicate response: ignore
  PendingCall& call = **slot;
  call.status = decoded.ok() ? status : decoded;
  call.response = std::move(body);
  call.done = true;
}

void RpcClient::HandleBatchResponse(Message message) {
  util::Status outer;
  Bytes body;
  if (!ConsumeResponseEnvelope(&message.payload, &outer, &body).ok() ||
      !outer.ok()) {
    return;  // corrupt/failed batch frame: callers time out (like loss)
  }
  util::ByteReader reader(body);
  auto count = reader.ReadU32();
  if (!count.ok()) {
    util::ReleaseFrame(std::move(body));
    return;
  }
  {
    util::MutexLock lock(mu_);
    for (std::uint32_t i = 0; i < *count; ++i) {
      auto correlation = reader.ReadU64();
      auto code = reader.ReadU16();
      auto text = reader.ReadString();
      auto view = reader.ReadBytesView();
      if (!correlation.ok() || !code.ok() || !text.ok() || !view.ok()) {
        break;  // truncated tail: the already-demuxed calls stand
      }
      auto* slot = pending_.Find(*correlation);
      if (slot == nullptr) continue;  // late/duplicate sub-response
      PendingCall& call = **slot;
      call.status = util::Status(static_cast<util::ErrorCode>(*code),
                                 *std::move(text));
      call.response = util::AcquireFrame(view->size());
      call.response.assign(view->begin(), view->end());
      call.done = true;
    }
  }
  util::ReleaseFrame(std::move(body));
}

std::string RpcClient::AsyncCall::TimeoutMessage() const {
  return "rpc " + method_.str() + " to " + target_.str() + " timed out";
}

std::shared_ptr<PendingCall> RpcClient::AcquireCallLocked() {
  if (call_pool_.empty()) return std::make_shared<PendingCall>();
  std::shared_ptr<PendingCall> call = std::move(call_pool_.back());
  call_pool_.pop_back();
  return call;
}

void RpcClient::RecycleCallLocked(std::shared_ptr<PendingCall> call) {
  if (call == nullptr || call.use_count() != 1) return;
  constexpr std::size_t kMaxPooledCalls = 1024;
  if (call_pool_.size() >= kMaxPooledCalls) return;
  call->done = false;
  call->sent = true;
  call->status = util::OkStatus();
  util::ReleaseFrame(std::move(call->response));
  call->response.clear();
  call_pool_.push_back(std::move(call));
}

RpcClient::AsyncCall RpcClient::Issue(EndpointId target, MethodId method,
                                      const Bytes& body,
                                      std::int64_t timeout_micros) {
  AsyncCall async;
  async.client_ = this;
  async.target_ = target;
  async.method_ = method;
  // Deadline on the network's injected clock, not the wall clock, so
  // SimClock-driven tests time out in simulated time. Only kVirtual waits
  // for a deadline; a kImmediate call resolves without one (TryResolve,
  // WaitAnyUntil), so it reads no clock here.
  if (network_->mode() == DeliveryMode::kVirtual) {
    async.deadline_micros_ = network_->clock()->NowMicros() + timeout_micros;
  }
  std::string token;
  {
    util::MutexLock lock(mu_);
    async.state_ = AcquireCallLocked();
    async.correlation_ = next_correlation_++;
    pending_[async.correlation_] = async.state_;
    const std::string& live_token = TokenRefLocked(target);
    if (batching_) {
      // Stage instead of send: the pooled body copy travels in the batch
      // frame at FlushBatch time. sent=false keeps TryResolve from
      // treating the unsent call as an immediate-mode timeout.
      async.state_->sent = false;
      StagedTarget* group = nullptr;
      for (StagedTarget& candidate : staging_) {
        if (candidate.target == target) {
          group = &candidate;
          break;
        }
      }
      if (group == nullptr) {
        if (!staging_pool_.empty()) {
          // Reuse a parked shell: its calls vector and token string keep
          // their capacity from the previous window.
          staging_.push_back(std::move(staging_pool_.back()));
          staging_pool_.pop_back();
          group = &staging_.back();
          group->target = target;
          group->token.assign(live_token);
        } else {
          staging_.push_back(StagedTarget{target, live_token, {}});
          group = &staging_.back();
        }
      }
      Bytes staged_body = util::AcquireFrame(body.size());
      staged_body.assign(body.begin(), body.end());
      group->calls.push_back(StagedCall{async.correlation_, method,
                                        std::move(staged_body), async.state_});
      return async;
    }
    token = live_token;  // copied out: still needed after the lock drops
  }

  Message request;
  request.from = endpoint_id_;
  request.to = target;
  request.kind = MessageKind::kRequest;
  request.correlation_id = async.correlation_;
  request.method = method;
  util::ByteWriter writer(
      util::AcquireFrame(8 + token.size() + body.size()));
  writer.WriteString(token);
  writer.WriteBytes(body);
  request.payload = writer.Take();

  const util::Status send_status = network_->Send(std::move(request));
  if (!send_status.ok()) {
    util::MutexLock lock(mu_);
    pending_.Erase(async.correlation_);
    // Destination endpoint missing: surface as transient (site may return).
    async.send_error_ = util::Unavailable("send to " + target.str() +
                                          " failed: " + send_status.message());
  }
  return async;
}

void RpcClient::BeginBatch() {
  util::MutexLock lock(mu_);
  batching_ = true;
}

void RpcClient::FlushBatch() {
  std::vector<StagedTarget> staged;
  {
    util::MutexLock lock(mu_);
    batching_ = false;
    if (staging_.empty()) return;
    staged = std::move(staging_);
    staging_.clear();
  }
  for (StagedTarget& group : staged) {
    util::Status send_status;
    Message request;
    request.from = endpoint_id_;
    request.to = group.target;
    request.kind = MessageKind::kRequest;
    if (group.calls.size() == 1) {
      // A lone call needs no envelope-within-envelope: it goes out as a
      // plain request, bit-identical to the unbatched wire format.
      StagedCall& call = group.calls.front();
      request.correlation_id = call.correlation;
      request.method = call.method;
      util::ByteWriter writer(
          util::AcquireFrame(8 + group.token.size() + call.body.size()));
      writer.WriteString(group.token);
      writer.WriteBytes(call.body);
      request.payload = writer.Take();
      util::ReleaseFrame(std::move(call.body));
    } else {
      request.method = BatchMethodId();
      {
        util::MutexLock lock(mu_);
        request.correlation_id = next_correlation_++;
      }
      util::ByteWriter body_writer(util::AcquireFrame());
      body_writer.WriteU32(static_cast<std::uint32_t>(group.calls.size()));
      for (StagedCall& call : group.calls) {
        body_writer.WriteU64(call.correlation);
        body_writer.WriteU32(call.method.raw());
        body_writer.WriteBytes(call.body);
        util::ReleaseFrame(std::move(call.body));
      }
      Bytes batch_body = body_writer.Take();
      util::ByteWriter envelope(
          util::AcquireFrame(8 + group.token.size() + batch_body.size()));
      envelope.WriteString(group.token);
      envelope.WriteBytes(batch_body);
      util::ReleaseFrame(std::move(batch_body));
      request.payload = envelope.Take();
    }
    send_status = network_->Send(std::move(request));

    util::MutexLock lock(mu_);
    for (StagedCall& call : group.calls) {
      if (!send_status.ok() && !call.state->done) {
        call.state->status = util::Unavailable(
            "send to " + group.target.str() + " failed: " +
            send_status.message());
        call.state->done = true;
      }
      call.state->sent = true;
    }
  }
  // Park the emptied shells (and the staging vector's own buffer) so the
  // next batch window stages without reallocating.
  {
    util::MutexLock lock(mu_);
    for (StagedTarget& group : staged) {
      group.calls.clear();
      staging_pool_.push_back(std::move(group));
    }
    staged.clear();
    if (staging_.empty()) staging_ = std::move(staged);
  }
}

util::Result<Bytes> RpcClient::AsyncCall::Wait() {
  if (client_ == nullptr) {
    return util::Internal("Wait() on an empty AsyncCall");
  }
  AsyncCall* const self = this;
  client_->WaitAnyUntil(std::span<AsyncCall* const>(&self, 1),
                        std::numeric_limits<std::int64_t>::max());
  // Resolved now: the reply arrived, the send failed, or (kVirtual) the
  // clock reached the deadline; in kImmediate mode an unanswered call is
  // lost and resolves as a timeout.
  util::Result<Bytes> outcome = util::Internal("unresolved");
  TryResolve(&outcome);
  return outcome;
}

bool RpcClient::AsyncCall::TryResolve(util::Result<Bytes>* out) {
  if (client_ == nullptr) {
    *out = util::Internal("TryResolve() on an empty AsyncCall");
    return true;
  }
  if (!send_error_.ok()) {
    *out = send_error_;
    client_ = nullptr;
    return true;
  }
  RpcClient* client = client_;
  util::MutexLock lock(client->mu_);
  if (state_->done) {
    client->pending_.Erase(correlation_);
    client_ = nullptr;
    if (!state_->status.ok()) {
      *out = std::move(state_->status);
    } else {
      *out = std::move(state_->response);
    }
    client->RecycleCallLocked(std::move(state_));
    return true;
  }
  // Still staged in an open batch window: not on the wire yet, so neither
  // answered nor lost. The flush (or a Wait) moves it along.
  if (!state_->sent) return false;
  // Immediate mode resolves unanswered calls at once (see header); in
  // kVirtual mode the call times out when the clock passes the deadline.
  if (client->network_->mode() == DeliveryMode::kImmediate ||
      client->network_->clock()->NowMicros() >= deadline_micros_) {
    client->pending_.Erase(correlation_);
    client_ = nullptr;
    *out = util::TimeoutError(TimeoutMessage());
    client->RecycleCallLocked(std::move(state_));
    return true;
  }
  return false;
}

void RpcClient::WaitAnyUntil(std::span<AsyncCall* const> calls,
                             std::int64_t wake_micros) {
  // A call still staged in the open batch window must hit the wire before
  // a wait makes sense. Waiting only on sent calls leaves the window open
  // (a synchronous Call thereby takes no extra lock).
  bool staged = false;
  {
    util::MutexLock lock(mu_);
    for (const AsyncCall* call : calls) {
      staged |= call->client_ != nullptr && call->send_error_.ok() &&
                !call->state_->sent;
    }
  }
  if (staged) FlushBatch();
  // Immediate mode: every call resolved inline during issue.
  if (network_->mode() != DeliveryMode::kVirtual) return;
  // A pumping wait while any lock is held risks a distributed stall: the
  // response handler may need that very lock. Lockdep flags it.
  util::lockdep::CheckBlockingCall("RpcClient::WaitAnyUntil");
  for (;;) {
    std::int64_t wake = wake_micros;
    bool any_live = false;
    bool any_resolved = false;
    const std::int64_t now = network_->clock()->NowMicros();
    {
      util::MutexLock lock(mu_);
      for (AsyncCall* call : calls) {
        if (call->client_ == nullptr || !call->send_error_.ok() ||
            call->state_->done || call->deadline_micros_ <= now) {
          // Harvestable via TryResolve right now (resolved or lapsed).
          any_resolved = true;
          continue;
        }
        any_live = true;
        wake = std::min(wake, call->deadline_micros_);
      }
    }
    if (!any_live || any_resolved) return;
    if (now >= wake) return;
    // Deliver exactly one event (or advance the clock to `wake`), then
    // re-evaluate; completions, timeouts, and the caller's wake time are
    // thereby multiplexed in one deterministic order. Response handlers
    // run inline here and take mu_, which is released around each pump.
    network_->PumpOneUntil(wake);
  }
}

RpcClient::AsyncCall RpcClient::CallAsync(EndpointId target, MethodId method,
                                          const Bytes& body,
                                          std::int64_t timeout_micros) {
  return Issue(target, method, body, timeout_micros);
}

util::Result<Bytes> RpcClient::Call(EndpointId target, MethodId method,
                                    const Bytes& body,
                                    std::int64_t timeout_micros) {
  return Issue(target, method, body, timeout_micros).Wait();
}

util::Status RpcClient::OneWay(EndpointId target, MethodId method,
                               const Bytes& body) {
  const std::string token = TokenFor(target);
  Message message;
  message.from = endpoint_id_;
  message.to = target;
  message.kind = MessageKind::kOneWay;
  message.method = method;
  util::ByteWriter writer(util::AcquireFrame(8 + token.size() + body.size()));
  writer.WriteString(token);
  writer.WriteBytes(body);
  message.payload = writer.Take();
  return network_->Send(std::move(message));
}

}  // namespace nees::net
