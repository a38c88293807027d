#include "net/rpc.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/clock.h"
#include "util/frame_pool.h"
#include "util/logging.h"

namespace nees::net {

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

std::string RpcClient::TokenFor(EndpointId target) {
  util::MutexLock lock(mu_);
  return TokenRefLocked(target);
}

void RpcClient::HandleMessage(Message message) {
  if (message.kind != MessageKind::kResponse) return;
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
    token = TokenRefLocked(target);  // copied out: needed after the lock drops
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
