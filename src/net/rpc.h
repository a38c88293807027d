// Request/response RPC over the simulated network.
//
// Servers register named methods; clients call them with a timeout. An
// optional authenticator hook lets the security module map a bearer token
// to an authenticated subject before the method body runs (the GSI analog:
// every NEESgrid service call is authenticated, §2).
//
// Loss semantics match a real datagram-over-WAN stack: a dropped request or
// response surfaces to the caller only as a Timeout. Retries and
// at-most-once semantics live one layer up, in NTCP — exactly where the
// paper puts them.
//
// Hot-path layout: targets and methods are interned ids (net/endpoint.h),
// method dispatch and the pending-call correlation table are open-addressed
// (util/open_hash.h), and envelopes are encoded into recycled pool frames
// (util/frame_pool.h). Every call goes on the wire when it is issued.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/network.h"
#include "util/bytes.h"
#include "util/mutex.h"
#include "util/open_hash.h"
#include "util/result.h"

namespace nees::net {

using Bytes = std::vector<std::uint8_t>;

/// Per-call context handed to method implementations. The views point at
/// interned names (stable for the process lifetime).
struct CallContext {
  std::string_view caller_endpoint;  // network-level sender
  std::string auth_token;            // raw bearer token ("" if none)
  std::string subject;               // authenticated identity ("" if anonymous)
  std::string_view method;
};

class RpcServer {
 public:
  using Method =
      std::function<util::Result<Bytes>(const CallContext&, const Bytes&)>;
  using OneWayMethod = std::function<void(const CallContext&, const Bytes&)>;
  /// Maps (token, method) -> subject, or an error to reject the call.
  using Authenticator =
      std::function<util::Result<std::string>(const std::string& token,
                                              const std::string& method)>;

  RpcServer(Network* network, std::string endpoint);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  util::Status Start();
  void Stop();

  /// Method names are interned to dense ids once, here at registration;
  /// dispatch afterwards is one open-addressed probe by id.
  void RegisterMethod(MethodId name, Method method);
  void RegisterOneWay(MethodId name, OneWayMethod method);

  /// Installs the authentication hook. If set, calls with tokens the hook
  /// rejects are answered with the hook's error status; methods see the
  /// resolved subject in CallContext.
  void SetAuthenticator(Authenticator authenticator);

  const std::string& endpoint() const { return endpoint_; }
  EndpointId endpoint_id() const { return endpoint_id_; }

 private:
  // Dispatch copies the handler out from under mu_ and runs it unlocked;
  // sharing it makes that copy a reference-count bump, never a copy of a
  // capture too large for std::function's inline buffer.
  struct MethodEntry {
    std::shared_ptr<const Method> request;
    std::shared_ptr<const OneWayMethod> oneway;
  };

  void HandleMessage(Message message);
  /// Per-call core: method lookup, authentication, handler run.
  util::Result<Bytes> DispatchCall(CallContext& context, MethodId method,
                                   const Bytes& body);
  MethodEntry& EntryLocked(MethodId id) NEES_REQUIRES(mu_);

  Network* network_;
  std::string endpoint_;
  EndpointId endpoint_id_;
  bool started_ = false;
  mutable util::Mutex mu_{"net.RpcServer"};
  /// Interned method id -> dense index + 1 into method_entries_.
  util::OpenHashMap<std::uint32_t, std::uint32_t> method_index_
      NEES_GUARDED_BY(mu_);
  std::vector<MethodEntry> method_entries_ NEES_GUARDED_BY(mu_);
  Authenticator authenticator_ NEES_GUARDED_BY(mu_);
};

/// Slot a response lands in; shared between the client and async handles.
/// Responses are written by the client's network handler: inline during
/// Send under kImmediate, from the event loop a waiter pumps under kVirtual.
struct PendingCall {
  bool done = false;
  util::Status status;
  Bytes response;
};

class RpcClient {
 public:
  /// `endpoint` is this client's own network name for receiving responses.
  RpcClient(Network* network, std::string endpoint);
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Unregisters this client's endpoint now (idempotent; the destructor
  /// otherwise does it). Crash simulation needs this: when a site dies and
  /// a fresh incarnation re-registers the same endpoint name, the dead
  /// incarnation's eventual destructor must not tear down its successor's
  /// registration.
  void Stop();

  /// Bearer token attached to every subsequent call (the default token).
  void SetAuthToken(std::string token);

  /// Token used only for calls to `target` (overrides the default). Each
  /// site issues its own session tokens, so a client talking to several
  /// secured services holds one per target.
  void SetAuthTokenFor(EndpointId target, std::string token);

  /// Synchronous call. Timeout produces ErrorCode::kTimeout; a transport-
  /// level missing endpoint produces kUnavailable (the site is gone, retry
  /// later); application errors pass through the server's status.
  util::Result<Bytes> Call(EndpointId target, MethodId method,
                           const Bytes& body,
                           std::int64_t timeout_micros = 1'000'000);

  /// Handle to an in-flight asynchronous call. Deadlines are stamped from
  /// the network's injected util::Clock, so SimClock-driven tests see
  /// simulated-time timeouts rather than wall-clock ones.
  class AsyncCall {
   public:
    /// Blocks until the reply arrives or the call's timeout lapses:
    /// WaitAnyUntil on this call alone, then TryResolve. In kVirtual mode
    /// "blocking" means pumping the network's event loop up to the
    /// deadline, so waits are deterministic and instantaneous.
    util::Result<Bytes> Wait();

    /// Non-blocking: if the call has resolved (reply arrived, send failed,
    /// or the deadline lapsed), writes the outcome to `out` and returns
    /// true; otherwise returns false. In kImmediate mode an unanswered call
    /// resolves as a timeout at once — the response (if any) was delivered
    /// inline during Send, so there is nothing left to wait for. Like
    /// Wait(), resolves at most once per handle.
    bool TryResolve(util::Result<Bytes>* out);

    /// Clock-based deadline (micros on the network's clock). kVirtual only:
    /// a kImmediate call never waits, so its deadline stays INT64_MAX.
    std::int64_t deadline_micros() const { return deadline_micros_; }

   private:
    friend class RpcClient;
    /// Built lazily, only when a timeout actually needs the text.
    std::string TimeoutMessage() const;

    RpcClient* client_ = nullptr;
    std::uint64_t correlation_ = 0;
    std::shared_ptr<PendingCall> state_;
    std::int64_t deadline_micros_ = std::numeric_limits<std::int64_t>::max();
    util::Status send_error_;
    EndpointId target_;
    MethodId method_;
  };

  /// Issues a call without waiting; several calls to different sites can be
  /// in flight at once, overlapping their round trips (the §5 near-real-
  /// time optimization). Wait() at most once per handle.
  AsyncCall CallAsync(EndpointId target, MethodId method, const Bytes& body,
                      std::int64_t timeout_micros = 1'000'000);

  /// The one wait loop of the RPC layer. Blocks until at least one of the
  /// (currently unresolved) calls completes, or the network clock reaches
  /// `wake_micros`, or the earliest deadline among the calls lapses —
  /// whichever comes first. Returns immediately if any call is already
  /// resolved. Harvest outcomes with TryResolve() per handle afterwards.
  /// No-op in kImmediate mode, where calls resolve inline during
  /// issue; in kVirtual mode it pumps the event loop one event at a time
  /// between checks, single-threaded and deterministic.
  void WaitAnyUntil(std::span<AsyncCall* const> calls,
                    std::int64_t wake_micros);

  /// Fire-and-forget send (streaming, notifications).
  util::Status OneWay(EndpointId target, MethodId method, const Bytes& body);

  const std::string& endpoint() const { return endpoint_; }
  EndpointId endpoint_id() const { return endpoint_id_; }

 private:
  void HandleMessage(Message message);

  /// Issues the request and registers the pending slot (shared by Call and
  /// CallAsync); on send failure returns the error in AsyncCall.
  AsyncCall Issue(EndpointId target, MethodId method, const Bytes& body,
                  std::int64_t timeout_micros);

  std::string TokenFor(EndpointId target) NEES_EXCLUDES(mu_);
  /// Allocation-free variant; the reference is only valid under mu_.
  const std::string& TokenRefLocked(EndpointId target) const
      NEES_REQUIRES(mu_);

  /// Pops a recycled PendingCall (or allocates the pool's first few).
  std::shared_ptr<PendingCall> AcquireCallLocked() NEES_REQUIRES(mu_);
  /// Returns a resolved slot to the pool. Only the last owner may recycle:
  /// a slot a copied AsyncCall handle still references is simply dropped
  /// and freed normally.
  void RecycleCallLocked(std::shared_ptr<PendingCall> call)
      NEES_REQUIRES(mu_);

  Network* network_;
  std::string endpoint_;
  EndpointId endpoint_id_;
  bool registered_ = false;
  util::Mutex mu_{"net.RpcClient"};
  std::string auth_token_ NEES_GUARDED_BY(mu_);
  util::OpenHashMap<std::uint32_t, std::string> per_target_tokens_
      NEES_GUARDED_BY(mu_);
  std::uint64_t next_correlation_ NEES_GUARDED_BY(mu_) = 1;
  util::OpenHashMap<std::uint64_t, std::shared_ptr<PendingCall>> pending_
      NEES_GUARDED_BY(mu_);
  /// Recycled PendingCall slots: every resolved call hands its slot back
  /// (response capacity intact), so steady-state
  /// traffic allocates no per-call control blocks.
  std::vector<std::shared_ptr<PendingCall>> call_pool_ NEES_GUARDED_BY(mu_);
};

/// Encodes/decodes the RPC envelopes (exposed for protocol tests).
Bytes EncodeRequestEnvelope(const std::string& auth_token, const Bytes& body);
util::Status DecodeRequestEnvelope(const Bytes& payload,
                                   std::string* auth_token, Bytes* body);
Bytes EncodeResponseEnvelope(const util::Status& status, const Bytes& body);
util::Status DecodeResponseEnvelope(const Bytes& payload, util::Status* status,
                                    Bytes* body);

/// Consuming decodes used on the delivery path: after validating the
/// header, the body is moved out of `payload` with a prefix erase (one
/// memmove, no second allocation). Strict framing: the body's length
/// prefix must account for the entire remainder of the frame.
util::Status ConsumeRequestEnvelope(Bytes* payload, std::string* auth_token,
                                    Bytes* body);
util::Status ConsumeResponseEnvelope(Bytes* payload, util::Status* status,
                                     Bytes* body);

}  // namespace nees::net
