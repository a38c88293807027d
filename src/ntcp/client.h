// NTCP client: the coordinator-facing API (the paper's "NTCP Java API",
// here in C++). Layered on RPC with a retry policy that exploits the
// protocol's at-most-once semantics: a request whose reply was lost can be
// re-sent "without any danger of the same action being executed twice"
// (§2.1). Retries cover kTimeout/kUnavailable only; definitive answers
// (rejection, policy violation, safety interlock) are never retried.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/rpc.h"
#include "ntcp/types.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace nees::ntcp {

struct RetryPolicy {
  int max_attempts = 5;                    // total tries per operation
  std::int64_t initial_backoff_micros = 100'000;
  double backoff_multiplier = 2.0;
  std::int64_t max_backoff_micros = 5'000'000;
  std::int64_t rpc_timeout_micros = 2'000'000;
};

struct NtcpClientStats {
  std::uint64_t calls = 0;
  std::uint64_t retries = 0;
  std::uint64_t recovered = 0;  // operations that succeeded after >=1 retry
  std::uint64_t gave_up = 0;    // transient failures that exhausted retries
  std::uint64_t auth_refreshes = 0;  // credential re-handshakes mid-op
};

class NtcpClient {
 public:
  /// `rpc` must outlive the client; it carries the auth token if any.
  NtcpClient(net::RpcClient* rpc, std::string server_endpoint,
             RetryPolicy policy = RetryPolicy(),
             util::Clock* clock = &util::SystemClock::Instance());
  ~NtcpClient();

  /// Sends the proposal; Ok means *accepted*. A rejected proposal returns
  /// kPolicyViolation with the site's reason.
  util::Status Propose(const Proposal& proposal);

  /// Executes an accepted transaction and returns measured results.
  util::Result<TransactionResult> Execute(const std::string& transaction_id);

  util::Status Cancel(const std::string& transaction_id);
  util::Result<TransactionRecord> GetTransaction(
      const std::string& transaction_id);
  util::Result<std::vector<std::string>> ListTransactions();

  /// Handle to an in-flight asynchronous NTCP operation. The full retry /
  /// backoff / at-most-once state machine of the synchronous API runs
  /// inside the handle: Pump() advances it without blocking (resolving the
  /// current RPC attempt, scheduling backoff, or reissuing). AwaitAll()
  /// drives many ops — across sites — to completion, multiplexed on the
  /// calling thread; Await() is AwaitAll() over this op alone. No thread
  /// is ever created. Obtain via ProposeAsync/ExecuteAsync/CancelAsync and
  /// decode with the matching Finish* function.
  class AsyncOp {
   public:
    AsyncOp();
    AsyncOp(AsyncOp&&) noexcept;
    AsyncOp& operator=(AsyncOp&&) noexcept;
    ~AsyncOp();

    AsyncOp(const AsyncOp&) = delete;
    AsyncOp& operator=(const AsyncOp&) = delete;

    bool active() const { return state_ != nullptr; }
    bool finished() const;

    /// Advances the retry state machine; never blocks. Returns finished().
    bool Pump();

    /// Client-clock micros of the next self-driven event (current attempt's
    /// deadline, or backoff expiry); INT64_MAX when finished/empty.
    std::int64_t NextEventMicros() const;

    /// Micros from issue to resolution on the client clock (0 until then).
    std::int64_t elapsed_micros() const;

    /// Blocks until the operation resolves (including retries + backoff)
    /// through AwaitAll() and consumes the outcome. Prefer the typed
    /// Finish* helpers.
    util::Result<net::Bytes> Await();

   private:
    friend class NtcpClient;
    struct State;
    std::unique_ptr<State> state_;
  };

  /// Issue an operation without blocking. When `parent_span_id` is 0 the
  /// operation's "protocol" span parents under the calling thread's
  /// current span (matching the synchronous API); pass an explicit id when
  /// driving many sites' ops from one thread, where the thread's span
  /// stack cannot distinguish them.
  AsyncOp ProposeAsync(const Proposal& proposal,
                       std::uint64_t parent_span_id = 0);
  AsyncOp ExecuteAsync(const std::string& transaction_id,
                       std::uint64_t parent_span_id = 0);
  AsyncOp CancelAsync(const std::string& transaction_id,
                      std::uint64_t parent_span_id = 0);

  /// Awaits + decodes an op started by the matching *Async call.
  static util::Status FinishPropose(AsyncOp& op);
  /// Decodes the execute result into `result`, reusing its storage.
  static util::Status FinishExecute(AsyncOp& op, TransactionResult& result);
  static util::Status FinishCancel(AsyncOp& op);

  /// The one wait loop of the NTCP client: drives every op to completion
  /// on the calling thread, overlapping all their round trips and backoff
  /// windows. The ops may target different sites; they should share one
  /// underlying RpcClient so a single RPC wait covers every in-flight
  /// attempt.
  static void AwaitAll(std::span<AsyncOp> ops);

  const std::string& server() const { return server_; }
  NtcpClientStats stats() const { return stats_; }
  const RetryPolicy& policy() const { return policy_; }

  /// Optional: records one "protocol" span per operation when set.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Optional credential-refresh hook. When set, an operation rejected with
  /// kUnauthenticated / kPermissionDenied runs this (expected to redo the
  /// GSI handshake and install a fresh token on the RpcClient), then — if
  /// it succeeds — backs off and reissues the request instead of failing
  /// the operation. A rejection *immediately after* a refresh is a real
  /// authorization answer, not a stale credential, and is final. Any other
  /// failure in between (a timeout, say) re-arms the refresh: by the next
  /// rejection the refreshed token may itself have expired. Every refresh
  /// spends an attempt, so refreshes are bounded by
  /// RetryPolicy::max_attempts.
  void set_auth_refresher(std::function<util::Status()> refresher) {
    auth_refresher_ = std::move(refresher);
  }

 private:
  /// Starts the retry state machine for one operation (first RPC attempt
  /// issued before returning; pumped once so immediate-mode responses
  /// resolve inline).
  /// `op_tags` (e.g. the transaction id and step) annotate the
  /// operation's span after the server tag; they are moved from.
  AsyncOp StartOp(net::MethodId method, net::Bytes body,
                  std::span<obs::Tag> op_tags, std::uint64_t parent_span_id);

  net::RpcClient* rpc_;
  std::string server_;
  net::EndpointId server_id_;  // interned once; the hot path never re-hashes
  RetryPolicy policy_;
  util::Clock* clock_;
  NtcpClientStats stats_;
  obs::Tracer* tracer_ = nullptr;
  std::function<util::Status()> auth_refresher_;
  /// Recycled AsyncOp state blocks: an op consumed by Await() parks its
  /// block here so the next StartOp reuses it instead of allocating. The
  /// client is driven from one thread at a time (like stats_), so no lock.
  std::vector<std::unique_ptr<AsyncOp::State>> op_pool_;
};

}  // namespace nees::ntcp
