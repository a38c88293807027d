#include "plugins/mplugin.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/trace.h"
#include "util/frame_pool.h"
#include "util/logging.h"

namespace nees::plugins {
namespace {

// Trace vocabulary.
const obs::Atom kQueueSpan("mplugin.queue");
const obs::Atom kQueueCategory("queue");
const obs::Atom kComputeSpan("backend.compute");
const obs::Atom kSimulationCategory("simulation");
const obs::Atom kTxn("txn");

net::MethodId PollMethod() {
  static const net::MethodId id("mplugin.poll");
  return id;
}
net::MethodId NotifyMethod() {
  static const net::MethodId id("mplugin.notify");
  return id;
}

}  // namespace

MPlugin::MPlugin(Config config) : config_(config) {}

MPlugin::~MPlugin() { Shutdown(); }

void MPlugin::Shutdown() {
  util::MutexLock lock(mu_);
  shutting_down_ = true;
  for (auto& [id, pending] : pending_) pending->cv.NotifyAll();
}

util::Status MPlugin::Validate(const ntcp::Proposal& proposal) {
  if (proposal.actions.empty()) {
    return util::InvalidArgument("proposal has no actions");
  }
  for (const auto& action : proposal.actions) {
    for (double d : action.target_displacement) {
      if (std::fabs(d) > config_.max_abs_displacement_m) {
        return util::PolicyViolation("target exceeds Mplugin site limit");
      }
    }
  }
  return util::OkStatus();
}

util::Result<ntcp::TransactionResult> MPlugin::Execute(
    const ntcp::Proposal& proposal) {
  auto pending = std::make_shared<Pending>();
  if (tracer_ != nullptr) {
    // A remote backend polls from another context; remember ours so the
    // queue/compute records attach under the server.execute span.
    pending->parent_span_id = tracer_->CurrentSpanId();
    pending->enqueued_micros = tracer_->NowMicros();
  }
  std::function<void()> notify;
  {
    util::MutexLock lock(mu_);
    pending_[proposal.transaction_id] = pending;
    queue_.push_back(proposal);
    notify = work_notifier_;
  }
  // Outside the lock: an in-process backend polls and posts right here, and
  // a remote backend's notifier issues a network send.
  if (notify) notify();
  {
    util::MutexLock lock(mu_);
    bool completed;
    if (virtual_net_ != nullptr) {
      // Virtual time: drive the event loop instead of parking. Each pump
      // runs outside mu_ (it delivers the wake, the backend's poll, the
      // compute, and the notify — possibly recursively) until PostResult
      // marks us done or the timeout's virtual deadline passes.
      const std::int64_t give_up = virtual_net_->clock()->NowMicros() +
                                   config_.execute_timeout_micros;
      while (!pending->done && !shutting_down_ &&
             virtual_net_->clock()->NowMicros() < give_up) {
        lock.Unlock();
        virtual_net_->PumpOneUntil(give_up);
        lock.Lock();
      }
      completed = pending->done || shutting_down_;
    } else {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(config_.execute_timeout_micros);
      while (!pending->done && !shutting_down_) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        pending->cv.WaitFor(
            mu_, std::chrono::duration_cast<std::chrono::microseconds>(
                     deadline - now)
                     .count());
      }
      completed = pending->done || shutting_down_;
    }
    pending_.erase(proposal.transaction_id);
    if (!completed || !pending->done) {
      // Remove the unclaimed request so a late backend can't act on it.
      std::erase_if(queue_, [&](const ntcp::Proposal& queued) {
        return queued.transaction_id == proposal.transaction_id;
      });
      return util::TimeoutError("backend did not service request " +
                                proposal.transaction_id);
    }
  }
  if (!pending->status.ok()) return pending->status;
  return pending->result;
}

std::optional<ntcp::Proposal> MPlugin::PollRequest() {
  util::MutexLock lock(mu_);
  ++polls_;
  if (queue_.empty()) return std::nullopt;
  ntcp::Proposal proposal = std::move(queue_.front());
  queue_.pop_front();
  if (tracer_ != nullptr) {
    // Idle polls record nothing (their count depends on host scheduling);
    // only a successful dequeue leaves a trace.
    auto it = pending_.find(proposal.transaction_id);
    if (it != pending_.end()) {
      const std::int64_t now = tracer_->NowMicros();
      tracer_->RecordInterval(it->second->parent_span_id, kQueueSpan,
                              kQueueCategory, it->second->enqueued_micros, now,
                              {{kTxn, proposal.transaction_id}});
      tracer_->metrics().Observe(
          "mplugin.queue_micros",
          static_cast<double>(now - it->second->enqueued_micros));
      it->second->compute_span_id = tracer_->BeginSpanId(
          kComputeSpan, kSimulationCategory, it->second->parent_span_id);
    }
  }
  return proposal;
}

util::Status MPlugin::PostResult(
    const std::string& transaction_id,
    util::Result<ntcp::TransactionResult> outcome) {
  util::MutexLock lock(mu_);
  auto it = pending_.find(transaction_id);
  if (it == pending_.end()) {
    return util::NotFound("no pending execution named " + transaction_id);
  }
  if (tracer_ != nullptr && it->second->compute_span_id != 0) {
    tracer_->EndSpanId(it->second->compute_span_id);
    it->second->compute_span_id = 0;
  }
  it->second->done = true;
  if (outcome.ok()) {
    it->second->result = std::move(outcome).value();
  } else {
    it->second->status = outcome.status();
  }
  it->second->cv.NotifyOne();  // wake exactly the Execute that is waiting
  return util::OkStatus();
}

void MPlugin::SetWorkNotifier(std::function<void()> notifier) {
  util::MutexLock lock(mu_);
  work_notifier_ = std::move(notifier);
}

void MPlugin::AttachVirtualNetwork(net::Network* network) {
  util::MutexLock lock(mu_);
  virtual_net_ =
      (network != nullptr && network->mode() == net::DeliveryMode::kVirtual)
          ? network
          : nullptr;
}

void MPlugin::BindBackendRpc(net::RpcServer& server) {
  server.RegisterMethod(
      "mplugin.poll",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        // max_wait: decoded for the wire format, ignored (polls never block).
        NEES_RETURN_IF_ERROR(reader.ReadI64().status());
        auto proposal = PollRequest();
        util::ByteWriter writer(util::AcquireFrame());
        writer.WriteBool(proposal.has_value());
        if (proposal) ntcp::EncodeProposal(*proposal, writer);
        return writer.Take();
      });
  server.RegisterMethod(
      "mplugin.notify",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string id, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(bool ok, reader.ReadBool());
        if (ok) {
          NEES_ASSIGN_OR_RETURN(ntcp::TransactionResult result,
                                ntcp::DecodeTransactionResult(reader));
          NEES_RETURN_IF_ERROR(PostResult(id, std::move(result)));
        } else {
          NEES_ASSIGN_OR_RETURN(std::string error, reader.ReadString());
          NEES_RETURN_IF_ERROR(PostResult(id, util::Internal(error)));
        }
        return net::Bytes{};
      });
}

std::uint64_t MPlugin::polls() const {
  util::MutexLock lock(mu_);
  return polls_;
}

std::size_t MPlugin::buffered() const {
  util::MutexLock lock(mu_);
  return queue_.size();
}

// ---------------------------------------------------------------------------
// PollingBackend

PollingBackend::PollingBackend(MPlugin* plugin, Compute compute)
    : plugin_(plugin), compute_(std::move(compute)) {}

PollingBackend::~PollingBackend() { Stop(); }

void PollingBackend::Start() {
  if (running_) return;
  running_ = true;
  plugin_->SetWorkNotifier([this] { Drain(); });
}

void PollingBackend::Stop() {
  if (!running_) return;
  running_ = false;
  plugin_->SetWorkNotifier(nullptr);
}

std::uint64_t PollingBackend::processed() const {
  util::MutexLock lock(mu_);
  return processed_;
}

void PollingBackend::Drain() {
  util::MutexLock lock(mu_);
  while (auto proposal = plugin_->PollRequest()) {
    auto outcome = compute_(*proposal);
    const util::Status posted =
        plugin_->PostResult(proposal->transaction_id, std::move(outcome));
    if (!posted.ok()) {
      NEES_LOG_WARN("plugins.backend")
          << "late notify dropped: " << posted.ToString();
    }
    ++processed_;
  }
}

// ---------------------------------------------------------------------------
// VirtualPollingBackend

VirtualPollingBackend::VirtualPollingBackend(net::Network* network,
                                             net::RpcClient* rpc,
                                             std::string plugin_endpoint,
                                             Compute compute,
                                             std::int64_t heartbeat_micros)
    : network_(network),
      rpc_(rpc),
      plugin_id_(plugin_endpoint),
      compute_(std::move(compute)),
      heartbeat_micros_(heartbeat_micros) {}

VirtualPollingBackend::~VirtualPollingBackend() { Stop(); }

void VirtualPollingBackend::BindWakeRpc(net::RpcServer& server) {
  std::shared_ptr<bool> running = running_;
  server.RegisterOneWay(
      "mplugin.wake",
      [this, running](const net::CallContext&, const net::Bytes&) {
        if (!*running) return;
        ++wakes_;
        // Activity: the next fallback firing should come promptly again.
        heartbeat_interval_ = heartbeat_micros_;
        Drain();
      });
}

void VirtualPollingBackend::Start() {
  if (*running_) return;
  *running_ = true;
  heartbeat_interval_ = heartbeat_micros_;
  ArmHeartbeat();
}

void VirtualPollingBackend::Stop() { *running_ = false; }

void VirtualPollingBackend::ArmHeartbeat() {
  std::shared_ptr<bool> running = running_;
  network_->ScheduleAfter(heartbeat_interval_, [this, running] {
    if (!*running) return;
    ++heartbeats_;
    const std::uint64_t before = processed_;
    Drain();
    // Adaptive backoff: idle firings double the interval up to 8x base;
    // any firing that found work snaps back to the base interval.
    if (processed_ == before) {
      heartbeat_interval_ =
          std::min<std::int64_t>(heartbeat_interval_ * 2,
                                 heartbeat_micros_ * 8);
    } else {
      heartbeat_interval_ = heartbeat_micros_;
    }
    ArmHeartbeat();
  });
}

void VirtualPollingBackend::Drain() {
  if (draining_) {
    // A wake delivered while a poll cycle's RPCs were pumping the loop:
    // remember it so the outer drain re-checks the queue instead of
    // dropping the signal on the floor.
    rewake_ = true;
    return;
  }
  draining_ = true;
  do {
    rewake_ = false;
    for (;;) {
      auto worked = PollOnce();
      if (!worked.ok()) {
        NEES_LOG_WARN("plugins.backend")
            << "virtual poll cycle failed: " << worked.status().ToString();
        break;
      }
      if (!*worked) break;
      ++processed_;
    }
  } while (rewake_ && *running_);
  draining_ = false;
}

util::Result<bool> VirtualPollingBackend::PollOnce() {
  // Both request bodies are encoded into body_, which the RPC layer copies
  // into its envelope; the response frames go back to the pool once
  // decoded. A steady-state cycle allocates no frame of its own.
  util::ByteWriter poll_writer(std::move(body_));
  poll_writer.WriteI64(0);  // max_wait: kept on the wire, ignored
  util::Result<net::Bytes> polled =
      rpc_->Call(plugin_id_, PollMethod(), poll_writer.data());
  body_ = poll_writer.Take();
  NEES_RETURN_IF_ERROR(polled.status());
  net::Bytes response = *std::move(polled);
  util::ByteReader reader(response);
  util::Result<bool> has_work = reader.ReadBool();
  util::Status decoded;
  if (has_work.ok() && *has_work) {
    decoded = ntcp::DecodeProposalInto(reader, proposal_);
  }
  util::ReleaseFrame(std::move(response));
  NEES_RETURN_IF_ERROR(has_work.status());
  if (!*has_work) return false;
  NEES_RETURN_IF_ERROR(decoded);

  auto outcome = compute_(proposal_);
  util::ByteWriter notify_writer(std::move(body_));
  notify_writer.WriteString(proposal_.transaction_id);
  notify_writer.WriteBool(outcome.ok());
  if (outcome.ok()) {
    ntcp::EncodeTransactionResult(*outcome, notify_writer);
  } else {
    notify_writer.WriteString(outcome.status().ToString());
  }
  util::Result<net::Bytes> notified =
      rpc_->Call(plugin_id_, NotifyMethod(), notify_writer.data());
  body_ = notify_writer.Take();
  NEES_RETURN_IF_ERROR(notified.status());
  util::ReleaseFrame(std::move(notified.value()));
  return true;
}

PollingBackend::Compute MakeSimulationCompute(
    std::shared_ptr<std::map<
        std::string, std::unique_ptr<structural::SubstructureModel>>>
        models) {
  return [models](const ntcp::Proposal& proposal)
             -> util::Result<ntcp::TransactionResult> {
    ntcp::TransactionResult result;
    for (const auto& action : proposal.actions) {
      auto it = models->find(action.control_point);
      if (it == models->end()) {
        return util::NotFound("unknown control point: " +
                              action.control_point);
      }
      NEES_ASSIGN_OR_RETURN(structural::Vector force,
                            it->second->Restore(action.target_displacement));
      ntcp::ControlPointResult cp;
      cp.control_point = action.control_point;
      cp.measured_displacement = action.target_displacement;
      cp.measured_force = force;
      result.results.push_back(std::move(cp));
    }
    return result;
  };
}

}  // namespace nees::plugins
