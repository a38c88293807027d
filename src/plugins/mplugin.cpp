#include "plugins/mplugin.h"

#include <algorithm>
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

// The {has_work, Proposal} answer of both mplugin.poll and mplugin.notify.
net::Bytes EncodePoll(const std::optional<ntcp::Proposal>& proposal) {
  util::ByteWriter writer(util::AcquireFrame());
  writer.WriteBool(proposal.has_value());
  if (proposal) ntcp::EncodeProposal(*proposal, writer);
  return writer.Take();
}

}  // namespace

MPlugin::MPlugin(Config config) : config_(config) {}

MPlugin::~MPlugin() { Shutdown(); }

void MPlugin::Shutdown() {
  util::MutexLock lock(mu_);
  shutting_down_ = true;
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
    if (virtual_net_ != nullptr) {
      // Virtual time: drive the event loop. Each pump runs outside mu_ (it
      // delivers the wake, the backend's poll, the compute, and the notify
      // — possibly recursively) until PostResult marks us done or the
      // timeout's virtual deadline passes.
      util::Clock* clock = virtual_net_->clock();
      const std::int64_t give_up =
          clock->NowMicros() + config_.execute_timeout_micros;
      std::int64_t rewake_at = config_.rewake_micros > 0
                                   ? clock->NowMicros() + config_.rewake_micros
                                   : give_up;
      while (!pending->done && !shutting_down_) {
        const std::int64_t now = clock->NowMicros();
        if (now >= give_up) break;
        if (now >= rewake_at) {
          // Still unpolled one interval on: the wake was lost, so the
          // backend is not coming. Tell it again.
          rewake_at = now + config_.rewake_micros;
          const bool unpolled = std::any_of(
              queue_.begin(), queue_.end(), [&](const ntcp::Proposal& q) {
                return q.transaction_id == proposal.transaction_id;
              });
          if (unpolled && work_notifier_) {
            ++rewakes_;
            std::function<void()> renotify = work_notifier_;
            lock.Unlock();
            renotify();
            lock.Lock();
          }
          continue;
        }
        lock.Unlock();
        virtual_net_->PumpOneUntil(std::min(give_up, rewake_at));
        lock.Lock();
      }
    }
    // Outside kVirtual there is nothing to wait for: the inline
    // PollingBackend posted the result before notify() returned, so a
    // request still open here has no backend and fails fast.
    pending_.erase(proposal.transaction_id);
    if (!pending->done) {
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
        return EncodePoll(PollRequest());
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
        return EncodePoll(PollRequest());
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

std::uint64_t MPlugin::rewakes() const {
  util::MutexLock lock(mu_);
  return rewakes_;
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

VirtualPollingBackend::VirtualPollingBackend(net::RpcClient* rpc,
                                             std::string plugin_endpoint,
                                             Compute compute)
    : rpc_(rpc),
      plugin_id_(plugin_endpoint),
      compute_(std::move(compute)) {}

VirtualPollingBackend::~VirtualPollingBackend() { Stop(); }

void VirtualPollingBackend::BindWakeRpc(net::RpcServer& server) {
  std::shared_ptr<bool> running = running_;
  server.RegisterOneWay(
      "mplugin.wake",
      [this, running](const net::CallContext&, const net::Bytes&) {
        if (!*running) return;
        ++wakes_;
        Drain();
      });
}

void VirtualPollingBackend::Start() { *running_ = true; }

void VirtualPollingBackend::Stop() { *running_ = false; }

void VirtualPollingBackend::Drain() {
  if (draining_) {
    // A wake delivered while a cycle's RPCs were pumping the loop: remember
    // it so the outer drain polls again instead of dropping the signal on
    // the floor (the notify hand-off may already have served its request).
    rewake_ = true;
    return;
  }
  draining_ = true;
  do {
    rewake_ = false;
    // One poll; after that every notify answers with the next request, so
    // the drain ends on the notify that finds the queue empty.
    util::ByteWriter poll_writer(std::move(body_));
    poll_writer.WriteI64(0);  // max_wait: kept on the wire, ignored
    util::Result<net::Bytes> polled =
        rpc_->Call(plugin_id_, PollMethod(), poll_writer.data());
    body_ = poll_writer.Take();
    util::Result<bool> worked = TakeWork(std::move(polled));
    while (worked.ok() && *worked) {
      worked = ComputeAndNotify();
      if (worked.ok()) ++processed_;
    }
    if (!worked.ok()) {
      NEES_LOG_WARN("plugins.backend")
          << "virtual poll cycle failed: " << worked.status().ToString();
    }
  } while (rewake_ && *running_);
  draining_ = false;
}

util::Result<bool> VirtualPollingBackend::TakeWork(
    util::Result<net::Bytes> response) {
  // The response frame goes back to the pool once decoded; a steady-state
  // cycle allocates no frame of its own.
  NEES_RETURN_IF_ERROR(response.status());
  net::Bytes frame = *std::move(response);
  util::ByteReader reader(frame);
  util::Result<bool> has_work = reader.ReadBool();
  util::Status decoded;
  if (has_work.ok() && *has_work) {
    decoded = ntcp::DecodeProposalInto(reader, proposal_);
  }
  util::ReleaseFrame(std::move(frame));
  NEES_RETURN_IF_ERROR(has_work.status());
  NEES_RETURN_IF_ERROR(decoded);
  return *has_work;
}

util::Result<bool> VirtualPollingBackend::ComputeAndNotify() {
  // The request body is encoded into body_, which the RPC layer copies
  // into its envelope.
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
  return TakeWork(std::move(notified));
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
