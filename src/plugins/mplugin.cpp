#include "plugins/mplugin.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/frame_pool.h"
#include "util/limit.h"
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
net::Bytes EncodePoll(const ntcp::Proposal* proposal) {
  util::ByteWriter writer(util::AcquireFrame());
  writer.WriteBool(proposal != nullptr);
  if (proposal != nullptr) ntcp::EncodeProposal(*proposal, writer);
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
      if (!util::WithinLimit(d, config_.max_abs_displacement_m)) {
        return util::PolicyViolation("target exceeds Mplugin site limit");
      }
    }
  }
  return util::OkStatus();
}

util::Result<ntcp::TransactionResult> MPlugin::Execute(
    const ntcp::Proposal& proposal) {
  // A remote backend polls from another context; remember ours so the
  // queue/compute records attach under the server.execute span.
  std::uint64_t parent_span_id = 0;
  std::int64_t enqueued_micros = 0;
  if (tracer_ != nullptr) {
    parent_span_id = tracer_->CurrentSpanId();
    enqueued_micros = tracer_->NowMicros();
  }
  Slot* slot = nullptr;
  std::shared_ptr<const std::function<void()>> notify;
  {
    util::MutexLock lock(mu_);
    for (const std::unique_ptr<Slot>& free : slots_) {
      if (free->proposal == nullptr) {
        slot = free.get();
        break;
      }
    }
    if (slot == nullptr) {
      slot = slots_.emplace_back(std::make_unique<Slot>()).get();
    }
    slot->proposal = &proposal;
    slot->queued_seq = ++enqueued_;
    slot->done = false;
    slot->status = util::OkStatus();
    slot->parent_span_id = parent_span_id;
    slot->enqueued_micros = enqueued_micros;
    slot->compute_span_id = 0;
    notify = work_notifier_;
  }
  // Outside the lock: an in-process backend polls and posts right here, and
  // a remote backend's notifier issues a network send.
  if (notify) (*notify)();
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
    while (!slot->done && !shutting_down_) {
      const std::int64_t now = clock->NowMicros();
      if (now >= give_up) break;
      if (now >= rewake_at) {
        // Still unpolled one interval on: the wake was lost, so the
        // backend is not coming. Tell it again.
        rewake_at = now + config_.rewake_micros;
        if (slot->queued_seq != 0 && work_notifier_) {
          ++rewakes_;
          std::shared_ptr<const std::function<void()>> renotify =
              work_notifier_;
          lock.Unlock();
          (*renotify)();
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
  // request still open here has no backend and fails fast. Either way
  // the slot is freed: an unclaimed request leaves the queue, and a late
  // notify finds no slot under its id.
  slot->proposal = nullptr;
  slot->queued_seq = 0;
  if (!slot->done) {
    return util::TimeoutError("backend did not service request " +
                              proposal.transaction_id);
  }
  if (!slot->status.ok()) return slot->status;
  return std::move(slot->result);
}

const ntcp::Proposal* MPlugin::PollRequest() {
  util::MutexLock lock(mu_);
  ++polls_;
  Slot* oldest = nullptr;
  for (const std::unique_ptr<Slot>& slot : slots_) {
    if (slot->queued_seq != 0 &&
        (oldest == nullptr || slot->queued_seq < oldest->queued_seq)) {
      oldest = slot.get();
    }
  }
  if (oldest == nullptr) return nullptr;
  oldest->queued_seq = 0;
  if (tracer_ != nullptr) {
    // Idle polls record nothing (their count depends on host scheduling);
    // only a successful dequeue leaves a trace.
    const std::int64_t now = tracer_->NowMicros();
    tracer_->RecordInterval(oldest->parent_span_id, kQueueSpan, kQueueCategory,
                            oldest->enqueued_micros, now,
                            {{kTxn, oldest->proposal->transaction_id}});
    tracer_->metrics().Observe(
        "mplugin.queue_micros",
        static_cast<double>(now - oldest->enqueued_micros));
    oldest->compute_span_id = tracer_->BeginSpanId(
        kComputeSpan, kSimulationCategory, oldest->parent_span_id);
  }
  return oldest->proposal;
}

MPlugin::Slot* MPlugin::FindSlotLocked(std::string_view transaction_id) {
  for (const std::unique_ptr<Slot>& slot : slots_) {
    if (slot->proposal != nullptr &&
        slot->proposal->transaction_id == transaction_id) {
      return slot.get();
    }
  }
  return nullptr;
}

void MPlugin::CompleteLocked(Slot& slot, util::Status status) {
  if (tracer_ != nullptr && slot.compute_span_id != 0) {
    tracer_->EndSpanId(slot.compute_span_id);
    slot.compute_span_id = 0;
  }
  slot.done = true;
  slot.status = std::move(status);
}

util::Status MPlugin::PostResult(
    std::string_view transaction_id,
    util::Result<ntcp::TransactionResult> outcome) {
  util::MutexLock lock(mu_);
  Slot* slot = FindSlotLocked(transaction_id);
  if (slot == nullptr) {
    return util::NotFound("no pending execution named " +
                          std::string(transaction_id));
  }
  if (!outcome.ok()) {
    CompleteLocked(*slot, outcome.status());
    return util::OkStatus();
  }
  slot->result = std::move(outcome).value();
  CompleteLocked(*slot, util::OkStatus());
  return util::OkStatus();
}

util::Status MPlugin::PostEncodedResult(std::string_view transaction_id,
                                        util::ByteReader& reader) {
  util::MutexLock lock(mu_);
  Slot* slot = FindSlotLocked(transaction_id);
  if (slot == nullptr) {
    return util::NotFound("no pending execution named " +
                          std::string(transaction_id));
  }
  NEES_RETURN_IF_ERROR(ntcp::DecodeTransactionResultInto(reader, slot->result));
  CompleteLocked(*slot, util::OkStatus());
  return util::OkStatus();
}

void MPlugin::SetWorkNotifier(std::function<void()> notifier) {
  std::shared_ptr<const std::function<void()>> shared;
  if (notifier) {
    shared = std::make_shared<const std::function<void()>>(std::move(notifier));
  }
  util::MutexLock lock(mu_);
  work_notifier_ = std::move(shared);
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
        NEES_ASSIGN_OR_RETURN(std::string_view id, reader.ReadStringView());
        NEES_ASSIGN_OR_RETURN(bool ok, reader.ReadBool());
        if (ok) {
          NEES_RETURN_IF_ERROR(PostEncodedResult(id, reader));
        } else {
          NEES_ASSIGN_OR_RETURN(std::string_view error,
                                reader.ReadStringView());
          NEES_RETURN_IF_ERROR(
              PostResult(id, util::Internal(std::string(error))));
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
  return std::count_if(
      slots_.begin(), slots_.end(),
      [](const std::unique_ptr<Slot>& slot) { return slot->queued_seq != 0; });
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
  while (const ntcp::Proposal* proposal = plugin_->PollRequest()) {
    util::Status computed = compute_(*proposal, result_);
    const util::Status posted =
        computed.ok()
            ? plugin_->PostResult(proposal->transaction_id, std::move(result_))
            : plugin_->PostResult(proposal->transaction_id,
                                  std::move(computed));
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
  const util::Status computed = compute_(proposal_, result_);
  util::ByteWriter notify_writer(std::move(body_));
  notify_writer.WriteString(proposal_.transaction_id);
  notify_writer.WriteBool(computed.ok());
  if (computed.ok()) {
    ntcp::EncodeTransactionResult(result_, notify_writer);
  } else {
    notify_writer.WriteString(computed.ToString());
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
  return [models](const ntcp::Proposal& proposal,
                  ntcp::TransactionResult& out) -> util::Status {
    out.results.resize(proposal.actions.size());
    for (std::size_t i = 0; i < proposal.actions.size(); ++i) {
      const ntcp::ControlPointRequest& action = proposal.actions[i];
      auto it = models->find(action.control_point);
      if (it == models->end()) {
        return util::NotFound("unknown control point: " +
                              action.control_point);
      }
      ntcp::ControlPointResult& cp = out.results[i];
      NEES_RETURN_IF_ERROR(
          it->second->Restore(action.target_displacement, cp.measured_force));
      cp.control_point = action.control_point;
      cp.measured_displacement = action.target_displacement;
    }
    return util::OkStatus();
  };
}

}  // namespace nees::plugins
