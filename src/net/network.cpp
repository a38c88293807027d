#include "net/network.h"

#include <algorithm>
#include <limits>

#include "check/invariant.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace nees::net {

namespace {

// Propagation plus bandwidth term: the rng-free part of a link's delay.
std::int64_t BaseDelayMicros(const LinkModel& model, std::size_t wire_bytes) {
  std::int64_t delay = model.latency_micros;
  if (model.bytes_per_second > 0.0) {
    delay += static_cast<std::int64_t>(
        static_cast<double>(wire_bytes) / model.bytes_per_second * 1e6);
  }
  return delay;
}

}  // namespace

std::int64_t TransmissionDelayMicros(const LinkModel& model,
                                     std::size_t wire_bytes,
                                     nees::util::Rng& rng) {
  std::int64_t delay = BaseDelayMicros(model, wire_bytes);
  if (model.jitter_micros > 0) {
    delay += rng.UniformInt(-static_cast<int>(model.jitter_micros),
                            static_cast<int>(model.jitter_micros));
  }
  return std::max<std::int64_t>(delay, 0);
}

Network::Network(DeliveryMode mode, std::uint64_t fault_seed)
    : mode_(mode),
      clock_(&util::SystemClock::Instance()),
      rng_(fault_seed),
      schedule_rng_(fault_seed ^ 0x5C4D3E2F1A0B9C8DULL) {
  if (mode_ == DeliveryMode::kVirtual) {
    owned_virtual_clock_ = std::make_unique<util::SimClock>();
    virtual_clock_ = owned_virtual_clock_.get();
    clock_ = &pump_clock_;
  }
}

util::Status Network::RegisterEndpoint(EndpointId name, Handler handler) {
  Shard& shard = ShardFor(name);
  util::MutexLock lock(shard.mu);
  if (shard.endpoints.Find(name.raw()) != nullptr) {
    return util::AlreadyExists("endpoint already registered: " + name.str());
  }
  shard.endpoints[name.raw()] = std::make_shared<Handler>(std::move(handler));
  return util::OkStatus();
}

void Network::UnregisterEndpoint(EndpointId name) {
  // Reclaim the endpoint's default-materialized links, so a host that
  // keeps registering and unregistering endpoints (farm waves, fuzz
  // seeds, swarm clients) holds links only for live endpoints and
  // configured faults. Links into the endpoint live in its own shard,
  // links out of it in their destinations' shards: visit each in turn.
  const std::uint32_t id = name.raw();
  for (Shard& shard : shards_) {
    util::MutexLock lock(shard.mu);
    if (&shard == &ShardFor(name)) shard.endpoints.Erase(id);
    KeySet* own = shard.materialized.Find(id);
    if (own == nullptr) continue;
    const KeySet keys = std::move(*own);
    shard.materialized.Erase(id);
    keys.ForEach([&](std::uint64_t key, const bool&) {
      const auto from = static_cast<std::uint32_t>(key >> 32);
      const auto to = static_cast<std::uint32_t>(key);
      const std::uint32_t peer = from == id ? to : from;
      if (KeySet* other = shard.materialized.Find(peer)) {
        other->Erase(key);
        if (other->empty()) shard.materialized.Erase(peer);
      }
      const LinkState* link = shard.links.Find(key);
      if (link != nullptr && !link->configured) shard.links.Erase(key);
    });
  }
}

void Network::SetEndpointCrashed(EndpointId name, bool crashed) {
  util::MutexLock lock(mu_);
  if (crashed) {
    crashed_endpoints_[name.raw()] = true;
  } else {
    crashed_endpoints_.Erase(name.raw());
  }
  any_crashed_.store(!crashed_endpoints_.empty(), std::memory_order_release);
}

bool Network::IsCrashed(EndpointId name) const {
  util::MutexLock lock(mu_);
  return crashed_endpoints_.Find(name.raw()) != nullptr;
}

bool Network::HasEndpoint(EndpointId name) const {
  const Shard& shard = ShardFor(name);
  util::MutexLock lock(shard.mu);
  return shard.endpoints.Find(name.raw()) != nullptr;
}

Network::LinkState& Network::LinkFor(Shard& shard, EndpointId from,
                                     EndpointId to) {
  const std::uint64_t key = LinkKey(from, to);
  if (LinkState* link = shard.links.Find(key)) return *link;
  // Materialize a link with the default model so metrics accumulate.
  shard.materialized[from.raw()][key] = true;
  shard.materialized[to.raw()][key] = true;
  LinkState& link = shard.links[key];
  link.model = shard.default_link;
  return link;
}

template <typename Fn>
void Network::ConfigureLink(EndpointId from, EndpointId to, Fn&& fn) {
  Shard& shard = ShardFor(to);
  util::MutexLock lock(shard.mu);
  LinkState& link = LinkFor(shard, from, to);
  link.configured = true;
  fn(link);
}

void Network::Count(Shard& shard, LinkState& link,
                    std::uint64_t LinkMetrics::*counter) {
  ++(link.metrics.*counter);
  ++(shard.total.*counter);
}

bool Network::InPartition(EndpointId from, EndpointId to) const {
  if (!partitioned_.load(std::memory_order_relaxed)) return false;
  const bool from_a =
      std::find(partition_a_.begin(), partition_a_.end(), from) !=
      partition_a_.end();
  const bool from_b =
      std::find(partition_b_.begin(), partition_b_.end(), from) !=
      partition_b_.end();
  const bool to_a = std::find(partition_a_.begin(), partition_a_.end(), to) !=
                    partition_a_.end();
  const bool to_b = std::find(partition_b_.begin(), partition_b_.end(), to) !=
                    partition_b_.end();
  return (from_a && to_b) || (from_b && to_a);
}

bool Network::ShouldDrop(Shard& shard, LinkState& link,
                         std::int64_t now_micros) {
  if (!link.up) {
    Count(shard, link, &LinkMetrics::dropped_forced);
    return true;
  }
  if (link.drop_next > 0) {
    --link.drop_next;
    Count(shard, link, &LinkMetrics::dropped_forced);
    return true;
  }
  for (const OutageWindow& window : link.outages) {
    if (now_micros >= window.start_micros && now_micros < window.end_micros) {
      Count(shard, link, &LinkMetrics::dropped_outage);
      return true;
    }
  }
  return false;
}

bool Network::RandomDrop(Shard& shard, LinkState& link) {
  if (link.model.drop_probability > 0.0 &&
      rng_.Bernoulli(link.model.drop_probability)) {
    Count(shard, link, &LinkMetrics::dropped_random);
    return true;
  }
  return false;
}

util::Status Network::Send(Message message) {
  std::shared_ptr<Handler> handler;
  std::int64_t delay = 0;
  bool dropped = false;
  bool deferred = false;  // kVirtual: delivery accounting happens at arrival
  // Ids survive the kVirtual enqueue move (they are 4-byte values, and the
  // interned names they point at live for the process lifetime).
  const EndpointId from = message.from;
  const EndpointId to = message.to;
  Shard& shard = ShardFor(to);
  {
    util::MutexLock lock(shard.mu);
    if (any_crashed_.load(std::memory_order_acquire) && IsCrashed(from)) {
      // The sender's process is dead; its zombie stack frames write to the
      // void. Report acceptance — a crashed process cannot observe errors.
      LinkState& dead_link = LinkFor(shard, from, to);
      Count(shard, dead_link, &LinkMetrics::sent);
      Count(shard, dead_link, &LinkMetrics::dropped_forced);
      return util::OkStatus();
    }
    std::shared_ptr<Handler>* slot = shard.endpoints.Find(to.raw());
    if (slot == nullptr) {
      return util::NotFound("no such endpoint: " + to.str());
    }
    handler = *slot;

    // LinkFor may materialize an entry; take the reference after that
    // insert and do no further link inserts while it is live.
    LinkState& link = LinkFor(shard, from, to);
    Count(shard, link, &LinkMetrics::sent);

    // Only outage windows and the kVirtual enqueue read the clock; a
    // kImmediate send on an outage-free link skips the clock_gettime.
    const bool is_virtual = mode_ == DeliveryMode::kVirtual;
    const std::int64_t now =
        is_virtual || !link.outages.empty() ? clock_->NowMicros() : 0;
    if (is_virtual || partitioned_.load(std::memory_order_acquire) ||
        link.model.drop_probability > 0.0 || link.model.jitter_micros > 0) {
      // Fault-rng draws, partitions and the virtual queue: the leaf lock.
      // The draw order (random drop, jitter, schedule tie) is the one
      // every fuzz seed's fault schedule was recorded under.
      util::MutexLock leaf(mu_);
      if (InPartition(from, to)) {
        Count(shard, link, &LinkMetrics::dropped_forced);
        dropped = true;  // silently lost, like a real partition
      } else if (ShouldDrop(shard, link, now) || RandomDrop(shard, link)) {
        dropped = true;  // silently lost
      } else {
        delay = TransmissionDelayMicros(link.model, message.WireSize(), rng_);
        if (is_virtual) {
          // Enqueue only; DeliverVirtual() re-checks faults and counts the
          // delivery at the arrival timestamp. The seeded tie decides the
          // order of events due at the same microsecond.
          pending_.push(ScheduledMessage{now + delay, schedule_rng_.NextU64(),
                                         next_sequence_++, delay,
                                         std::move(message)});
          deferred = true;
        }
      }
    } else if (ShouldDrop(shard, link, now)) {
      dropped = true;  // silently lost
    } else {
      delay = std::max<std::int64_t>(
          BaseDelayMicros(link.model, message.WireSize()), 0);
    }
    if (!dropped && !deferred) {
      Count(shard, link, &LinkMetrics::delivered);
      link.metrics.bytes_delivered += message.WireSize();
      shard.total.bytes_delivered += message.WireSize();
    }
  }
  if (dropped) {
    if (tracer_ != nullptr) tracer_->metrics().Increment("net.dropped");
    return util::OkStatus();
  }
  if (deferred) return util::OkStatus();
  // Tracing happens outside the locks (the tracer lock is a leaf). The
  // transfer event charges the modeled link delay, which advances a modeled
  // SimClock before an inline handler observes the arrival time.
  if (tracer_ != nullptr) {
    tracer_->RecordDelivery(from.atom(), to.atom(), delay);
    tracer_->metrics().Observe("net.delay_micros",
                               static_cast<double>(delay));
  }
  // Immediate mode: run the handler inline, outside the lock so handlers
  // can send further messages without deadlocking. The message is moved:
  // delivery is the end of its life on the wire.
  (*handler)(std::move(message));
  return util::OkStatus();
}

// --- virtual-time event loop -----------------------------------------------

std::int64_t Network::PumpClock::NowMicros() const {
  return network_->virtual_clock_->NowMicros();
}

void Network::PumpClock::SleepMicros(std::int64_t micros) {
  // A virtual "sleep" delivers everything due in the window, in order, so
  // a backoff timer or completion wait observes the world it would have
  // observed on a real network — just reproducibly.
  network_->AdvanceTo(network_->virtual_clock_->NowMicros() +
                      std::max<std::int64_t>(micros, 0));
}

void Network::AdvanceVirtualClockTo(std::int64_t micros) {
  if (virtual_clock_ != nullptr) virtual_clock_->AdvanceTo(micros);
}

void Network::PushTimerLocked(std::int64_t due, TimerFn&& fn) {
  std::uint32_t slot;
  if (free_timer_slots_.empty()) {
    slot = static_cast<std::uint32_t>(timer_slots_.size());
    timer_slots_.push_back(std::move(fn));
  } else {
    slot = free_timer_slots_.back();
    free_timer_slots_.pop_back();
    timer_slots_[slot] = std::move(fn);
  }
  timers_.push(ScheduledTimer{due, schedule_rng_.NextU64(), next_sequence_++,
                              slot});
}

void Network::ScheduleAt(std::int64_t due_micros, TimerFn fn) {
  NEES_CHECK_INVARIANT(mode_ == DeliveryMode::kVirtual,
                       "timers require DeliveryMode::kVirtual");
  util::MutexLock lock(mu_);
  PushTimerLocked(std::max(due_micros, virtual_clock_->NowMicros()),
                  std::move(fn));
}

void Network::ScheduleAfter(std::int64_t delay_micros, TimerFn fn) {
  NEES_CHECK_INVARIANT(mode_ == DeliveryMode::kVirtual,
                       "timers require DeliveryMode::kVirtual");
  util::MutexLock lock(mu_);
  PushTimerLocked(
      virtual_clock_->NowMicros() + std::max<std::int64_t>(delay_micros, 0),
      std::move(fn));
}

bool Network::PumpOne(std::int64_t limit_micros, bool advance_on_idle) {
  if (mode_ != DeliveryMode::kVirtual) return false;
  Message message;
  TimerFn fn;
  std::int64_t delay = 0;
  enum class Pick { kNone, kMessage, kTimer };
  Pick pick = Pick::kNone;
  {
    util::MutexLock lock(mu_);
    const bool have_message = !pending_.empty();
    const bool have_timer = !timers_.empty();
    if (have_message && have_timer) {
      // Merge the two queues by the shared (due, tie, sequence) key.
      const ScheduledMessage& m = pending_.top();
      const ScheduledTimer& t = timers_.top();
      const bool timer_first =
          t.due_micros != m.due_micros ? t.due_micros < m.due_micros
          : t.tie != m.tie             ? t.tie < m.tie
                                       : t.sequence < m.sequence;
      pick = timer_first ? Pick::kTimer : Pick::kMessage;
    } else if (have_message) {
      pick = Pick::kMessage;
    } else if (have_timer) {
      pick = Pick::kTimer;
    }
    if (pick == Pick::kMessage && pending_.top().due_micros <= limit_micros) {
      AdvanceVirtualClockTo(pending_.top().due_micros);
      message =
          std::move(const_cast<ScheduledMessage&>(pending_.top()).message);
      delay = pending_.top().delay_micros;
      pending_.pop();
    } else if (pick == Pick::kTimer &&
               timers_.top().due_micros <= limit_micros) {
      AdvanceVirtualClockTo(timers_.top().due_micros);
      const std::uint32_t slot = timers_.top().slot;
      fn = std::move(timer_slots_[slot]);
      free_timer_slots_.push_back(slot);
      timers_.pop();
      ++virtual_stats_.timers_fired;
    } else {
      pick = Pick::kNone;
    }
  }
  switch (pick) {
    case Pick::kMessage:
      DeliverVirtual(std::move(message), delay);
      return true;
    case Pick::kTimer:
      fn();
      return true;
    case Pick::kNone:
      if (advance_on_idle) AdvanceVirtualClockTo(limit_micros);
      return false;
  }
  return false;
}

bool Network::CorruptInFlight(Shard& shard, LinkState& link,
                              Message& message) {
  --link.corrupt_next;
  Count(shard, link, &LinkMetrics::corrupted);
  // Round-trip the message through the canonical wire format and damage the
  // byte stream, exactly as a flaky WAN hop would: flip 1–3 bytes, or chop
  // the tail off. Decisions come from the fault rng so the mutation is a
  // pure function of the fault seed.
  util::ByteWriter writer;
  message.EncodeTo(writer);
  std::vector<std::uint8_t> frame = writer.Take();
  if (rng_.Bernoulli(0.25)) {
    frame.resize(rng_.UniformU64(frame.size()));
  } else {
    const int flips = rng_.UniformInt(1, 3);
    for (int i = 0; i < flips; ++i) {
      const std::size_t at = rng_.UniformU64(frame.size());
      frame[at] ^= static_cast<std::uint8_t>(rng_.UniformInt(1, 255));
    }
  }
  util::ByteReader reader(frame);
  util::Result<Message> mutant = Message::Decode(reader);
  if (!mutant.ok()) {
    Count(shard, link, &LinkMetrics::dropped_corrupt);
    return true;  // damage detected -> lost in flight
  }
  message = std::move(mutant).value();
  return false;  // slipped through the integrity check -> deliver the mutant
}

void Network::DeliverVirtual(Message message, std::int64_t delay_micros) {
  std::shared_ptr<Handler> handler;
  bool dropped = false;
  const EndpointId from = message.from;
  const EndpointId to = message.to;
  Shard& shard = ShardFor(to);
  {
    util::MutexLock lock(shard.mu);
    util::MutexLock leaf(mu_);
    const std::int64_t now = virtual_clock_->NowMicros();
    LinkState& link = LinkFor(shard, from, to);
    // Arrival-time fault checks: the world may have changed while the
    // message was in flight. Outage ends are exclusive, so an arrival
    // exactly at end_micros gets through.
    if (InPartition(from, to) || !link.up) {
      Count(shard, link, &LinkMetrics::dropped_forced);
      dropped = true;
    } else {
      for (const OutageWindow& window : link.outages) {
        if (now >= window.start_micros && now < window.end_micros) {
          Count(shard, link, &LinkMetrics::dropped_outage);
          dropped = true;
          break;
        }
      }
    }
    if (!dropped) {
      std::shared_ptr<Handler>* slot = shard.endpoints.Find(to.raw());
      if (slot == nullptr) {
        // Endpoint unregistered in flight: lost, like a connection reset.
        Count(shard, link, &LinkMetrics::dropped_forced);
        dropped = true;
      } else if (link.corrupt_next > 0 &&
                 CorruptInFlight(shard, link, message)) {
        // Mutation detected at the Decode gate: the frame is wire damage,
        // lost exactly like a drop (the retry ladder recovers it).
        dropped = true;
      } else {
        handler = *slot;
        Count(shard, link, &LinkMetrics::delivered);
        link.metrics.bytes_delivered += message.WireSize();
        shard.total.bytes_delivered += message.WireSize();
        ++virtual_stats_.messages_delivered;
      }
    }
    if (dropped) ++virtual_stats_.messages_dropped_in_flight;
  }
  if (dropped) {
    if (tracer_ != nullptr) tracer_->metrics().Increment("net.dropped");
    return;
  }
  if (tracer_ != nullptr) {
    tracer_->RecordDelivery(from.atom(), to.atom(), delay_micros);
    tracer_->metrics().Observe("net.delay_micros",
                               static_cast<double>(delay_micros));
  }
  (*handler)(std::move(message));
}

bool Network::PumpOneUntil(std::int64_t limit_micros) {
  return PumpOne(limit_micros, /*advance_on_idle=*/true);
}

std::size_t Network::AdvanceTo(std::int64_t micros) {
  std::size_t count = 0;
  while (PumpOne(micros, /*advance_on_idle=*/false)) ++count;
  AdvanceVirtualClockTo(micros);
  return count;
}

std::size_t Network::RunUntilQuiescent(std::size_t max_events) {
  std::size_t count = 0;
  while (count < max_events &&
         PumpOne(std::numeric_limits<std::int64_t>::max(),
                 /*advance_on_idle=*/false)) {
    ++count;
  }
  if (count >= max_events) {
    NEES_LOG_ERROR("net.network")
        << "RunUntilQuiescent hit the " << max_events
        << "-event backstop; a timer is likely re-arming forever";
  }
  return count;
}

Network::VirtualLoopStats Network::virtual_stats() const {
  util::MutexLock lock(mu_);
  return virtual_stats_;
}

// ---------------------------------------------------------------------------

void Network::SetLink(EndpointId from, EndpointId to, LinkModel model) {
  ConfigureLink(from, to, [&](LinkState& link) { link.model = model; });
}

void Network::SetDefaultLink(LinkModel model) {
  for (Shard& shard : shards_) {
    util::MutexLock lock(shard.mu);
    shard.default_link = model;
  }
}

void Network::SetLinkUp(EndpointId from, EndpointId to, bool up) {
  ConfigureLink(from, to, [&](LinkState& link) { link.up = up; });
}

void Network::DropNext(EndpointId from, EndpointId to, int count) {
  ConfigureLink(from, to, [&](LinkState& link) { link.drop_next += count; });
}

void Network::CorruptNext(EndpointId from, EndpointId to, int count) {
  ConfigureLink(from, to,
                [&](LinkState& link) { link.corrupt_next += count; });
}

void Network::AddOutage(EndpointId from, EndpointId to,
                        OutageWindow window) {
  ConfigureLink(from, to,
                [&](LinkState& link) { link.outages.push_back(window); });
}

void Network::AddBidirectionalOutage(EndpointId a, EndpointId b,
                                     OutageWindow window) {
  AddOutage(a, b, window);
  AddOutage(b, a, window);
}

void Network::Partition(const std::vector<std::string>& group_a,
                        const std::vector<std::string>& group_b) {
  util::MutexLock lock(mu_);
  partition_a_.assign(group_a.begin(), group_a.end());
  partition_b_.assign(group_b.begin(), group_b.end());
  partitioned_.store(true, std::memory_order_release);
}

void Network::HealPartition() {
  util::MutexLock lock(mu_);
  partitioned_.store(false, std::memory_order_release);
}

LinkMetrics Network::TotalMetrics() const {
  LinkMetrics sum;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(shard.mu);
    const LinkMetrics& part = shard.total;
    sum.sent += part.sent;
    sum.delivered += part.delivered;
    sum.dropped_random += part.dropped_random;
    sum.dropped_outage += part.dropped_outage;
    sum.dropped_forced += part.dropped_forced;
    sum.corrupted += part.corrupted;
    sum.dropped_corrupt += part.dropped_corrupt;
    sum.bytes_delivered += part.bytes_delivered;
  }
  return sum;
}

LinkMetrics Network::LinkMetricsFor(EndpointId from, EndpointId to) const {
  const Shard& shard = ShardFor(to);
  util::MutexLock lock(shard.mu);
  const LinkState* link = shard.links.Find(LinkKey(from, to));
  if (link == nullptr) return {};
  return link->metrics;
}

void Network::SetClock(util::Clock* clock) {
  util::MutexLock lock(mu_);
  if (mode_ == DeliveryMode::kVirtual) {
    // The event loop needs a manually advanced timeline; clock() keeps
    // returning the pumping facade over the injected SimClock.
    auto* sim = dynamic_cast<util::SimClock*>(clock);
    NEES_CHECK_INVARIANT(sim != nullptr,
                         "kVirtual networks require a SimClock timeline");
    if (sim != nullptr) virtual_clock_ = sim;
    return;
  }
  clock_ = clock;
}

}  // namespace nees::net
