// In-process simulated network connecting the experiment sites.
//
// Endpoints register a handler under a globally unique name ("ntcp.uiuc",
// "repo.ncsa", ...). Messages are routed through per-directed-link models
// that add latency and inject faults. Two delivery modes:
//
//  * kImmediate  — the handler runs inline on the sender's thread; latency
//                  is recorded in metrics but not slept. Deterministic;
//                  used by unit tests, the examples and the farm.
//  * kVirtual    — deterministic discrete-event simulation. Messages and
//                  timers land in one seeded priority queue ordered by
//                  simulated arrival time on an owned SimClock, with seeded
//                  tie-breaking between simultaneous events, and a
//                  single-threaded event loop (PumpOneUntil / AdvanceTo /
//                  RunUntilQuiescent) drains them in one totally ordered,
//                  reproducible schedule per fault seed. Blocking layers
//                  (RPC waits, backoff sleeps, plugin waits) pump this loop
//                  instead of parking on condition variables, so an entire
//                  MOST-shaped run replays bit-identically from its seed.
//                  Used by the nees_fuzz harness and by every latency
//                  bench: overlapped round trips (RpcClient::CallAsync +
//                  WaitAnyUntil) are measured exactly, in modeled time.
//
// Fault API: per-link drop probability, time-window outages, manual
// up/down, and DropNext(n) for deterministic single-message faults. In
// kVirtual mode, outages, link up/down, and partitions are re-checked at
// the *arrival* time too: a message sent before an outage opens but due
// inside it is lost in flight, as on a real network.
//
// Locking: routing and link state are sharded by destination endpoint.
// kShards cache-line-aligned shards, picked by `to.raw() % kShards`, each
// hold their own lock ("net.Network.shard"), the handlers registered
// under the ids they own, every link x -> to whose destination they own,
// the materialized-key sets for those links, a copy of the default link
// model, and their share of the TotalMetrics() counters. Send and
// DeliverVirtual lock only the destination's shard, so farm tenants
// sending on disjoint endpoints share no lock per message. One leaf lock
// ("net.Network") guards the rest: the fault rng (random drop, jitter,
// in-flight corruption), crash marks and partitions, and the kVirtual
// queues, sequence counter and loop stats. It is taken under a shard,
// never the other way round, and shards never nest. A kImmediate send
// takes the leaf only when it needs it: an endpoint is marked crashed, a
// partition is up, or the link has a drop probability or jitter.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "net/endpoint.h"
#include "net/link.h"
#include "net/message.h"
#include "util/clock.h"
#include "util/inline_function.h"
#include "util/mutex.h"
#include "util/open_hash.h"
#include "util/result.h"
#include "util/rng.h"

namespace nees::obs {
class Tracer;
}  // namespace nees::obs

namespace nees::net {

enum class DeliveryMode { kImmediate, kVirtual };

class Network {
 public:
  /// Handlers receive the message by value: delivery is the end of the
  /// message's life on the wire, so the payload can be moved (not copied)
  /// into the protocol layer. Lambdas taking `const Message&` still bind.
  using Handler = std::function<void(Message)>;
  /// A virtual-time timer callback. Stored inline, so scheduling and
  /// re-arming a timer never allocates; a capture larger than the inline
  /// capacity does not compile.
  using TimerFn = util::InlineFunction<void(), 48>;

  explicit Network(DeliveryMode mode = DeliveryMode::kImmediate,
                   std::uint64_t fault_seed = 42);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers an endpoint; fails if the name is taken. Names are interned
  /// (EndpointId converts implicitly from strings); routing afterwards is
  /// by 4-byte id through open-addressed tables.
  util::Status RegisterEndpoint(EndpointId name, Handler handler);
  /// Removes the endpoint and the links that only ever carried its traffic
  /// (default-model entries materialized by Send). Links set up through the
  /// configuration or fault-injection calls below survive, so a restarted
  /// process re-registering under the same name meets the same faults.
  /// TotalMetrics() keeps counting the erased links' traffic.
  void UnregisterEndpoint(EndpointId name);
  bool HasEndpoint(EndpointId name) const;

  /// Sends a message through the (from -> to) link. Returns Ok if the
  /// message was *accepted* (it may still be dropped in flight; senders
  /// learn about loss only through timeouts, as on a real network).
  /// kNotFound if the destination endpoint does not exist.
  util::Status Send(Message message);

  // --- link configuration -------------------------------------------------
  /// Sets the model for the directed link from -> to.
  void SetLink(EndpointId from, EndpointId to, LinkModel model);
  /// Sets the default model for links with no specific entry.
  void SetDefaultLink(LinkModel model);

  // --- fault injection ----------------------------------------------------
  /// Marks the directed link up/down. Down links drop every message.
  void SetLinkUp(EndpointId from, EndpointId to, bool up);
  /// Makes the next `count` messages on the directed link vanish. Counted
  /// at send time in every mode (a deterministic "the next send is lost").
  void DropNext(EndpointId from, EndpointId to, int count);
  /// Mutates the next `count` messages on the directed link in flight
  /// (kVirtual only): the frame is re-encoded through the canonical wire
  /// format, 1–3 bytes are flipped (or the frame is truncated) using the
  /// network's seeded fault rng, and the mutant is re-decoded at arrival.
  /// A mutant the Decode gate rejects is counted dropped_corrupt and lost
  /// — indistinguishable from a drop, which is the contract the frame CRC
  /// exists to provide; one that still parses is delivered as-is to the
  /// handler, modelling corruption that slips past the integrity check.
  void CorruptNext(EndpointId from, EndpointId to, int count);
  /// Adds a dead window in clock time (see SetClock) on the directed link.
  /// The end is exclusive: a message arriving exactly at end_micros gets
  /// through. kVirtual checks windows at both send and arrival time.
  void AddOutage(EndpointId from, EndpointId to, OutageWindow window);
  /// Adds a bidirectional outage between two endpoints.
  void AddBidirectionalOutage(EndpointId a, EndpointId b,
                              OutageWindow window);

  /// Drops ALL traffic between two endpoint groups (symmetric partition)
  /// until HealPartition is called.
  void Partition(const std::vector<std::string>& group_a,
                 const std::vector<std::string>& group_b);
  void HealPartition();

  /// Marks `name` as belonging to a crashed process: every Send *from* it
  /// is silently swallowed (counted as dropped_forced). A dead process's
  /// zombie stack frames — e.g. a handler that was mid-call when the crash
  /// timer fired — observe sends that appear accepted but go nowhere, which
  /// is exactly what a killed process's last instructions amount to.
  /// Messages already in flight TO the endpoint still deliver (packets
  /// survive their sender); they drop only if the endpoint unregistered.
  /// Clear on revival, before the new incarnation re-registers.
  void SetEndpointCrashed(EndpointId name, bool crashed);

  // --- metrics / time -----------------------------------------------------
  LinkMetrics TotalMetrics() const;
  LinkMetrics LinkMetricsFor(EndpointId from, EndpointId to) const;

  /// Clock used for outage windows and latency accounting. Defaults to the
  /// system clock; tests inject a SimClock. In kVirtual mode the injected
  /// clock must be a SimClock (it becomes the event loop's timeline) and
  /// clock() keeps returning the pumping facade described below.
  void SetClock(util::Clock* clock);

  /// The clock protocol layers should use. In kImmediate this is whatever
  /// SetClock installed. In kVirtual it is a pumping facade:
  /// NowMicros() reads the virtual timeline and SleepMicros(d) runs
  /// AdvanceTo(now + d), so a "sleeping" caller (retry backoff, completion
  /// wait) delivers every event due in the window, in order, before waking.
  util::Clock* clock() const { return clock_; }

  /// The raw simulated timeline (kVirtual only; never null there, null in
  /// the other modes). Prefer clock() unless a test needs to assert on or
  /// pre-position the timeline without pumping.
  util::SimClock* virtual_clock() const { return virtual_clock_; }

  /// Optional: records a "network" transfer event (with the modeled link
  /// delay) for every delivered message, and drop/delivery counters. In
  /// kVirtual mode the event is recorded at *arrival* time.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  DeliveryMode mode() const { return mode_; }

  // --- virtual-time event loop (kVirtual only) ----------------------------
  /// Schedules `fn` on the event loop at absolute virtual time `due_micros`
  /// (clamped to now). Timers share the message queue's total order — the
  /// key is (due, seeded tie, sequence) — so a retry timer and a response
  /// due at the same microsecond fire in a seed-dependent but reproducible
  /// order. Timers run outside the network lock and may send, schedule,
  /// and pump recursively.
  void ScheduleAt(std::int64_t due_micros, TimerFn fn);
  /// Schedules `fn` after `delay_micros` of virtual time from now.
  void ScheduleAfter(std::int64_t delay_micros, TimerFn fn);

  /// Delivers the single earliest pending event (message or timer) if it is
  /// due at or before `limit_micros`, advancing the virtual clock to its
  /// due time first, and returns true. Otherwise advances the clock to
  /// `limit_micros` and returns false. Re-entrant: a handler may pump
  /// (nested pumps can advance time past an outer pump's limit; the clock
  /// never moves backwards). No-op (false) outside kVirtual.
  bool PumpOneUntil(std::int64_t limit_micros);

  /// Delivers everything due at or before `micros` in order, then advances
  /// the clock to exactly `micros`. Returns the number of events processed.
  std::size_t AdvanceTo(std::int64_t micros);

  /// Drains every pending event in virtual-time order until both queues are
  /// empty (self-rescheduling timers must therefore disarm themselves) or
  /// `max_events` fire. Returns the number of events processed.
  std::size_t RunUntilQuiescent(std::size_t max_events = 100'000'000);

  struct VirtualLoopStats {
    std::uint64_t messages_delivered = 0;
    std::uint64_t messages_dropped_in_flight = 0;
    std::uint64_t timers_fired = 0;
    std::uint64_t events() const {
      return messages_delivered + messages_dropped_in_flight + timers_fired;
    }
  };
  VirtualLoopStats virtual_stats() const;

 private:
  struct LinkState {
    LinkModel model;
    /// False for entries LinkFor materialized with the default model; set
    /// by every call that configures the link or injects a fault on it.
    /// UnregisterEndpoint erases only unconfigured links.
    bool configured = false;
    bool up = true;
    int drop_next = 0;
    int corrupt_next = 0;
    std::vector<OutageWindow> outages;
    LinkMetrics metrics;
  };

  struct ScheduledMessage {
    std::int64_t due_micros;
    std::uint64_t tie;       // seeded tiebreak between simultaneous events
    std::uint64_t sequence;  // FIFO tiebreak of last resort
    std::int64_t delay_micros;  // modeled link delay, for arrival tracing
    Message message;
    bool operator>(const ScheduledMessage& other) const {
      if (due_micros != other.due_micros) return due_micros > other.due_micros;
      if (tie != other.tie) return tie > other.tie;
      return sequence > other.sequence;
    }
  };

  /// A timer's queue key. The callable stays in timer_slots_[slot], so a
  /// heap sift moves these 32 bytes and never the callable.
  struct ScheduledTimer {
    std::int64_t due_micros;
    std::uint64_t tie;
    std::uint64_t sequence;  // shared counter with messages: globally unique
    std::uint32_t slot;
    bool operator>(const ScheduledTimer& other) const {
      if (due_micros != other.due_micros) return due_micros > other.due_micros;
      if (tie != other.tie) return tie > other.tie;
      return sequence > other.sequence;
    }
  };

  /// kVirtual clock() facade: NowMicros reads the virtual timeline,
  /// SleepMicros pumps the event loop across the sleep window.
  class PumpClock final : public util::Clock {
   public:
    explicit PumpClock(Network* network) : network_(network) {}
    std::int64_t NowMicros() const override;
    void SleepMicros(std::int64_t micros) override;

   private:
    Network* network_;
  };

  /// Per-shard routing and link state; see the header comment. alignas
  /// keeps two shards' locks off one cache line.
  static constexpr std::size_t kShards = 16;
  /// Per endpoint id, the keys of the shard's default-materialized links
  /// touching it, so UnregisterEndpoint reclaims in time proportional to
  /// the endpoint's own links. A link's two ends are both recorded in the
  /// link's (destination's) shard. Unregistering either end drops the key
  /// from both sets, and the link with it unless it has since been
  /// configured.
  using KeySet = util::OpenHashMap<std::uint64_t, bool>;
  struct alignas(64) Shard {
    mutable util::Mutex mu{"net.Network.shard"};
    // Open-addressed, keyed by interned id (endpoints) and the packed
    // directed-pair key (links). Per-network tables, so the many
    // short-lived networks a fuzz sweep creates stay small regardless of
    // how many names the process-wide intern table accumulates.
    util::OpenHashMap<std::uint32_t, std::shared_ptr<Handler>> endpoints
        NEES_GUARDED_BY(mu);
    util::OpenHashMap<std::uint64_t, LinkState> links NEES_GUARDED_BY(mu);
    util::OpenHashMap<std::uint32_t, KeySet> materialized NEES_GUARDED_BY(mu);
    LinkModel default_link NEES_GUARDED_BY(mu);
    LinkMetrics total NEES_GUARDED_BY(mu);
  };

  Shard& ShardFor(EndpointId to) { return shards_[to.raw() % kShards]; }
  const Shard& ShardFor(EndpointId to) const {
    return shards_[to.raw() % kShards];
  }

  /// Directed links are keyed (from << 32 | to) over interned ids. LinkFor
  /// probes the exact key, then materializes a default entry. The
  /// reference is valid only until the next insert into or erase from the
  /// shard's link table.
  static std::uint64_t LinkKey(EndpointId from, EndpointId to) {
    return (static_cast<std::uint64_t>(from.raw()) << 32) | to.raw();
  }
  static LinkState& LinkFor(Shard& shard, EndpointId from, EndpointId to)
      NEES_REQUIRES(shard.mu);
  /// The configuration and fault-injection calls: locks the link's shard,
  /// marks the link configured and applies `fn` to it.
  template <typename Fn>
  void ConfigureLink(EndpointId from, EndpointId to, Fn&& fn);
  /// Bumps one counter on the link and on the shard's total.
  static void Count(Shard& shard, LinkState& link,
                    std::uint64_t LinkMetrics::*counter)
      NEES_REQUIRES(shard.mu);
  /// The rng-free send-time faults: link down, DropNext credits, outage
  /// windows. Counts the drop and returns true when the message is lost.
  static bool ShouldDrop(Shard& shard, LinkState& link,
                         std::int64_t now_micros) NEES_REQUIRES(shard.mu);
  /// The random-drop trial, one fault-rng draw when the link has a drop
  /// probability.
  bool RandomDrop(Shard& shard, LinkState& link)
      NEES_REQUIRES(shard.mu, mu_);
  /// Consumes one corrupt_next credit and mutates `message` through an
  /// encode → damage → decode round trip. Returns true when the Decode gate
  /// rejected the damage (the message is lost); false when the mutant
  /// parsed and `message` now holds it.
  bool CorruptInFlight(Shard& shard, LinkState& link, Message& message)
      NEES_REQUIRES(shard.mu, mu_);
  bool InPartition(EndpointId from, EndpointId to) const NEES_REQUIRES(mu_);
  /// Crash mark lookup; takes the leaf lock (callers gate on any_crashed_).
  bool IsCrashed(EndpointId name) const NEES_EXCLUDES(mu_);
  /// Core virtual-time step; `advance_on_idle` distinguishes PumpOneUntil
  /// (clock jumps to the limit when nothing is due) from AdvanceTo /
  /// RunUntilQuiescent internals (which advance separately or not at all).
  bool PumpOne(std::int64_t limit_micros, bool advance_on_idle);
  /// Moves the virtual clock forward to `micros` with one SimClock::AdvanceTo;
  /// never backwards (nested pumps may already have advanced past an outer
  /// pump's limit).
  void AdvanceVirtualClockTo(std::int64_t micros);
  /// Queues `fn` at `due` under a fresh tie and sequence.
  void PushTimerLocked(std::int64_t due, TimerFn&& fn) NEES_REQUIRES(mu_);
  /// Arrival-time half of kVirtual delivery: re-checks partition, link
  /// up/down, and outage windows at the arrival timestamp, then counts
  /// delivery and runs the handler.
  void DeliverVirtual(Message message, std::int64_t delay_micros);

  const DeliveryMode mode_;
  // Installed before traffic starts (SetClock/SetTracer are setup-time);
  // the hot paths read both with no lock held, so neither is guarded.
  util::Clock* clock_;
  obs::Tracer* tracer_ = nullptr;
  std::array<Shard, kShards> shards_;

  // The leaf lock and what it guards (see the header comment).
  mutable util::Mutex mu_{"net.Network"};
  util::Rng rng_ NEES_GUARDED_BY(mu_);
  std::vector<EndpointId> partition_a_ NEES_GUARDED_BY(mu_),
      partition_b_ NEES_GUARDED_BY(mu_);
  util::OpenHashMap<std::uint32_t, bool> crashed_endpoints_
      NEES_GUARDED_BY(mu_);
  // Written under mu_; read without it on the send path, so a kImmediate
  // send skips the leaf lock while no endpoint is crashed and no partition
  // is up.
  std::atomic<bool> partitioned_{false};
  std::atomic<bool> any_crashed_{false};

  // kVirtual machinery: in-flight messages and timers. The schedule rng is
  // a dedicated stream (NOT rng_, whose draw sequence the fault model owns)
  // so tie-breaking explores different interleavings per seed without
  // perturbing drop decisions.
  std::unique_ptr<util::SimClock> owned_virtual_clock_;
  util::SimClock* virtual_clock_ = nullptr;
  PumpClock pump_clock_{this};
  util::Rng schedule_rng_ NEES_GUARDED_BY(mu_);
  std::priority_queue<ScheduledMessage, std::vector<ScheduledMessage>,
                      std::greater<>>
      pending_ NEES_GUARDED_BY(mu_);
  std::uint64_t next_sequence_ NEES_GUARDED_BY(mu_) = 0;
  std::priority_queue<ScheduledTimer, std::vector<ScheduledTimer>,
                      std::greater<>>
      timers_ NEES_GUARDED_BY(mu_);
  // The queued timers' callables: a slab whose slots never move (a deque
  // grows without relocating), recycled through free_timer_slots_.
  std::deque<TimerFn> timer_slots_ NEES_GUARDED_BY(mu_);
  std::vector<std::uint32_t> free_timer_slots_ NEES_GUARDED_BY(mu_);
  VirtualLoopStats virtual_stats_ NEES_GUARDED_BY(mu_);
};

}  // namespace nees::net
