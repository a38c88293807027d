// Time sources. The experiment stack is written against the Clock interface
// so tests and latency benches run against a manually-advanced SimClock
// (deterministic, fast; a kVirtual network's modeled timeline) while the
// examples run against the wall clock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace nees::util {

/// Monotonic microsecond time source.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Microseconds since an arbitrary epoch; monotonic non-decreasing.
  virtual std::int64_t NowMicros() const = 0;
  /// Sleeps (really or virtually) for the given duration.
  virtual void SleepMicros(std::int64_t micros) = 0;
};

/// Real wall/monotonic clock.
class SystemClock final : public Clock {
 public:
  static SystemClock& Instance();
  std::int64_t NowMicros() const override;
  void SleepMicros(std::int64_t micros) override;
};

/// Manually advanced virtual clock. SleepMicros advances time immediately;
/// there is no real waiting, which keeps fault-schedule tests instantaneous.
///
/// Lock-free: a kVirtual network reads its timeline several times per
/// event (tracer timestamps, NTCP state stamps, RPC deadlines, the event
/// loop itself), so a read is one acquire load. kImmediate tests share one
/// SimClock across threads; writes are release stores / read-modify-writes,
/// so a reader that sees a time also sees everything its writer did first.
class SimClock final : public Clock {
 public:
  explicit SimClock(std::int64_t start_micros = 0) : now_(start_micros) {}

  std::int64_t NowMicros() const override {
    return now_.load(std::memory_order_acquire);
  }

  void SleepMicros(std::int64_t micros) override { Advance(micros); }

  void Advance(std::int64_t micros) {
    now_.fetch_add(micros, std::memory_order_acq_rel);
  }

  void SetMicros(std::int64_t micros) {
    now_.store(micros, std::memory_order_release);
  }

  /// Moves time forward to `micros`; never backward (a CAS max), so two
  /// racing advances leave the later of the two times.
  void AdvanceTo(std::int64_t micros) {
    std::int64_t current = now_.load(std::memory_order_relaxed);
    while (current < micros &&
           !now_.compare_exchange_weak(current, micros,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<std::int64_t> now_;
};

/// A clock that reads `base` plus a settable offset — a site whose NTP
/// discipline slipped. The fuzzer's kClockSkew fault class jumps a site's
/// offset forward mid-run; offsets only ever grow, so the skewed clock
/// stays monotonic and every per-server timestamp comparison (proposal
/// expiry, token lifetimes) remains internally consistent while drifting
/// relative to the rest of the grid. Sleeps delegate to the base clock:
/// skew changes what time a site *reports*, not how fast time passes.
/// Lock-free like SimClock: the offset is one atomic.
class SkewedClock final : public Clock {
 public:
  explicit SkewedClock(Clock* base, std::int64_t offset_micros = 0)
      : base_(base), offset_micros_(offset_micros) {}

  std::int64_t NowMicros() const override {
    return base_->NowMicros() + offset_micros();
  }
  void SleepMicros(std::int64_t micros) override {
    base_->SleepMicros(micros);
  }

  std::int64_t offset_micros() const {
    return offset_micros_.load(std::memory_order_acquire);
  }
  /// Jumps the reported time forward. Negative deltas are clamped to zero:
  /// a backward step would break the monotonicity contract.
  void AdvanceOffset(std::int64_t delta_micros) {
    if (delta_micros > 0) {
      offset_micros_.fetch_add(delta_micros, std::memory_order_acq_rel);
    }
  }

 private:
  Clock* base_;
  std::atomic<std::int64_t> offset_micros_;
};

/// Wall-clock stopwatch for benches and run reports.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }
  void Restart() { start_ = std::chrono::steady_clock::now(); }
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  std::int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace nees::util
