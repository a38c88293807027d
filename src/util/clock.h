// Time sources. The experiment stack is written against the Clock interface
// so tests and latency benches run against a manually-advanced SimClock
// (deterministic, fast; a kVirtual network's modeled timeline) while the
// examples run against the wall clock.
#pragma once

#include <chrono>
#include <cstdint>

#include "util/mutex.h"

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
class SimClock final : public Clock {
 public:
  explicit SimClock(std::int64_t start_micros = 0) : now_(start_micros) {}

  std::int64_t NowMicros() const override {
    MutexLock lock(mu_);
    return now_;
  }

  void SleepMicros(std::int64_t micros) override { Advance(micros); }

  void Advance(std::int64_t micros) {
    MutexLock lock(mu_);
    now_ += micros;
  }

  void SetMicros(std::int64_t micros) {
    MutexLock lock(mu_);
    now_ = micros;
  }

 private:
  mutable Mutex mu_{"util.SimClock"};
  std::int64_t now_ NEES_GUARDED_BY(mu_);
};

/// A clock that reads `base` plus a settable offset — a site whose NTP
/// discipline slipped. The fuzzer's kClockSkew fault class jumps a site's
/// offset forward mid-run; offsets only ever grow, so the skewed clock
/// stays monotonic and every per-server timestamp comparison (proposal
/// expiry, token lifetimes) remains internally consistent while drifting
/// relative to the rest of the grid. Sleeps delegate to the base clock:
/// skew changes what time a site *reports*, not how fast time passes.
class SkewedClock final : public Clock {
 public:
  explicit SkewedClock(Clock* base, std::int64_t offset_micros = 0)
      : base_(base), offset_micros_(offset_micros) {}

  std::int64_t NowMicros() const override {
    MutexLock lock(mu_);
    return base_->NowMicros() + offset_micros_;
  }
  void SleepMicros(std::int64_t micros) override {
    base_->SleepMicros(micros);
  }

  std::int64_t offset_micros() const {
    MutexLock lock(mu_);
    return offset_micros_;
  }
  /// Jumps the reported time forward. Negative deltas are clamped to zero:
  /// a backward step would break the monotonicity contract.
  void AdvanceOffset(std::int64_t delta_micros) {
    MutexLock lock(mu_);
    if (delta_micros > 0) offset_micros_ += delta_micros;
  }

 private:
  Clock* base_;
  mutable Mutex mu_{"util.SkewedClock"};
  std::int64_t offset_micros_ NEES_GUARDED_BY(mu_);
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
