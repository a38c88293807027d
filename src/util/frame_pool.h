// Process-wide recycling pool for wire-frame buffers. The message hot path
// (RPC envelope -> network payload -> NTCP body) encodes into
// std::vector<std::uint8_t> frames; without pooling every request/response
// pair mints several fresh heap buffers per transaction. AcquireFrame hands
// back a previously released buffer with its capacity intact (knowdy-style
// reusable fixed buffers), so a steady-state propose/execute step mints
// zero new frames — the property E13's frames_per_step counter gates on.
//
// The pool is striped: kShards cache-line-aligned shards, each with its own
// lock and freelists. A thread takes a shard once, round-robin, and both
// acquires from and releases to it, so farm workers (whose kImmediate
// handlers run inline, acquire and release on one thread) no longer
// serialize on one process-wide mutex. Every shard lock is lock class
// util.FramePool, a leaf in the lock-order graph: nothing is acquired while
// holding one, and no two are ever held together, so it is safe to call
// from any layer.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/mutex.h"

namespace nees::util {

class FramePool {
 public:
  struct Stats {
    std::uint64_t minted = 0;    // no recycled frame fit: new buffer allocated
    std::uint64_t reused = 0;    // freelist hit
    std::uint64_t returned = 0;  // buffers handed back
  };

  static FramePool& Instance();

  /// Returns an empty buffer with at least `reserve` bytes of capacity: a
  /// recycled frame that already has the capacity, or else a freshly
  /// minted one (never a recycled frame regrown, so `minted` counts every
  /// frame allocation the pool makes). A too-small frame at the head of
  /// the request's size class is freed when a fresh one is minted.
  std::vector<std::uint8_t> Acquire(std::size_t reserve = 0);

  /// Hands a buffer back to the calling thread's shard. Contents are
  /// discarded; capacity is kept. Buffers beyond the shard's freelist cap
  /// are simply freed.
  void Release(std::vector<std::uint8_t>&& frame);

  /// Sum over every shard; exact once no other thread is using the pool.
  Stats stats() const;

 private:
  FramePool() = default;

  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kMaxPooled = 4096;  // summed over shards
  static constexpr std::size_t kMaxPooledPerShard = kMaxPooled / kShards;
  /// Buffers at or below this capacity go on the small freelist. Keeping
  /// two size classes stops a large request (a multi-KB payload) from
  /// repeatedly regrowing a recycled small buffer: a request that finds no
  /// recycled frame with the capacity mints fresh instead, and after
  /// warm-up each class recycles within itself.
  static constexpr std::size_t kSmallBytes = 512;
  /// Capacity of a frame minted for a request without a size hint: enough
  /// for a typical control message, so its writer does not regrow it.
  static constexpr std::size_t kMinMintBytes = 64;

  struct alignas(64) Shard {
    mutable Mutex mu{"util.FramePool"};
    std::vector<std::vector<std::uint8_t>> small NEES_GUARDED_BY(mu);
    std::vector<std::vector<std::uint8_t>> large NEES_GUARDED_BY(mu);
    Stats stats NEES_GUARDED_BY(mu);
  };

  /// The calling thread's shard, assigned round-robin on first use.
  Shard& LocalShard();

  std::array<Shard, kShards> shards_;
};

/// Shorthands for the process-wide pool.
inline std::vector<std::uint8_t> AcquireFrame(std::size_t reserve = 0) {
  return FramePool::Instance().Acquire(reserve);
}
inline void ReleaseFrame(std::vector<std::uint8_t>&& frame) {
  FramePool::Instance().Release(std::move(frame));
}

}  // namespace nees::util
