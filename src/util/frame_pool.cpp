#include "util/frame_pool.h"

#include <atomic>
#include <utility>

namespace nees::util {

FramePool& FramePool::Instance() {
  static FramePool* pool = new FramePool();  // leaked: outlives all users
  return *pool;
}

FramePool::Shard& FramePool::LocalShard() {
  // A plain integer, not an object with a destructor: nothing runs (or
  // locks) at thread exit, after lockdep's own thread-local state is gone.
  // 0 means "not yet assigned"; assigned threads hold index + 1.
  thread_local unsigned slot = 0;
  if (slot == 0) {
    static std::atomic<unsigned> next{0};
    slot = next.fetch_add(1, std::memory_order_relaxed) % kShards + 1;
  }
  return shards_[slot - 1];
}

std::vector<std::uint8_t> FramePool::Acquire(std::size_t reserve) {
  std::vector<std::uint8_t> frame;
  {
    Shard& shard = LocalShard();
    MutexLock lock(shard.mu);
    std::vector<std::vector<std::uint8_t>>& primary =
        reserve > kSmallBytes ? shard.large : shard.small;
    if (!primary.empty()) {
      frame = std::move(primary.back());
      primary.pop_back();
      ++shard.stats.reused;
    } else if (reserve <= kSmallBytes && !shard.large.empty()) {
      // A small request is happy with a large frame; it comes back on the
      // large list when released.
      frame = std::move(shard.large.back());
      shard.large.pop_back();
      ++shard.stats.reused;
    } else {
      // A large request with only small frames available mints fresh: a
      // realloc of a small frame would cost the same allocation and lose
      // the small buffer.
      ++shard.stats.minted;
    }
  }
  if (frame.capacity() < reserve) frame.reserve(reserve);
  return frame;
}

void FramePool::Release(std::vector<std::uint8_t>&& frame) {
  if (frame.capacity() == 0) return;  // nothing worth recycling
  frame.clear();
  Shard& shard = LocalShard();
  MutexLock lock(shard.mu);
  std::vector<std::vector<std::uint8_t>>& list =
      frame.capacity() > kSmallBytes ? shard.large : shard.small;
  if (list.size() >= kMaxPooledPerShard) return;  // freed on scope exit
  ++shard.stats.returned;
  list.push_back(std::move(frame));
}

FramePool::Stats FramePool::stats() const {
  Stats total;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total.minted += shard.stats.minted;
    total.reused += shard.stats.reused;
    total.returned += shard.stats.returned;
  }
  return total;
}

}  // namespace nees::util
