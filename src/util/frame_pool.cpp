#include "util/frame_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace nees::util {
namespace {

bool BackFits(const std::vector<std::vector<std::uint8_t>>& list,
              std::size_t reserve) {
  return !list.empty() && list.back().capacity() >= reserve;
}

}  // namespace

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
    // A recycled frame serves the request only if it already has the
    // capacity: regrowing it would cost an allocation the stats would not
    // see. Small requests try the small list, then the large one; large
    // requests only the large one.
    std::vector<std::vector<std::uint8_t>>* source = nullptr;
    if (reserve <= kSmallBytes && BackFits(shard.small, reserve)) {
      source = &shard.small;
    } else if (BackFits(shard.large, reserve)) {
      source = &shard.large;
    }
    if (source != nullptr) {
      frame = std::move(source->back());
      source->pop_back();
      ++shard.stats.reused;
      return frame;
    }
    // The head frame of the request's class was too small: it is dropped
    // (freed outside the lock) instead of kept beside the fresh frame, so
    // the pool does not fill with frames no request fits.
    std::vector<std::vector<std::uint8_t>>& own_class =
        reserve <= kSmallBytes ? shard.small : shard.large;
    if (!own_class.empty()) {
      frame = std::move(own_class.back());
      own_class.pop_back();
    }
    ++shard.stats.minted;
  }
  frame = std::vector<std::uint8_t>();
  frame.reserve(std::max(reserve, kMinMintBytes));
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
