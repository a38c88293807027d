#include "obs/intern.h"

#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <unordered_map>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nees::obs {
namespace {

constexpr std::uint32_t kChunkBits = 10;
constexpr std::uint32_t kChunkSize = 1u << kChunkBits;  // names per chunk
constexpr std::uint32_t kMaxChunks = 4096;              // 4M names

}  // namespace

// Names live in fixed-size chunks that never move, and a chunk is published
// before the size that covers it, so Lookup reads without the lock. Writers
// serialize on the mutex, a leaf lock class: nothing else is acquired
// while it is held.
struct InternTable::Impl {
  mutable util::Mutex mu{"obs.InternTable"};
  std::unordered_map<std::string_view, std::uint32_t> index
      NEES_GUARDED_BY(mu);
  std::size_t bytes NEES_GUARDED_BY(mu) = 0;
  std::atomic<std::uint32_t> size{0};
  std::atomic<std::string*> chunks[kMaxChunks] = {};
};

InternTable::InternTable() : impl_(new Impl()) {}

InternTable& InternTable::Instance() {
  static InternTable* table = new InternTable();  // leaked: views are eternal
  return *table;
}

std::uint32_t InternTable::Intern(std::string_view name) {
  if (name.empty()) return 0;
  util::MutexLock lock(impl_->mu);
  auto it = impl_->index.find(name);
  if (it != impl_->index.end()) return it->second;
  const std::uint32_t slot = impl_->size.load(std::memory_order_relaxed);
  const std::uint32_t chunk = slot >> kChunkBits;
  if (chunk >= kMaxChunks) {
    std::fprintf(stderr, "obs::InternTable: more than %u names interned\n",
                 kMaxChunks * kChunkSize);
    std::abort();
  }
  std::string* names = impl_->chunks[chunk].load(std::memory_order_relaxed);
  if (names == nullptr) {
    names = new std::string[kChunkSize];  // leaked with the table
    impl_->chunks[chunk].store(names, std::memory_order_release);
  }
  std::string& stored = names[slot & (kChunkSize - 1)];
  stored.assign(name);
  impl_->bytes += name.size();
  const std::uint32_t id = slot + 1;
  impl_->index.emplace(std::string_view(stored), id);
  impl_->size.store(id, std::memory_order_release);
  return id;
}

std::string_view InternTable::Lookup(std::uint32_t id) const {
  if (id == 0 || id > impl_->size.load(std::memory_order_acquire)) return {};
  const std::uint32_t slot = id - 1;
  const std::string* names =
      impl_->chunks[slot >> kChunkBits].load(std::memory_order_acquire);
  return names[slot & (kChunkSize - 1)];
}

bool InternTable::Known(std::uint32_t id) const {
  return id <= impl_->size.load(std::memory_order_acquire);
}

std::size_t InternTable::size() const {
  return impl_->size.load(std::memory_order_acquire);
}

std::size_t InternTable::interned_bytes() const {
  util::MutexLock lock(impl_->mu);
  return impl_->bytes;
}

void InternTable::PublishGauges(MetricsRegistry& metrics) const {
  std::size_t count = 0;
  std::size_t bytes = 0;
  {
    util::MutexLock lock(impl_->mu);
    count = impl_->size.load(std::memory_order_relaxed);
    bytes = impl_->bytes;
  }
  // Gauges are set outside the table lock: obs.InternTable is a leaf
  // class, and the metrics registry takes its own mutex.
  metrics.SetGauge("net.endpoints.interned", static_cast<double>(count));
  metrics.SetGauge("net.endpoints.interned_bytes", static_cast<double>(bytes));
}

std::ostream& operator<<(std::ostream& os, Atom atom) {
  return os << atom.str();
}

}  // namespace nees::obs
