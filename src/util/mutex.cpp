#include "util/mutex.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <unordered_set>
#include <utility>

namespace nees::util {
namespace lockdep {

// The checker's own state is guarded by a raw std::mutex (never a
// util::Mutex — instrumenting the instrumentation would recurse), and all
// reporting uses fprintf, not util::Logger (whose sink lock is itself a
// tracked util::Mutex).
namespace {

struct HeldLock {
  const LockClass* cls;
  const void* mu;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, LockClass*> classes;  // interned, never freed
  std::vector<const LockClass*> by_id;
  // Directed lock-order edges between class ids. `allowlisted` edges stay
  // in the dump but are invisible to cycle detection.
  struct Edge {
    bool allowlisted = false;
  };
  std::map<std::pair<int, int>, Edge> edges;
  std::vector<std::vector<int>> adjacency;  // non-allowlisted edges only
  std::vector<Violation> violations;
  std::set<std::string> reported;   // dedup keys
  std::set<std::string> allowlist;  // "wait:A", "rpc:A", "order:A:B"
  std::atomic<std::uint64_t> epoch{1};
};

Registry& Global() {
  static Registry* registry = new Registry();  // immortal: outlives statics
  return *registry;
}

struct ThreadState {
  std::uint64_t epoch = 0;
  std::vector<HeldLock> held;
  // Per-thread cache of already-recorded (from, to) class edges, so the
  // steady state never touches the global registry lock.
  std::unordered_set<std::uint64_t> edge_cache;
  // Acquisitions by class id (ThreadAcquisitions); survives epoch bumps.
  std::vector<std::uint64_t> acquisitions;
};

ThreadState& Thread() {
  thread_local ThreadState state;
  Registry& registry = Global();
  const std::uint64_t epoch = registry.epoch.load(std::memory_order_acquire);
  if (state.epoch != epoch) {
    state.epoch = epoch;
    state.edge_cache.clear();
  }
  return state;
}

std::uint64_t EdgeKey(int from, int to) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
         static_cast<std::uint32_t>(to);
}

// registry.mu held. Records the violation once and prints it to stderr.
void ReportLocked(Registry& registry, Violation::Kind kind,
                  const std::string& dedup_key,
                  const std::string& description) {
  if (!registry.reported.insert(dedup_key).second) return;
  registry.violations.push_back(Violation{kind, description});
  std::fprintf(stderr, "nees-lockdep: %s\n", description.c_str());
}

// registry.mu held. Finds a path to_id -> ... -> from_id over the
// non-allowlisted adjacency, proving the new from->to edge closes a cycle.
// Returns the class-id path starting at to_id, or empty if none.
std::vector<int> FindPathLocked(const Registry& registry, int start,
                                int goal) {
  std::vector<int> parent(registry.adjacency.size(), -1);
  std::vector<int> stack{start};
  std::vector<bool> seen(registry.adjacency.size(), false);
  seen[static_cast<std::size_t>(start)] = true;
  while (!stack.empty()) {
    const int node = stack.back();
    stack.pop_back();
    if (node == goal) {
      std::vector<int> path;
      for (int walk = goal; walk != -1; walk = parent[static_cast<std::size_t>(walk)]) {
        path.push_back(walk);
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
    for (int next : registry.adjacency[static_cast<std::size_t>(node)]) {
      if (seen[static_cast<std::size_t>(next)]) continue;
      seen[static_cast<std::size_t>(next)] = true;
      parent[static_cast<std::size_t>(next)] = node;
      stack.push_back(next);
    }
  }
  return {};
}

// Records held->acquiring edges and flags inversions. Called before the
// underlying mutex blocks, so a *potential* deadlock is reported even if
// this particular schedule would have squeaked through.
void RecordAcquireEdges(const LockClass* acquiring) {
  ThreadState& state = Thread();
  if (state.held.empty()) return;
  Registry& registry = Global();
  for (const HeldLock& held : state.held) {
    const std::uint64_t key = EdgeKey(held.cls->id, acquiring->id);
    if (state.edge_cache.contains(key)) continue;
    std::lock_guard<std::mutex> lock(registry.mu);
    state.edge_cache.insert(key);
    if (held.cls == acquiring) {
      if (!registry.allowlist.contains("order:" + held.cls->name + ":" +
                                       acquiring->name)) {
        ReportLocked(registry, Violation::Kind::kOrder,
                     "order-self:" + held.cls->name,
                     "same-class nesting: acquiring a second \"" +
                         acquiring->name + "\" lock while one is held");
      }
      continue;
    }
    auto [it, inserted] =
        registry.edges.try_emplace({held.cls->id, acquiring->id});
    if (!inserted) continue;  // another thread cached it first
    it->second.allowlisted = registry.allowlist.contains(
        "order:" + held.cls->name + ":" + acquiring->name);
    if (it->second.allowlisted) continue;
    const std::size_t need =
        static_cast<std::size_t>(
            std::max(held.cls->id, acquiring->id)) + 1;
    if (registry.adjacency.size() < need) registry.adjacency.resize(need);
    // Cycle check BEFORE inserting: any existing path acquiring->...->held
    // plus this edge is an inversion.
    const std::vector<int> path =
        FindPathLocked(registry, acquiring->id, held.cls->id);
    registry.adjacency[static_cast<std::size_t>(held.cls->id)].push_back(
        acquiring->id);
    if (!path.empty()) {
      std::string chain = held.cls->name + " -> " + acquiring->name;
      std::string back;
      for (int id : path) {
        if (!back.empty()) back += " -> ";
        back += registry.by_id[static_cast<std::size_t>(id)]->name;
      }
      ReportLocked(
          registry, Violation::Kind::kOrder,
          "order:" + held.cls->name + ":" + acquiring->name,
          "lock-order inversion: this thread acquires " + chain +
              " but the graph already holds " + back +
              " (potential deadlock)");
    }
  }
}

void PushHeld(const LockClass* cls, const void* mu) {
  ThreadState& state = Thread();
  state.held.push_back(HeldLock{cls, mu});
  const auto id = static_cast<std::size_t>(cls->id);
  if (state.acquisitions.size() <= id) state.acquisitions.resize(id + 1);
  ++state.acquisitions[id];
}

void PopHeld(const void* mu) {
  std::vector<HeldLock>& held = Thread().held;
  // Non-LIFO releases are legal (lock juggling); search from the top.
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (it->mu == mu) {
      held.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace

const LockClass* RegisterClass(const char* name) {
  Registry& registry = Global();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.classes.find(name);
  if (it != registry.classes.end()) return it->second;
  auto* cls = new LockClass{name, static_cast<int>(registry.by_id.size())};
  registry.classes.emplace(cls->name, cls);
  registry.by_id.push_back(cls);
  return cls;
}

std::vector<Violation> Violations() {
  Registry& registry = Global();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.violations;
}

std::size_t ViolationCount() {
  Registry& registry = Global();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.violations.size();
}

void Reset() {
  Registry& registry = Global();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.edges.clear();
  registry.adjacency.clear();
  registry.violations.clear();
  registry.reported.clear();
  registry.epoch.fetch_add(1, std::memory_order_acq_rel);
}

bool AllowRule(const std::string& line) {
  std::istringstream in(line);
  std::string kind;
  in >> kind;
  if (kind.empty() || kind[0] == '#') return true;  // blank / comment
  Registry& registry = Global();
  if (kind == "wait" || kind == "rpc") {
    std::string cls;
    in >> cls;
    if (cls.empty()) return false;
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.allowlist.insert(kind + ":" + cls);
    return true;
  }
  if (kind == "order") {
    std::string a, b;
    in >> a >> b;
    if (a.empty() || b.empty()) return false;
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.allowlist.insert("order:" + a + ":" + b);
    return true;
  }
  return false;
}

bool LoadAllowlistFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  bool ok = true;
  while (std::getline(in, line)) ok = AllowRule(line) && ok;
  return ok;
}

void ClearAllowlist() {
  Registry& registry = Global();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.allowlist.clear();
  // Allowlist decisions are baked into recorded edges; drop the caches so
  // the next acquisition re-evaluates.
  registry.epoch.fetch_add(1, std::memory_order_acq_rel);
}

void CheckBlockingCall(const char* what) {
#ifdef NEES_LOCKDEP
  ThreadState& state = Thread();
  if (state.held.empty()) return;
  Registry& registry = Global();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const HeldLock& held : state.held) {
    if (registry.allowlist.contains("rpc:" + held.cls->name)) continue;
    ReportLocked(registry, Violation::Kind::kBlockingCallWhileHolding,
                 std::string("rpc:") + what + ":" + held.cls->name,
                 std::string(what) + " invoked while holding \"" +
                     held.cls->name +
                     "\" (blocking RPC under a lock; see docs/ANALYSIS.md)");
  }
#else
  (void)what;
#endif
}

std::vector<std::string> HeldLockNames() {
  std::vector<std::string> names;
#ifdef NEES_LOCKDEP
  for (const HeldLock& held : Thread().held) names.push_back(held.cls->name);
#endif
  return names;
}

void DumpGraph(std::ostream& out) {
  Registry& registry = Global();
  std::lock_guard<std::mutex> lock(registry.mu);
  out << "lock classes: " << registry.by_id.size()
      << ", order edges: " << registry.edges.size()
      << ", violations: " << registry.violations.size() << "\n";
  for (const LockClass* cls : registry.by_id) {
    out << "  class " << cls->id << ": " << cls->name << "\n";
  }
  for (const auto& [key, edge] : registry.edges) {
    out << "  " << registry.by_id[static_cast<std::size_t>(key.first)]->name
        << " -> "
        << registry.by_id[static_cast<std::size_t>(key.second)]->name
        << (edge.allowlisted ? "  [allowlisted]" : "") << "\n";
  }
  for (const Violation& violation : registry.violations) {
    out << "  VIOLATION: " << violation.description << "\n";
  }
}

std::size_t EdgeCount() {
  Registry& registry = Global();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.edges.size();
}

std::size_t ClassCount() {
  Registry& registry = Global();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.by_id.size();
}

std::vector<std::uint64_t> ThreadAcquisitions() {
#ifdef NEES_LOCKDEP
  return Thread().acquisitions;
#else
  return {};
#endif
}

void DumpAcquisitions(std::ostream& out,
                      const std::vector<std::uint64_t>& counts,
                      double divisor) {
  std::vector<std::pair<std::uint64_t, std::string>> rows;
  std::uint64_t total = 0;
  {
    Registry& registry = Global();
    std::lock_guard<std::mutex> lock(registry.mu);
    for (std::size_t id = 0; id < counts.size(); ++id) {
      if (counts[id] == 0 || id >= registry.by_id.size()) continue;
      rows.emplace_back(counts[id], registry.by_id[id]->name);
      total += counts[id];
    }
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  char line[128];
  for (const auto& [count, name] : rows) {
    std::snprintf(line, sizeof(line), "  %-28s %12.2f\n", name.c_str(),
                  static_cast<double>(count) / divisor);
    out << line;
  }
  std::snprintf(line, sizeof(line), "  %-28s %12.2f\n", "total",
                static_cast<double>(total) / divisor);
  out << line;
}

namespace internal {

// Hooks used by Mutex/CondVar below; separated so the fast path (no other
// locks held) stays a couple of thread-local reads.
void BeforeBlockingAcquire(const LockClass* cls) { RecordAcquireEdges(cls); }
void OnAcquired(const LockClass* cls, const void* mu) { PushHeld(cls, mu); }
void OnReleased(const void* mu) { PopHeld(mu); }

void OnCondVarWait(const LockClass* cls, const void* mu) {
  ThreadState& state = Thread();
  if (state.held.size() > 1) {
    Registry& registry = Global();
    std::lock_guard<std::mutex> lock(registry.mu);
    for (const HeldLock& held : state.held) {
      if (held.mu == mu) continue;
      if (registry.allowlist.contains("wait:" + held.cls->name)) continue;
      ReportLocked(registry, Violation::Kind::kWaitWhileHolding,
                   "wait:" + held.cls->name + ":" + cls->name,
                   "condvar wait on \"" + cls->name +
                       "\" while holding \"" + held.cls->name +
                       "\" (stalls every waiter of the held lock)");
    }
  }
  // The wait releases `mu` inside the std primitive; mirror that in the
  // held stack so locks taken by *other* code this thread runs while
  // blocked... (it cannot run code while blocked, but the reacquire below
  // must re-record edges as a fresh blocking acquisition).
  PopHeld(mu);
}

void OnCondVarResume(const LockClass* cls, const void* mu) {
  RecordAcquireEdges(cls);
  PushHeld(cls, mu);
}

}  // namespace internal
}  // namespace lockdep

void Mutex::Lock() {
#ifdef NEES_LOCKDEP
  lockdep::internal::BeforeBlockingAcquire(class_);
#endif
  mu_.lock();
#ifdef NEES_LOCKDEP
  lockdep::internal::OnAcquired(class_, this);
#endif
}

void Mutex::Unlock() {
#ifdef NEES_LOCKDEP
  lockdep::internal::OnReleased(this);
#endif
  mu_.unlock();
}

bool Mutex::TryLock() {
  // TryLock cannot block, so it contributes no order edges; once held it
  // still constrains later blocking acquisitions via the held stack.
  if (!mu_.try_lock()) return false;
#ifdef NEES_LOCKDEP
  lockdep::internal::OnAcquired(class_, this);
#endif
  return true;
}

void CondVar::Wait(Mutex& mu) {
#ifdef NEES_LOCKDEP
  lockdep::internal::OnCondVarWait(mu.class_, &mu);
#endif
  std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
  cv_.wait(lock);
  lock.release();
#ifdef NEES_LOCKDEP
  lockdep::internal::OnCondVarResume(mu.class_, &mu);
#endif
}

bool CondVar::WaitFor(Mutex& mu, std::int64_t timeout_micros) {
#ifdef NEES_LOCKDEP
  lockdep::internal::OnCondVarWait(mu.class_, &mu);
#endif
  std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
  const std::cv_status status =
      cv_.wait_for(lock, std::chrono::microseconds(
                             std::max<std::int64_t>(timeout_micros, 0)));
  lock.release();
#ifdef NEES_LOCKDEP
  lockdep::internal::OnCondVarResume(mu.class_, &mu);
#endif
  return status == std::cv_status::no_timeout;
}

}  // namespace nees::util
