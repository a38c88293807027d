// Annotated locking primitives plus a lockdep-style lock-order checker.
//
// util::Mutex / util::MutexLock / util::CondVar wrap the std primitives and
// carry Clang thread-safety capability annotations, so the whole grid stack
// is statically checkable with -Wthread-safety (NEES_THREAD_SAFETY CMake
// knob). Every mutex names a *lock class* ("net.Network", "ntcp.Server",
// ...); all instances of a class share one node in the lock-order graph.
//
// When built with NEES_LOCKDEP (on outside Release by default) every
// acquisition also feeds a runtime lockdep: per-thread held-lock stacks are
// folded into a global directed graph of lock classes, and the checker
// reports a *potential* deadlock on the first inverted edge — even if no
// execution ever interleaves into the actual deadlock. Two further rules
// catch latent convoy/deadlock shapes:
//   * waiting on a CondVar while holding any lock besides the one being
//     waited on ("wait <held-class>" allowlist entries exempt a pair);
//   * blocking inside an instrumented call — RpcClient::Call/Wait — while
//     holding any lock ("rpc <held-class>" entries exempt a class).
// Violations are deduplicated, printed to stderr once, and queryable
// (lockdep::Violations) so tests and the fuzz oracle can assert on them.
// The same hook counts each thread's acquisitions per class
// (lockdep::ThreadAcquisitions), which tests/lock_budget_test gates on.
// tools/nees_locks dumps the graph and replays an injected inversion.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace nees::util {

class Mutex;

namespace lockdep {

#ifdef NEES_LOCKDEP
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/// One node in the lock-order graph. Interned by name; never freed.
struct LockClass {
  std::string name;
  int id = 0;
};

/// Interns `name` (all mutexes constructed with the same name share the
/// class). Safe before main() — the registry is a function-local static.
const LockClass* RegisterClass(const char* name);

struct Violation {
  enum class Kind { kOrder, kWaitWhileHolding, kBlockingCallWhileHolding };
  Kind kind = Kind::kOrder;
  std::string description;
};

/// Violations recorded since the last Reset(), in discovery order.
std::vector<Violation> Violations();
std::size_t ViolationCount();

/// Clears the order graph, violation list, and per-thread edge caches (via
/// an epoch bump). Lock classes and the allowlist survive. Test isolation
/// only — never call while other threads hold instrumented locks.
void Reset();

/// Adds one allowlist rule. Formats ("#" starts a comment):
///   wait <held-class>            waiting on any condvar is legal while
///                                holding <held-class>
///   rpc <held-class>             blocking RPCs are legal under <held-class>
///   order <class-a> <class-b>    the a->b edge never closes a reportable
///                                cycle (also "order X X" for same-class
///                                nesting)
/// Returns false on a malformed line.
bool AllowRule(const std::string& line);

/// Loads one rule per line from `path`; returns false if unreadable.
bool LoadAllowlistFile(const std::string& path);
void ClearAllowlist();

/// Instrumentation hook for blocking entry points (RpcClient::Call/Wait):
/// records a violation if this thread holds any non-allowlisted lock.
/// `what` names the call site in the report. No-op without NEES_LOCKDEP.
void CheckBlockingCall(const char* what);

/// Lock classes currently held by the calling thread, outermost first.
std::vector<std::string> HeldLockNames();

/// Human-readable dump: every class, every recorded edge (with the classes
/// that first produced it), and every violation so far.
void DumpGraph(std::ostream& out);

/// Graph counters, for reports and tests.
std::size_t EdgeCount();
std::size_t ClassCount();

/// Locks the calling thread has acquired since it started, per lock class:
/// element i counts class id i (shorter than ClassCount() when the last
/// classes were never taken). Every successful Lock/TryLock and every
/// CondVar re-acquire counts once. Thread-local and lock-free to update;
/// Reset() leaves it alone. Empty without NEES_LOCKDEP.
std::vector<std::uint64_t> ThreadAcquisitions();

/// One row per class with a nonzero count, busiest first, each count
/// divided by `divisor` (e.g. steps, for a per-step table), then a total.
void DumpAcquisitions(std::ostream& out,
                      const std::vector<std::uint64_t>& counts,
                      double divisor = 1.0);

}  // namespace lockdep

/// Annotated std::mutex wrapper. `lock_class` names this mutex's node in
/// the lockdep order graph; instances sharing a name share the node.
class NEES_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* lock_class = "mutex")
#ifdef NEES_LOCKDEP
      : class_(lockdep::RegisterClass(lock_class))
#endif
  {
    (void)lock_class;
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() NEES_ACQUIRE();
  void Unlock() NEES_RELEASE();
  bool TryLock() NEES_TRY_ACQUIRE(true);

  const char* lock_class_name() const {
#ifdef NEES_LOCKDEP
    return class_->name.c_str();
#else
    return "mutex";
#endif
  }

 private:
  friend class CondVar;
  std::mutex mu_;
#ifdef NEES_LOCKDEP
  const lockdep::LockClass* class_;
#endif
};

/// RAII scoped lock over util::Mutex. Relockable: CondVar-style juggling
/// (`lock.Unlock(); work(); lock.Lock();`) stays visible to the static
/// analysis through the NEES_RELEASE/NEES_ACQUIRE annotations.
class NEES_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) NEES_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
    held_ = true;
  }

  ~MutexLock() NEES_RELEASE() {
    if (held_) mu_.Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases early (e.g. around a callback that must not run under the
  /// lock). The destructor then does nothing unless Lock() re-acquires.
  void Unlock() NEES_RELEASE() {
    mu_.Unlock();
    held_ = false;
  }

  /// Re-acquires after Unlock().
  void Lock() NEES_ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_;
};

/// Annotated std::condition_variable wrapper. Waits take the util::Mutex
/// the caller holds; with NEES_LOCKDEP the held-lock stack is maintained
/// across the internal release/reacquire, and waiting while holding any
/// *other* lock is reported (see the wait rule above).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (or spuriously woken); callers re-check their
  /// predicate in a loop, as with std::condition_variable.
  void Wait(Mutex& mu) NEES_REQUIRES(mu);

  /// Waits up to `timeout_micros`. Returns false if the wait timed out
  /// without a notification, true otherwise (including spurious wakes).
  bool WaitFor(Mutex& mu, std::int64_t timeout_micros) NEES_REQUIRES(mu);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace nees::util
