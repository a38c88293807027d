// Exact per-step heap allocation budgets for the steady-state message path
// (DESIGN.md decision 20). This binary replaces the global operator new with
// a counting one, runs two step loops at two lengths each, and takes the
// difference: (allocations of the long run - allocations of the short run)
// / (extra steps) is the cost of one steady-state step, with set-up and
// tear-down cancelled out. The count does not depend on the host, so a new
// hot-path allocation fails here on any machine — one more allocation per
// delivered message moves a budget by the messages per step, several times
// the headroom.
//
// The budgets are the counts measured when they were set plus under 10%
// headroom. Lockdep and the invariant checks do not change the counts, so
// every tree asserts except the sanitizer builds, whose runtimes own the
// allocator. Identical runs may differ by a few allocations in total (the
// process-wide frame pool's free lists carry over between runs); warming
// the pool first and differencing two runs keeps that out of the per-step
// figure.
//
// A failing budget runs both lengths again with every counted allocation's
// callers captured by backtrace(3), and prints the per-call-site
// allocations of the extra steps, largest first. Setting NEES_ALLOC_SITES
// prints the same table after a passing run. The capture runs after the
// measured runs, so it never changes the counts the budgets check.
// docs/ANALYSIS.md has the addr2line recipe that names the sites.
#include <dlfcn.h>
#include <execinfo.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "most/fuzz.h"
#include "most/mini_most.h"
#include "net/network.h"
#include "util/clock.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

// --- call-site capture (failure path only) -----------------------------------

// Callers recorded per site: enough to get from a libstdc++ or inlined
// container frame out to the product code that asked for the memory.
constexpr int kSiteDepth = 6;
// Frames between backtrace() and the caller of operator new: CaptureSite,
// CountedAlloc and operator new itself (none of them inlined or tail-called).
constexpr int kAllocatorFrames = 3;
constexpr std::size_t kSiteSlots = std::size_t{1} << 14;

struct Site {
  void* callers[kSiteDepth];
  std::uint64_t count[2];  // allocations in the short and the long run
  bool used;
};

// Static storage, so capturing allocates nothing.
Site g_sites[kSiteSlots];
std::uint64_t g_sites_dropped = 0;
// The run whose allocations are being attributed (0 short, 1 long), or -1.
std::atomic<int> g_capture_run{-1};
std::atomic_flag g_capture_lock = ATOMIC_FLAG_INIT;
thread_local bool t_capturing = false;

__attribute__((noinline)) void CaptureSite() {
  if (t_capturing) return;  // backtrace's own first-call set-up allocates
  t_capturing = true;
  void* frames[kAllocatorFrames + kSiteDepth] = {};
  const int depth = backtrace(frames, kAllocatorFrames + kSiteDepth);
  void* callers[kSiteDepth] = {};
  std::uint64_t hash = 0;
  for (int i = kAllocatorFrames; i < depth; ++i) {
    callers[i - kAllocatorFrames] = frames[i];
    hash = (hash ^ reinterpret_cast<std::uintptr_t>(frames[i])) *
           0x100000001b3ULL;
  }
  const int run = g_capture_run.load(std::memory_order_relaxed);
  while (g_capture_lock.test_and_set(std::memory_order_acquire)) {
  }
  std::size_t i = hash & (kSiteSlots - 1);
  for (std::size_t probes = 0;; ++probes, i = (i + 1) & (kSiteSlots - 1)) {
    if (probes == kSiteSlots) {
      ++g_sites_dropped;
      break;
    }
    Site& site = g_sites[i];
    if (!site.used) {
      site.used = true;
      std::memcpy(site.callers, callers, sizeof callers);
    } else if (std::memcmp(site.callers, callers, sizeof callers) != 0) {
      continue;
    }
    ++site.count[run];
    break;
  }
  g_capture_lock.clear(std::memory_order_release);
  t_capturing = false;
}

__attribute__((noinline)) void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (g_capture_run.load(std::memory_order_relaxed) >= 0) CaptureSite();
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The empty asm uses the result after the call returns, so operator new
// keeps its own frame (no tail call) and kAllocatorFrames stays exact.
void* operator new(std::size_t size) {
  void* p = CountedAlloc(size);
  asm volatile("" : : "r"(p) : "memory");
  return p;
}
void* operator new[](std::size_t size) {
  void* p = CountedAlloc(size);
  asm volatile("" : : "r"(p) : "memory");
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nees {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// Measured steady-state costs when the budgets were set: 75.15
// allocations per step for the fuzz mini scenario and 19.09 for Mini-MOST.
// They were 153.85 and 21.09 while the MPlugin copied each proposal into
// its queue and each result out of a shared_ptr'd pending record, decoded
// transaction ids and results into fresh objects, and the backend's compute
// built a fresh result per call; 176.80 and 28.07 while the NTCP server
// kept its transactions in a std::map (a key copy and a timestamp vector
// per transaction), NtcpClient::AwaitAll reserved a vector per wait and the
// coordinator copied its history into the run report. The fuzz figure was
// 193.97 while the sequential step engine built a fresh proposal per site
// and its waits built a vector per wake, 215.6 before ntcp.txn events
// became trace rows (no heap copy of each transaction id); before the
// message path was made allocation-free the two were 751.93 and 67.07.
constexpr double kFuzzMiniBudget = 82.0;
constexpr double kMiniMostBudget = 20.5;

// Counts the heap allocations `run` makes.
template <typename Run>
std::uint64_t CountAllocations(Run&& run) {
  const std::uint64_t before = g_allocations.load();
  g_counting = true;
  run();
  g_counting = false;
  return g_allocations.load() - before;
}

#define NEES_SKIP_IF_SANITIZED()                                         \
  do {                                                                   \
    if (kSanitized) {                                                    \
      GTEST_SKIP() << "sanitizer allocators change the counts; budgets " \
                      "are asserted in the other trees";                 \
    }                                                                    \
  } while (0)

// A fault-free kVirtual mini scenario: coordinator, per-site NTCP server
// with a WAL, MPlugin and virtual polling backend, all traced.
std::uint64_t FuzzMiniAllocations(std::size_t steps) {
  most::FuzzScenario scenario =
      most::GenerateScenario(11, most::FuzzTemplate::kMini);
  scenario.steps = steps;
  scenario.faults.clear();
  most::FuzzRunOptions options;
  options.export_artifacts = false;
  std::uint64_t completed = 0;
  const std::uint64_t allocations = CountAllocations([&] {
    const most::FuzzOutcome outcome =
        most::RunFuzzCase(scenario, most::kAllFaults, options);
    EXPECT_TRUE(outcome.ok()) << outcome.failures.front();
    completed = outcome.steps_completed;
  });
  EXPECT_EQ(completed + 1, steps);
  return allocations;
}

// The 2-site kImmediate Mini-MOST loop (the farm tenant): beam simulator
// site plus numerical substructure site.
std::uint64_t MiniMostAllocations(std::size_t steps) {
  net::Network network;
  most::MiniMostOptions options;
  options.steps = steps;
  options.real_hardware = false;
  most::MiniMostExperiment experiment(
      &network, &util::SystemClock::Instance(), options);
  bool completed = false;
  const std::uint64_t allocations = CountAllocations([&] {
    auto report = experiment.Run("alloc-budget");
    completed = report.ok() && report->completed;
  });
  EXPECT_TRUE(completed);
  return allocations;
}

// "module+offset" of a return address, pointing into its call instruction:
// the form addr2line takes (docs/ANALYSIS.md).
void PrintCaller(void* address) {
  Dl_info info;
  if (dladdr(address, &info) == 0 || info.dli_fname == nullptr) {
    std::printf(" %p", address);
    return;
  }
  const char* slash = std::strrchr(info.dli_fname, '/');
  const auto offset = reinterpret_cast<std::uintptr_t>(address) -
                      reinterpret_cast<std::uintptr_t>(info.dli_fbase) - 1;
  std::printf(" %s+0x%llx", slash != nullptr ? slash + 1 : info.dli_fname,
              static_cast<unsigned long long>(offset));
}

// Runs `steps_run` at both lengths with call-site capture on, and prints
// each site's allocations per extra step, largest first.
template <typename StepsRun>
void PrintAllocationSites(const char* what, StepsRun&& steps_run,
                          std::size_t short_steps, std::size_t long_steps) {
  std::memset(g_sites, 0, sizeof g_sites);
  g_sites_dropped = 0;
  g_capture_run = 0;
  steps_run(short_steps);
  g_capture_run = 1;
  steps_run(long_steps);
  g_capture_run = -1;

  struct Row {
    double per_step;
    const Site* site;
  };
  std::vector<Row> rows;
  const double extra = static_cast<double>(long_steps - short_steps);
  for (const Site& site : g_sites) {
    if (!site.used || site.count[0] == site.count[1]) continue;
    rows.push_back({(static_cast<double>(site.count[1]) -
                     static_cast<double>(site.count[0])) /
                        extra,
                    &site});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.per_step > b.per_step;
  });
  std::printf(
      "%s: allocations per step by call site (the first %d callers of "
      "operator new, innermost first)%s\n",
      what, kSiteDepth,
      g_sites_dropped > 0 ? "; site table full, some not shown" : "");
  double total = 0.0;
  for (const Row& row : rows) {
    total += row.per_step;
    std::printf("%8.2f ", row.per_step);
    for (void* caller : row.site->callers) {
      if (caller != nullptr) PrintCaller(caller);
    }
    std::printf("\n");
  }
  std::printf("%8.2f  total\n", total);
}

// Measures `steps_run`'s allocations per steady-state step (the difference
// of a 200- and a 100-step run after a warm-up run) against `budget`. On a
// failure, or with NEES_ALLOC_SITES set, prints the per-call-site table.
template <typename StepsRun>
void ExpectPerStepWithin(const char* what, StepsRun&& steps_run,
                         double budget) {
  constexpr std::size_t kShort = 100;
  constexpr std::size_t kLong = 200;
  // Warm the process-wide frame pool and intern table to their peak.
  steps_run(kLong);
  const std::uint64_t short_run = steps_run(kShort);
  const std::uint64_t long_run = steps_run(kLong);
  const double per_step = (static_cast<double>(long_run) -
                           static_cast<double>(short_run)) /
                          static_cast<double>(kLong - kShort);
  std::printf("%s: %llu / %llu allocations, %.2f per step\n", what,
              static_cast<unsigned long long>(short_run),
              static_cast<unsigned long long>(long_run), per_step);
  const bool over = per_step > budget;
  if (over || std::getenv("NEES_ALLOC_SITES") != nullptr) {
    PrintAllocationSites(what, steps_run, kShort, kLong);
  }
  if (over) {
    ADD_FAILURE() << what << ": " << per_step
                  << " allocations per step exceed the budget of " << budget
                  << "; the per-site table is printed above";
  }
}

TEST(AllocBudgetTest, FuzzMiniScenarioStepStaysInBudget) {
  NEES_SKIP_IF_SANITIZED();
  ExpectPerStepWithin("fuzz mini", FuzzMiniAllocations, kFuzzMiniBudget);
}

TEST(AllocBudgetTest, MiniMostStepStaysInBudget) {
  NEES_SKIP_IF_SANITIZED();
  ExpectPerStepWithin("mini-most", MiniMostAllocations, kMiniMostBudget);
}

}  // namespace
}  // namespace nees
