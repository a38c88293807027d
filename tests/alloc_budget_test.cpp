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
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "most/fuzz.h"
#include "most/mini_most.h"
#include "net/network.h"
#include "util/clock.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
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

// Measured steady-state costs when the budgets were set: 153.85
// allocations per step for the fuzz mini scenario and 21.09 for Mini-MOST.
// They were 176.80 and 28.07 while the NTCP server kept its transactions in
// a std::map (a key copy and a timestamp vector per transaction),
// NtcpClient::AwaitAll reserved a vector per wait and the coordinator
// copied its history into the run report. The fuzz figure was 193.97 while
// the sequential step engine built a fresh proposal per site and its waits
// built a vector per wake, 215.6 before ntcp.txn events became trace rows
// (no heap copy of each transaction id); before the message path was made
// allocation-free the two were 751.93 and 67.07.
constexpr double kFuzzMiniBudget = 169.0;
constexpr double kMiniMostBudget = 23.0;

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

double PerStep(std::uint64_t long_run, std::uint64_t short_run,
               std::size_t extra_steps) {
  return (static_cast<double>(long_run) - static_cast<double>(short_run)) /
         static_cast<double>(extra_steps);
}

TEST(AllocBudgetTest, FuzzMiniScenarioStepStaysInBudget) {
  NEES_SKIP_IF_SANITIZED();
  // Warm the process-wide frame pool and intern table to their peak.
  FuzzMiniAllocations(200);
  const std::uint64_t short_run = FuzzMiniAllocations(100);
  const std::uint64_t long_run = FuzzMiniAllocations(200);
  const double per_step = PerStep(long_run, short_run, 100);
  std::printf("fuzz mini: %llu / %llu allocations, %.2f per step\n",
              static_cast<unsigned long long>(short_run),
              static_cast<unsigned long long>(long_run), per_step);
  EXPECT_LE(per_step, kFuzzMiniBudget);
}

TEST(AllocBudgetTest, MiniMostStepStaysInBudget) {
  NEES_SKIP_IF_SANITIZED();
  MiniMostAllocations(200);
  const std::uint64_t short_run = MiniMostAllocations(100);
  const std::uint64_t long_run = MiniMostAllocations(200);
  const double per_step = PerStep(long_run, short_run, 100);
  std::printf("mini-most: %llu / %llu allocations, %.2f per step\n",
              static_cast<unsigned long long>(short_run),
              static_cast<unsigned long long>(long_run), per_step);
  EXPECT_LE(per_step, kMiniMostBudget);
}

}  // namespace
}  // namespace nees
