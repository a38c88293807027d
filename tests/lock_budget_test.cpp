// Exact per-step lock-acquisition budgets (DESIGN.md decision 21). Lockdep's
// acquire hook counts every lock the calling thread takes, per lock class;
// this binary runs the two step loops of alloc_budget_test at two lengths
// each and takes the difference: (acquisitions of the long run -
// acquisitions of the short run) / (extra steps) is the cost of one
// steady-state step, with set-up and tear-down cancelled out. Both loops
// run on the test thread, so the count does not depend on the host: one
// more lock per delivered message moves a budget by the messages per step,
// several times the headroom.
//
// The budgets are the counts measured when they were set plus under 10%
// headroom. On a failure the per-class table of the extra steps is printed,
// so the class that moved is named. Lockdep is compiled out of Release
// builds, and so is the counter: there the tests skip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <vector>

#include "most/fuzz.h"
#include "most/mini_most.h"
#include "net/network.h"
#include "util/clock.h"
#include "util/mutex.h"

namespace nees {
namespace {

// Measured steady-state costs when the budgets were set: 863.1
// acquisitions per step for the fuzz mini scenario and 62.0 for Mini-MOST.
// They were 883.1 and 84.0 while the RPC client could stage a phase's calls
// for one batched send and scanned for staged calls on every wait. The
// fuzz figure was 903.1 while the sequential step engine tagged each
// site span after opening it and looked up the thread's current span per
// operation, 1193.2 while the backend ran a heartbeat, ended each drain
// with an empty poll and idle servers ticked their expiry timers, and
// 1937.6 before the virtual clocks became lock-free.
constexpr double kFuzzMiniBudget = 945.0;
constexpr double kMiniMostBudget = 68.0;

using Counts = std::vector<std::uint64_t>;

// Per-class acquisitions the calling thread makes while `run` runs.
template <typename Run>
Counts CountAcquisitions(Run&& run) {
  Counts before = util::lockdep::ThreadAcquisitions();
  run();
  Counts after = util::lockdep::ThreadAcquisitions();
  before.resize(after.size());
  for (std::size_t i = 0; i < after.size(); ++i) after[i] -= before[i];
  return after;
}

std::uint64_t Total(const Counts& counts) {
  std::uint64_t total = 0;
  for (const std::uint64_t count : counts) total += count;
  return total;
}

#define NEES_SKIP_WITHOUT_LOCKDEP()                                       \
  do {                                                                    \
    if (!util::lockdep::kEnabled) {                                       \
      GTEST_SKIP() << "lockdep (and its acquisition counter) is compiled " \
                      "out of this build";                                \
    }                                                                     \
  } while (0)

// The fault-free kVirtual mini scenario of alloc_budget_test.
Counts FuzzMiniAcquisitions(std::size_t steps) {
  most::FuzzScenario scenario =
      most::GenerateScenario(11, most::FuzzTemplate::kMini);
  scenario.steps = steps;
  scenario.faults.clear();
  most::FuzzRunOptions options;
  options.export_artifacts = false;
  std::uint64_t completed = 0;
  Counts counts = CountAcquisitions([&] {
    const most::FuzzOutcome outcome =
        most::RunFuzzCase(scenario, most::kAllFaults, options);
    EXPECT_TRUE(outcome.ok()) << outcome.failures.front();
    completed = outcome.steps_completed;
  });
  EXPECT_EQ(completed + 1, steps);
  return counts;
}

// The 2-site kImmediate Mini-MOST loop of alloc_budget_test.
Counts MiniMostAcquisitions(std::size_t steps) {
  net::Network network;
  most::MiniMostOptions options;
  options.steps = steps;
  options.real_hardware = false;
  most::MiniMostExperiment experiment(
      &network, &util::SystemClock::Instance(), options);
  bool completed = false;
  Counts counts = CountAcquisitions([&] {
    auto report = experiment.Run("lock-budget");
    completed = report.ok() && report->completed;
  });
  EXPECT_TRUE(completed);
  return counts;
}

// Checks the per-step cost of (long_run - short_run) against `budget`.
void ExpectPerStepWithin(const char* what, const Counts& short_run,
                         Counts long_run, std::size_t extra_steps,
                         double budget) {
  const std::uint64_t short_total = Total(short_run);
  const std::uint64_t long_total = Total(long_run);
  const double per_step = (static_cast<double>(long_total) -
                           static_cast<double>(short_total)) /
                          static_cast<double>(extra_steps);
  std::printf("%s: %llu / %llu acquisitions, %.2f per step\n", what,
              static_cast<unsigned long long>(short_total),
              static_cast<unsigned long long>(long_total), per_step);
  if (per_step <= budget) return;
  Counts extra = std::move(long_run);
  extra.resize(std::max(extra.size(), short_run.size()));
  for (std::size_t i = 0; i < short_run.size(); ++i) extra[i] -= short_run[i];
  std::ostringstream table;
  util::lockdep::DumpAcquisitions(table, extra,
                                  static_cast<double>(extra_steps));
  ADD_FAILURE() << what << ": " << per_step
                << " lock acquisitions per step exceed the budget of "
                << budget << "; per class and step:\n"
                << table.str();
}

TEST(LockBudgetTest, FuzzMiniScenarioStepStaysInBudget) {
  NEES_SKIP_WITHOUT_LOCKDEP();
  FuzzMiniAcquisitions(200);  // first-run interning and pool warm-up
  const Counts short_run = FuzzMiniAcquisitions(100);
  const Counts long_run = FuzzMiniAcquisitions(200);
  ExpectPerStepWithin("fuzz mini", short_run, long_run, 100,
                      kFuzzMiniBudget);
}

TEST(LockBudgetTest, MiniMostStepStaysInBudget) {
  NEES_SKIP_WITHOUT_LOCKDEP();
  MiniMostAcquisitions(200);
  const Counts short_run = MiniMostAcquisitions(100);
  const Counts long_run = MiniMostAcquisitions(200);
  ExpectPerStepWithin("mini-most", short_run, long_run, 100,
                      kMiniMostBudget);
}

}  // namespace
}  // namespace nees
