// Exact work budgets for the kVirtual fuzz loop (DESIGN.md decision 23):
// messages and virtual events per coordinator step, and virtual events per
// 200-seed campaign block. The counts come from the network's own counters,
// so they do not depend on the host, the build type or a sanitizer, and
// every tree asserts them. Per-step figures use alloc_budget_test's
// differencing: (count of a long run - count of a short run) / (extra
// steps) is the cost of one steady-state step, with set-up and tear-down
// cancelled out.
//
// An idle event source fails here on any machine: a backend heartbeat, an
// empty poll per drain, or an expiry tick on a server with nothing open
// each add events to every step. The budgets are the counts measured when
// they were set plus under 10% headroom.
//
// Wire frames minted per step (util::FramePool's `minted` counter) are
// gated exactly: after a warm-up run every frame a step encodes is a
// recycled one, so a frame that is acquired and never released mints a
// fresh buffer on every step and fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "most/fuzz.h"
#include "most/mini_most.h"
#include "net/network.h"
#include "util/clock.h"
#include "util/frame_pool.h"

namespace nees {
namespace {

// Measured when the budgets were set: 49.53 virtual events per fault-free
// mini step (5 sites), and 69,687 virtual events over the non-full-most
// seeds 1-200 with every fault on. With a backend heartbeat, a trailing
// empty poll per drain and expiry ticks on idle servers a step sent 65.00
// messages and ran 74.55 events, and the seeds ran 170,654 events.
constexpr double kMiniStepEventBudget = 54.0;
constexpr std::uint64_t kCampaignEventBudget = 76'000;
// A steady-state step costs each site two round trips (propose, execute),
// one wake, one poll round trip and one notify round trip.
constexpr double kMessagesPerSiteStep = 9.0;
// Frames minted per warm steady-state step, measured when the gate was set:
// 0 for both loops (a cold first run mints a few while the pool fills).
constexpr double kFuzzMiniFramesPerStep = 0.0;
constexpr double kMiniMostFramesPerStep = 0.0;

struct Work {
  std::uint64_t messages = 0;
  std::uint64_t events = 0;
  std::uint64_t frames_minted = 0;
};

std::uint64_t FramesMinted() {
  return util::FramePool::Instance().stats().minted;
}

// Seed 11's mini scenario without faults: coordinator, per-site NTCP server
// with a WAL, MPlugin and virtual polling backend, all traced.
Work FuzzMiniWork(std::size_t steps, std::size_t* sites) {
  most::FuzzScenario scenario =
      most::GenerateScenario(11, most::FuzzTemplate::kMini);
  scenario.steps = steps;
  scenario.faults.clear();
  most::FuzzRunOptions options;
  options.export_artifacts = false;
  const std::uint64_t minted_before = FramesMinted();
  const most::FuzzOutcome outcome =
      most::RunFuzzCase(scenario, most::kAllFaults, options);
  const std::uint64_t minted = FramesMinted() - minted_before;
  EXPECT_TRUE(outcome.ok()) << outcome.failures.front();
  EXPECT_EQ(outcome.steps_completed + 1, steps);
  *sites = scenario.sites;
  return {outcome.net_totals.sent, outcome.events_processed, minted};
}

// The 2-site kImmediate Mini-MOST loop (the farm tenant), as
// alloc_budget_test runs it: the frames it mints.
std::uint64_t MiniMostFramesMinted(std::size_t steps) {
  net::Network network;
  most::MiniMostOptions options;
  options.steps = steps;
  options.real_hardware = false;
  most::MiniMostExperiment experiment(
      &network, &util::SystemClock::Instance(), options);
  const std::uint64_t minted_before = FramesMinted();
  const auto report = experiment.Run("work-budget");
  const std::uint64_t minted = FramesMinted() - minted_before;
  EXPECT_TRUE(report.ok() && report->completed);
  return minted;
}

double PerStep(std::uint64_t long_run, std::uint64_t short_run,
               std::size_t extra_steps) {
  return (static_cast<double>(long_run) - static_cast<double>(short_run)) /
         static_cast<double>(extra_steps);
}

TEST(WorkBudgetTest, FuzzMiniStepSendsNineMessagesPerSite) {
  std::size_t sites = 0;
  const Work short_run = FuzzMiniWork(100, &sites);
  const Work long_run = FuzzMiniWork(200, &sites);
  const double messages = PerStep(long_run.messages, short_run.messages, 100);
  const double events = PerStep(long_run.events, short_run.events, 100);
  std::printf("fuzz mini (%zu sites): %.2f messages, %.2f virtual events "
              "per step\n",
              sites, messages, events);
  EXPECT_EQ(messages, kMessagesPerSiteStep * static_cast<double>(sites));
  EXPECT_LE(events, kMiniStepEventBudget);
}

TEST(WorkBudgetTest, FuzzMiniStepMintsNoFrames) {
  std::size_t sites = 0;
  FuzzMiniWork(200, &sites);  // warm the process-wide frame pool
  const Work short_run = FuzzMiniWork(100, &sites);
  const Work long_run = FuzzMiniWork(200, &sites);
  const double frames =
      PerStep(long_run.frames_minted, short_run.frames_minted, 100);
  std::printf("fuzz mini: %llu / %llu frames minted, %.2f per step\n",
              static_cast<unsigned long long>(short_run.frames_minted),
              static_cast<unsigned long long>(long_run.frames_minted),
              frames);
  EXPECT_EQ(frames, kFuzzMiniFramesPerStep);
}

TEST(WorkBudgetTest, MiniMostStepMintsNoFrames) {
  MiniMostFramesMinted(200);  // warm the process-wide frame pool
  const std::uint64_t short_run = MiniMostFramesMinted(100);
  const std::uint64_t long_run = MiniMostFramesMinted(200);
  const double frames = PerStep(long_run, short_run, 100);
  std::printf("mini-most: %llu / %llu frames minted, %.2f per step\n",
              static_cast<unsigned long long>(short_run),
              static_cast<unsigned long long>(long_run), frames);
  EXPECT_EQ(frames, kMiniMostFramesPerStep);
}

TEST(WorkBudgetTest, CampaignBlockStaysInEventBudget) {
  most::FuzzRunOptions options;
  options.export_artifacts = false;
  options.run_oracles = false;
  std::uint64_t events = 0;
  std::uint64_t seeds = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const most::FuzzTemplate shape = most::TemplateForSeed(seed);
    if (shape == most::FuzzTemplate::kFullMost) continue;
    const most::FuzzOutcome outcome = most::RunFuzzCase(
        most::GenerateScenario(seed, shape), most::kAllFaults, options);
    EXPECT_TRUE(outcome.run_completed) << seed;
    events += outcome.events_processed;
    ++seeds;
  }
  std::printf("%llu seeds: %llu virtual events\n",
              static_cast<unsigned long long>(seeds),
              static_cast<unsigned long long>(events));
  EXPECT_LE(events, kCampaignEventBudget);
}

}  // namespace
}  // namespace nees
