// E14 — deterministic simulation fuzzing throughput. The kVirtual delivery
// mode makes a whole distributed MOST run a pure function of its seed, so
// schedule-space exploration is CPU-bound: this bench measures how many
// random scenarios (and how many totally ordered virtual events) the
// fuzzer pushes through per unit wall time.
//
// Two blocks, mirroring how the fuzzer is actually run:
//   * standard block — the historical 40-seed standard-template block,
//     every seed thorough (full artifacts + the double-run determinism
//     replica), tracking the per-seed cost trajectory;
//   * campaign block — the sweep configuration `nees_fuzz --campaign`
//     uses: auto-template mix (mini-dominated, with standard, full-MOST
//     and centrifuge shapes riding along), exports off, determinism
//     replica sampled on every 8th seed. Its seeds/hour is the headline
//     number the docs cite; the ISSUE target is >=500k seeds/hour on one
//     CI core.
//
// Emits BENCH_fuzz.json and exits non-zero if any seed in either block
// fails an oracle. `--quick [baseline.json]` re-measures a short campaign
// sample and fails if it lands > 20% below the committed
// campaign_seeds_per_hour (the E13 quick-gate pattern).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "most/fuzz.h"
#include "util/clock.h"
#include "util/strings.h"

using namespace nees;

namespace {

struct SeedResult {
  std::uint64_t seed = 0;
  std::size_t sites = 0;
  std::size_t steps = 0;
  std::size_t faults = 0;
  std::uint64_t events = 0;  // both runs of the determinism pair
  double seconds = 0.0;
  bool ok = false;
};

struct SweepResult {
  std::uint64_t seeds = 0;
  std::uint64_t failures = 0;
  std::uint64_t checked = 0;
  std::uint64_t events = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t auth_refreshes = 0;
  std::uint64_t by_template[4] = {0, 0, 0, 0};
  double seconds = 0.0;

  double seeds_per_hour() const {
    return seconds > 0.0 ? 3600.0 * static_cast<double>(seeds) / seconds : 0.0;
  }
};

/// The campaign configuration: auto template mix, no artifact export,
/// determinism replica on every 8th seed — exactly what a
/// `nees_fuzz --campaign` worker runs per seed.
SweepResult RunCampaignSweep(std::uint64_t first_seed, std::uint64_t count) {
  SweepResult sweep;
  sweep.seeds = count;
  most::FuzzRunOptions options;
  options.export_artifacts = false;
  const util::Stopwatch watch;
  for (std::uint64_t seed = first_seed; seed < first_seed + count; ++seed) {
    const most::FuzzTemplate shape = most::TemplateForSeed(seed);
    const most::FuzzScenario scenario = most::GenerateScenario(seed, shape);
    const bool check = seed % 8 == 0;
    const most::FuzzOutcome outcome =
        check ? most::RunFuzzCaseChecked(scenario, most::kAllFaults, options)
              : most::RunFuzzCase(scenario, most::kAllFaults, options);
    sweep.checked += check ? 1 : 0;
    sweep.events += (check ? 2 : 1) * outcome.events_processed;
    sweep.crashes += outcome.site_crashes;
    sweep.recoveries += outcome.site_recoveries;
    sweep.frames_corrupted += outcome.frames_corrupted;
    sweep.auth_refreshes += outcome.auth_refreshes;
    sweep.by_template[static_cast<int>(shape)] += 1;
    if (!outcome.ok()) {
      ++sweep.failures;
      std::fprintf(stderr, "FAIL seed=%llu: %s\n  replay: %s\n",
                   static_cast<unsigned long long>(seed),
                   outcome.failures.front().c_str(),
                   most::ReplayCommand(seed, shape, most::kAllFaults).c_str());
    }
  }
  sweep.seconds = watch.ElapsedSeconds();
  return sweep;
}

/// --quick: regression gate. Re-measures a short campaign sample and fails
/// (exit 1) if its seeds/hour lands > 20% below the committed baseline's
/// campaign_seeds_per_hour.
int RunQuickGate(const char* baseline_path) {
  constexpr std::uint64_t kSampleSeeds = 300;
  // Best of two: one short sample can read 10-15% low on a loaded box,
  // which would spuriously trip the 20% floor.
  double best = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    const SweepResult sample = RunCampaignSweep(1, kSampleSeeds);
    if (sample.failures != 0) {
      std::fprintf(stderr, "quick gate: %llu oracle failures in the sample\n",
                   static_cast<unsigned long long>(sample.failures));
      return 1;
    }
    best = std::max(best, sample.seeds_per_hour());
  }
  std::FILE* f = std::fopen(baseline_path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "quick gate: cannot open baseline %s\n",
                 baseline_path);
    return 1;
  }
  double baseline = 0.0;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    const char* key = std::strstr(line, "\"campaign_seeds_per_hour\": ");
    if (key != nullptr &&
        std::sscanf(key, "\"campaign_seeds_per_hour\": %lf", &baseline) == 1) {
      break;
    }
  }
  std::fclose(f);
  if (baseline <= 0.0) {
    std::fprintf(stderr,
                 "quick gate: no campaign_seeds_per_hour baseline in %s\n",
                 baseline_path);
    return 1;
  }
  const double floor = 0.8 * baseline;
  std::printf(
      "quick gate: campaign sample %.0f seeds/hour "
      "(baseline %.0f, floor %.0f)\n",
      best, baseline, floor);
  if (best < floor) {
    std::fprintf(stderr, "FAIL: campaign seeds/hour regressed > 20%% below "
                 "the committed baseline\n");
    return 1;
  }
  std::printf("quick gate OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--quick") == 0) {
    return RunQuickGate(argc > 2 ? argv[2] : "BENCH_fuzz.json");
  }

  const std::uint64_t first_seed = 1;
  const std::uint64_t seed_count =
      argc > 1 ? std::strtoull(argv[1], nullptr, 0) : 40;
  const std::uint64_t campaign_count =
      argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 2000;

  // --- standard block: thorough per-seed cost trajectory ---------------------
  std::vector<SeedResult> results;
  std::uint64_t failures = 0;
  std::uint64_t total_events = 0;
  std::uint64_t total_crashes = 0;
  std::uint64_t total_recoveries = 0;
  std::uint64_t total_txns_recovered = 0;
  std::uint64_t total_inflight_failed = 0;
  const util::Stopwatch total_watch;

  for (std::uint64_t seed = first_seed; seed < first_seed + seed_count;
       ++seed) {
    const most::FuzzScenario scenario = most::GenerateScenario(seed);
    const util::Stopwatch watch;
    const most::FuzzOutcome outcome = most::RunFuzzCaseChecked(scenario);

    SeedResult r;
    r.seed = seed;
    r.sites = scenario.sites;
    r.steps = scenario.steps;
    r.faults = scenario.faults.size();
    r.events = 2 * outcome.events_processed;
    r.seconds = watch.ElapsedSeconds();
    r.ok = outcome.ok();
    results.push_back(r);

    total_events += r.events;
    total_crashes += outcome.site_crashes;
    total_recoveries += outcome.site_recoveries;
    total_txns_recovered += outcome.transactions_recovered;
    total_inflight_failed += outcome.inflight_failed;
    if (!outcome.ok()) {
      ++failures;
      std::fprintf(
          stderr, "FAIL seed=%llu: %s\n  replay: %s\n",
          static_cast<unsigned long long>(seed),
          outcome.failures.front().c_str(),
          most::ReplayCommand(seed, most::FuzzTemplate::kStandard,
                              most::kAllFaults)
              .c_str());
    }
  }

  const double elapsed = total_watch.ElapsedSeconds();
  const double seeds_per_hour =
      elapsed > 0.0 ? 3600.0 * static_cast<double>(seed_count) / elapsed : 0.0;
  const double events_per_sec =
      elapsed > 0.0 ? static_cast<double>(total_events) / elapsed : 0.0;

  std::printf(
      "E14: %llu standard seeds (all oracles + double-run determinism), "
      "%llu failures\n     %.2fs wall -> %.0f seeds/hour, "
      "%.0f virtual events/sec\n"
      "     crash/restart: %llu crashes, %llu recoveries, "
      "%llu txns replayed from WAL, %llu crash-marked\n",
      static_cast<unsigned long long>(seed_count),
      static_cast<unsigned long long>(failures), elapsed, seeds_per_hour,
      events_per_sec, static_cast<unsigned long long>(total_crashes),
      static_cast<unsigned long long>(total_recoveries),
      static_cast<unsigned long long>(total_txns_recovered),
      static_cast<unsigned long long>(total_inflight_failed));

  // --- campaign block: the sweep configuration's headline throughput ---------
  const SweepResult campaign = RunCampaignSweep(first_seed, campaign_count);
  const double campaign_events_per_sec =
      campaign.seconds > 0.0
          ? static_cast<double>(campaign.events) / campaign.seconds
          : 0.0;
  std::printf(
      "     campaign: %llu auto-template seeds, %llu failures, "
      "%llu determinism-checked\n"
      "       mix %llu mini / %llu standard / %llu full-most / "
      "%llu centrifuge\n"
      "       %llu frames corrupted, %llu auth refreshes\n"
      "       %.2fs wall -> %.0f seeds/hour, %.0f virtual events/sec\n",
      static_cast<unsigned long long>(campaign.seeds),
      static_cast<unsigned long long>(campaign.failures),
      static_cast<unsigned long long>(campaign.checked),
      static_cast<unsigned long long>(
          campaign.by_template[static_cast<int>(most::FuzzTemplate::kMini)]),
      static_cast<unsigned long long>(
          campaign
              .by_template[static_cast<int>(most::FuzzTemplate::kStandard)]),
      static_cast<unsigned long long>(
          campaign
              .by_template[static_cast<int>(most::FuzzTemplate::kFullMost)]),
      static_cast<unsigned long long>(
          campaign
              .by_template[static_cast<int>(most::FuzzTemplate::kCentrifuge)]),
      static_cast<unsigned long long>(campaign.frames_corrupted),
      static_cast<unsigned long long>(campaign.auth_refreshes),
      campaign.seconds, campaign.seeds_per_hour(), campaign_events_per_sec);

  std::string json = util::Format(
      "{\n  \"experiment\": \"E14\",\n  \"seeds\": %llu,\n"
      "  \"failures\": %llu,\n  \"wall_seconds\": %.3f,\n"
      "  \"seeds_per_hour\": %.1f,\n  \"virtual_events\": %llu,\n"
      "  \"events_per_second\": %.1f,\n  \"site_crashes\": %llu,\n"
      "  \"site_recoveries\": %llu,\n  \"transactions_recovered\": %llu,\n"
      "  \"inflight_failed\": %llu,\n",
      static_cast<unsigned long long>(seed_count),
      static_cast<unsigned long long>(failures), elapsed, seeds_per_hour,
      static_cast<unsigned long long>(total_events), events_per_sec,
      static_cast<unsigned long long>(total_crashes),
      static_cast<unsigned long long>(total_recoveries),
      static_cast<unsigned long long>(total_txns_recovered),
      static_cast<unsigned long long>(total_inflight_failed));
  json += util::Format(
      "  \"campaign_seeds\": %llu,\n  \"campaign_failures\": %llu,\n"
      "  \"campaign_checked\": %llu,\n  \"campaign_wall_seconds\": %.3f,\n"
      "  \"campaign_seeds_per_hour\": %.1f,\n"
      "  \"campaign_virtual_events\": %llu,\n"
      "  \"campaign_events_per_second\": %.1f,\n"
      "  \"campaign_mini\": %llu,\n  \"campaign_standard\": %llu,\n"
      "  \"campaign_full_most\": %llu,\n  \"campaign_centrifuge\": %llu,\n"
      "  \"campaign_frames_corrupted\": %llu,\n"
      "  \"campaign_auth_refreshes\": %llu,\n  \"runs\": [\n",
      static_cast<unsigned long long>(campaign.seeds),
      static_cast<unsigned long long>(campaign.failures),
      static_cast<unsigned long long>(campaign.checked), campaign.seconds,
      campaign.seeds_per_hour(),
      static_cast<unsigned long long>(campaign.events),
      campaign_events_per_sec,
      static_cast<unsigned long long>(
          campaign.by_template[static_cast<int>(most::FuzzTemplate::kMini)]),
      static_cast<unsigned long long>(
          campaign
              .by_template[static_cast<int>(most::FuzzTemplate::kStandard)]),
      static_cast<unsigned long long>(
          campaign
              .by_template[static_cast<int>(most::FuzzTemplate::kFullMost)]),
      static_cast<unsigned long long>(
          campaign
              .by_template[static_cast<int>(most::FuzzTemplate::kCentrifuge)]),
      static_cast<unsigned long long>(campaign.frames_corrupted),
      static_cast<unsigned long long>(campaign.auth_refreshes));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SeedResult& r = results[i];
    json += util::Format(
        "    {\"seed\": %llu, \"sites\": %zu, \"steps\": %zu, "
        "\"faults\": %zu, \"events\": %llu, \"seconds\": %.4f, "
        "\"ok\": %s}%s\n",
        static_cast<unsigned long long>(r.seed), r.sites, r.steps, r.faults,
        static_cast<unsigned long long>(r.events), r.seconds,
        r.ok ? "true" : "false", i + 1 == results.size() ? "" : ",");
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen("BENCH_fuzz.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_fuzz.json\n");
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote BENCH_fuzz.json (%zu standard seeds + %llu campaign)\n",
              results.size(),
              static_cast<unsigned long long>(campaign.seeds));

  std::printf(
      "shape: virtual time decouples schedule exploration from wall time —\n"
      "a multi-second simulated experiment (WAN latencies, outages, retry\n"
      "backoff, re-wakes) replays in milliseconds, so the oracle stack\n"
      "sweeps hundreds of thousands of distinct fault schedules per hour\n"
      "on one core.\n");
  return (failures == 0 && campaign.failures == 0) ? 0 : 1;
}
