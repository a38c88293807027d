// E15 — multi-tenant farm throughput. One process hosts the shared grid
// fabric (network, OGSI container, registry, NSDS, CHEF) and runs waves of
// namespaced experiment sessions over it:
//
//   * tenancy sweep — 1 / 10 / 50 / 100 concurrent kinetic-sim Mini-MOST
//     tenants, experiments/sec per level (admit -> place -> run -> reap,
//     the reap verified back to the host baseline each wave);
//   * worker sweep — the 100-tenant wave on 1 / 2 / 4 / 8 workers, median
//     experiments/sec over several waves on one warm host per count: does
//     the farm scale with its workers, or does shared state serialize it;
//   * mixed wave — the nees_farm "mixed" template mix (mini-dominated with
//     full MOST and centrifuge tenants riding along);
//   * participant fan-out — a 10,000-scripted-participant CHEF swarm over
//     one shared NSDS-fed viewer store, participants/sec.
//
// Emits BENCH_farm.json. `--quick [baseline.json]` re-measures the
// 4-worker sweep point exactly as the sweep does (median of the warm
// waves on one host) and fails if it lands > 20% below the committed
// worker_sweep row for 4 workers (the E13/E14 quick-gate pattern).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "farm/farm.h"
#include "net/endpoint.h"
#include "net/network.h"
#include "util/clock.h"
#include "util/strings.h"

using namespace nees;

namespace {

struct LevelResult {
  std::size_t tenants = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  double wall_seconds = 0.0;
  double experiments_per_sec = 0.0;
  std::size_t peak_services = 0;
  std::size_t peak_registrations = 0;
  std::size_t services_after_reap = 0;
  std::size_t endpoints_interned = 0;
};

constexpr std::size_t kSessionSteps = 80;
constexpr std::size_t kWorkers = 8;

LevelResult RunMiniWave(std::size_t tenants) {
  net::Network network(net::DeliveryMode::kImmediate);
  farm::FarmOptions options;
  options.workers = kWorkers;
  options.mini_steps = kSessionSteps;
  farm::ExperimentFarm farm(&network, network.clock(), options);
  LevelResult level;
  level.tenants = tenants;
  for (std::size_t i = 0; i < tenants; ++i) {
    (void)farm.Admit({farm::SessionKind::kMiniMost, 0, 0});
  }
  const util::Result<farm::FarmReport> run = farm.RunAll();
  if (!run.ok()) {
    level.failed = tenants;
    return level;
  }
  level.completed = run->completed;
  level.failed = run->failed;
  level.wall_seconds = run->wall_seconds;
  level.experiments_per_sec = run->experiments_per_sec;
  level.peak_services = run->peak_services;
  level.peak_registrations = run->peak_registrations;
  level.services_after_reap = run->services_after_reap;
  level.endpoints_interned = run->endpoints_interned;
  return level;
}

struct SweepPoint {
  std::size_t workers = 0;
  double experiments_per_sec = 0.0;  // median over kSweepWaves waves
  std::size_t failed = 0;
};

constexpr std::size_t kSweepTenants = 100;
constexpr std::size_t kSweepWaves = 5;
constexpr std::size_t kSweepWorkers[] = {1, 2, 4, 8};

/// One host with `workers` workers: a warm-up wave, then kSweepWaves timed
/// 100-tenant waves.
SweepPoint RunWorkerPoint(std::size_t workers) {
  net::Network network(net::DeliveryMode::kImmediate);
  farm::FarmOptions options;
  options.workers = workers;
  options.mini_steps = kSessionSteps;
  farm::ExperimentFarm farm(&network, network.clock(), options);
  SweepPoint point;
  point.workers = workers;
  std::vector<double> rates;
  for (std::size_t wave = 0; wave <= kSweepWaves; ++wave) {
    for (std::size_t i = 0; i < kSweepTenants; ++i) {
      (void)farm.Admit({farm::SessionKind::kMiniMost, 0, 0});
    }
    const util::Result<farm::FarmReport> run = farm.RunAll();
    if (!run.ok()) {
      point.failed += kSweepTenants;
      continue;
    }
    point.failed += run->failed;
    if (wave > 0) rates.push_back(run->experiments_per_sec);
  }
  if (!rates.empty()) {
    std::sort(rates.begin(), rates.end());
    point.experiments_per_sec = rates[rates.size() / 2];
  }
  return point;
}

int RunQuickGate(const char* baseline_path) {
  // Like with like: the committed row is a median of warm waves, so the
  // gate measures the same point the same way. A single cold wave reads
  // too noisy to gate on.
  constexpr std::size_t kGateWorkers = 4;
  const SweepPoint sample = RunWorkerPoint(kGateWorkers);
  if (sample.failed != 0) {
    std::fprintf(stderr, "quick gate: %zu failed sessions in the sample\n",
                 sample.failed);
    return 1;
  }
  std::FILE* f = std::fopen(baseline_path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "quick gate: cannot open baseline %s\n",
                 baseline_path);
    return 1;
  }
  // worker_sweep rows are one per line:
  //   {"workers": 4, ..., "experiments_per_sec": X}
  const std::string row = util::Format("\"workers\": %zu,", kGateWorkers);
  double baseline = 0.0;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strstr(line, row.c_str()) == nullptr) continue;
    const char* key = std::strstr(line, "\"experiments_per_sec\": ");
    if (key != nullptr &&
        std::sscanf(key, "\"experiments_per_sec\": %lf", &baseline) == 1) {
      break;
    }
  }
  std::fclose(f);
  if (baseline <= 0.0) {
    std::fprintf(stderr, "quick gate: no worker_sweep row for %zu workers "
                 "in %s\n", kGateWorkers, baseline_path);
    return 1;
  }
  const double floor = 0.8 * baseline;
  std::printf(
      "quick gate: %zu-tenant wave on %zu workers, median of %zu warm waves "
      "%.0f experiments/sec (baseline %.0f, floor %.0f)\n",
      kSweepTenants, kGateWorkers, kSweepWaves, sample.experiments_per_sec,
      baseline, floor);
  if (sample.experiments_per_sec < floor) {
    std::fprintf(stderr, "FAIL: farm experiments/sec regressed > 20%% below "
                 "the committed baseline\n");
    return 1;
  }
  std::printf("quick gate OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--quick") == 0) {
    return RunQuickGate(argc > 2 ? argv[2] : "BENCH_farm.json");
  }

  // --- tenancy sweep ---------------------------------------------------------
  const std::vector<std::size_t> levels = {1, 10, 50, 100};
  std::vector<LevelResult> results;
  bool ok = true;
  std::printf("E15: multi-tenant farm, %zu-step kinetic Mini-MOST sessions, "
              "%zu workers\n", kSessionSteps, kWorkers);
  for (const std::size_t tenants : levels) {
    const LevelResult level = RunMiniWave(tenants);
    ok = ok && level.failed == 0;
    std::printf(
        "     %4zu tenants: %zu completed, %zu failed, %.3fs wall -> "
        "%7.1f experiments/sec (%zu services / %zu registrations at peak, "
        "%zu after reap)\n",
        level.tenants, level.completed, level.failed, level.wall_seconds,
        level.experiments_per_sec, level.peak_services,
        level.peak_registrations, level.services_after_reap);
    results.push_back(level);
  }

  // --- worker sweep ----------------------------------------------------------
  std::vector<SweepPoint> sweep;
  std::printf("     worker sweep, %zu tenants, median of %zu waves:\n",
              kSweepTenants, kSweepWaves);
  for (const std::size_t workers : kSweepWorkers) {
    const SweepPoint point = RunWorkerPoint(workers);
    ok = ok && point.failed == 0;
    std::printf("     %4zu workers: %7.1f experiments/sec (x%.2f of 1 worker)"
                "\n",
                point.workers, point.experiments_per_sec,
                sweep.empty() || sweep[0].experiments_per_sec <= 0.0
                    ? 1.0
                    : point.experiments_per_sec / sweep[0].experiments_per_sec);
    sweep.push_back(point);
  }

  // --- mixed wave ------------------------------------------------------------
  LevelResult mixed;
  {
    net::Network network(net::DeliveryMode::kImmediate);
    farm::FarmOptions options;
    options.workers = kWorkers;
    options.mini_steps = kSessionSteps;
    options.most_steps = 200;
    farm::ExperimentFarm farm(&network, network.clock(), options);
    constexpr std::size_t kMixedTenants = 50;
    for (std::size_t i = 0; i < kMixedTenants; ++i) {
      farm::SessionSpec spec;
      spec.kind = i % 10 == 8   ? farm::SessionKind::kMost
                  : i % 10 == 9 ? farm::SessionKind::kCentrifuge
                                : farm::SessionKind::kMiniMost;
      (void)farm.Admit(spec);
    }
    const util::Result<farm::FarmReport> run = farm.RunAll();
    if (run.ok()) {
      mixed.tenants = run->admitted;
      mixed.completed = run->completed;
      mixed.failed = run->failed;
      mixed.wall_seconds = run->wall_seconds;
      mixed.experiments_per_sec = run->experiments_per_sec;
      mixed.peak_services = run->peak_services;
    } else {
      mixed.tenants = kMixedTenants;
      mixed.failed = kMixedTenants;
    }
    ok = ok && mixed.failed == 0;
    std::printf(
        "     mixed %zu (8:1:1 mini/most/centrifuge): %zu completed, "
        "%zu failed, %.3fs -> %.1f experiments/sec\n",
        mixed.tenants, mixed.completed, mixed.failed, mixed.wall_seconds,
        mixed.experiments_per_sec);
  }

  // --- participant fan-out ---------------------------------------------------
  constexpr int kSwarmParticipants = 10000;
  chef::SwarmReport swarm;
  double swarm_seconds = 0.0;
  {
    net::Network network(net::DeliveryMode::kImmediate);
    farm::FarmOptions options;
    options.workers = kWorkers;
    options.mini_steps = kSessionSteps;
    farm::ExperimentFarm farm(&network, network.clock(), options);
    // A small tenant wave first so the shared viewer store has live
    // channels for the swarm to read.
    for (std::size_t i = 0; i < 4; ++i) {
      (void)farm.Admit({farm::SessionKind::kMiniMost, 0, 0});
    }
    const util::Result<farm::FarmReport> seeded = farm.RunAll();
    ok = ok && seeded.ok() && seeded->failed == 0;

    farm::SwarmOptions swarm_options;
    swarm_options.participants = kSwarmParticipants;
    swarm_options.shards = kWorkers;
    const util::Stopwatch watch;
    swarm = farm::RunScaledSwarm(&network, farm::ExperimentFarm::kChef,
                                 swarm_options);
    swarm_seconds = watch.ElapsedSeconds();
    ok = ok && swarm.failures == 0;
  }
  const double participants_per_sec =
      swarm_seconds > 0.0
          ? static_cast<double>(swarm.participants) / swarm_seconds
          : 0.0;
  std::printf(
      "     swarm: %d participants over the shared stream in %.3fs -> "
      "%.0f participants/sec (%d chat posts, %d viewer reads, "
      "%d failures)\n",
      swarm.participants, swarm_seconds, participants_per_sec,
      swarm.chat_posts, swarm.viewer_reads, swarm.failures);

  // --- JSON ------------------------------------------------------------------
  std::string json = "{\n  \"experiment\": \"E15\",\n  \"levels\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const LevelResult& level = results[i];
    json += util::Format(
        "    {\"tenants\": %zu, \"completed\": %zu, \"failed\": %zu, "
        "\"wall_seconds\": %.4f, \"experiments_per_sec\": %.1f, "
        "\"peak_services\": %zu, \"peak_registrations\": %zu, "
        "\"services_after_reap\": %zu, \"endpoints_interned\": %zu}%s\n",
        level.tenants, level.completed, level.failed, level.wall_seconds,
        level.experiments_per_sec, level.peak_services,
        level.peak_registrations, level.services_after_reap,
        level.endpoints_interned, i + 1 == results.size() ? "" : ",");
  }
  json += "  ],\n  \"worker_sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    json += util::Format(
        "    {\"workers\": %zu, \"tenants\": %zu, \"waves\": %zu, "
        "\"experiments_per_sec\": %.1f}%s\n",
        sweep[i].workers, kSweepTenants, kSweepWaves,
        sweep[i].experiments_per_sec, i + 1 == sweep.size() ? "" : ",");
  }
  json += "  ],\n";
  json += util::Format(
      "  \"experiments_per_sec_100\": %.1f,\n"
      "  \"mixed_tenants\": %zu,\n  \"mixed_completed\": %zu,\n"
      "  \"mixed_experiments_per_sec\": %.1f,\n"
      "  \"swarm_participants\": %d,\n  \"swarm_wall_seconds\": %.4f,\n"
      "  \"swarm_participants_per_sec\": %.1f,\n"
      "  \"swarm_chat_posts\": %d,\n  \"swarm_viewer_reads\": %d,\n"
      "  \"swarm_failures\": %d\n}\n",
      results.empty() ? 0.0 : results.back().experiments_per_sec,
      mixed.tenants, mixed.completed, mixed.experiments_per_sec,
      swarm.participants, swarm_seconds, participants_per_sec,
      swarm.chat_posts, swarm.viewer_reads, swarm.failures);

  std::FILE* f = std::fopen("BENCH_farm.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_farm.json\n");
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote BENCH_farm.json (%zu tenancy levels + %zu-point worker "
              "sweep + mixed + swarm)\n",
              results.size(), sweep.size());

  std::printf(
      "shape: one container table, one registry, one stream server carry "
      "every tenant;\nnamespaced endpoints keep the per-experiment name "
      "universes disjoint; the worker\nsweep shows how much of the host's "
      "cores the shared fabric lets a wave use.\n");
  return ok ? 0 : 1;
}
