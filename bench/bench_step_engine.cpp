// E13 — §5: the completion-driven step engine. The paper identifies
// serialized NTCP round trips and fixed-interval backend polling as the
// barrier between pseudo-dynamic and near-real-time hybrid testing. The
// async engine issues every site's request and multiplexes the
// completions on the coordinator thread, so a phase costs one round trip
// regardless of site count.
//
// This sweep measures steps/sec and per-phase latency over 3 -> 128
// simulated sites, under both delivery modes:
//   * kImmediate  — async engine, no modeled latency; isolates pure engine
//                   overhead (host steps/sec);
//   * kVirtual    — 1 ms one-way links (the WAN model), sequential vs
//                   async engine. Phase latency and modeled steps/sec are
//                   read from the network's virtual clock (exact and
//                   deterministic); host steps/sec — what the simulation
//                   costs on this machine — sits next to them.
//
// A final pair of runs measures the write-ahead-log tax (docs/RECOVERY.md):
// the same async/immediate workload with every NTCP server and the
// coordinator logging + syncing each durable transition, so the recovery
// guarantee has a price tag next to it.
//
// Emits BENCH_step_engine.json (machine-readable perf trajectory) and
// exits non-zero unless, under the virtual WAN model at every site count,
// every async propose and execute phase costs exactly one modeled RTT and
// every sequential phase exactly sites x RTT.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/network.h"
#include "ntcp/server.h"
#include "plugins/simulation_plugin.h"
#include "psd/coordinator.h"
#include "structural/substructure.h"
#include "util/frame_pool.h"
#include "util/stats.h"
#include "util/strings.h"
#include "wal/wal.h"

using namespace nees;

namespace {

std::unique_ptr<plugins::SimulationPlugin> ElasticPlugin() {
  auto plugin = std::make_unique<plugins::SimulationPlugin>();
  structural::Matrix k(1, 1);
  k(0, 0) = 1e6;
  plugin->AddControlPoint(
      "cp", std::make_unique<structural::ElasticSubstructure>(k));
  return plugin;
}

constexpr std::int64_t kWanOneWayMicros = 1'000;  // 2 ms RTT

const char* EngineName(psd::StepEngine engine) {
  return engine == psd::StepEngine::kAsync ? "async" : "sequential";
}

struct RunResult {
  std::size_t sites = 0;
  std::string engine;
  std::string mode;
  /// Host wall-clock rate: what a step costs to simulate on this machine.
  double steps_per_sec = 0.0;
  /// kVirtual only: steps per second of modeled time (0 in kImmediate).
  double modeled_steps_per_sec = 0.0;
  /// Phase latency on the coordinator's clock: wall time in kImmediate,
  /// modeled time in kVirtual. min/max back the exact-RTT gate.
  double propose_phase_ms = 0.0;
  double execute_phase_ms = 0.0;
  double propose_phase_min_us = 0.0;
  double propose_phase_max_us = 0.0;
  double execute_phase_min_us = 0.0;
  double execute_phase_max_us = 0.0;
  std::uint64_t wal_records = 0;
  /// Wire-frame buffers newly allocated per step (FramePool minted delta
  /// over the run / steps). Near zero once the pool is warm: the E13
  /// "zero per-step heap allocation" evidence.
  double frames_per_step = 0.0;
  bool wal = false;
  bool completed = false;
};

RunResult RunOnce(std::size_t site_count, psd::StepEngine engine,
                  net::DeliveryMode mode, int steps, bool with_wal = false) {
  RunResult out;
  out.sites = site_count;
  out.engine = EngineName(engine);
  out.mode = mode == net::DeliveryMode::kImmediate ? "immediate" : "virtual";
  out.wal = with_wal;

  net::Network network(mode);
  const bool modeled = mode == net::DeliveryMode::kVirtual;
  if (modeled) {
    net::LinkModel wan;
    wan.latency_micros = kWanOneWayMicros;
    network.SetDefaultLink(wan);
  }
  // kImmediate: the wall clock; kVirtual: the network's modeled timeline.
  util::Clock* clock = network.clock();

  std::vector<std::unique_ptr<ntcp::NtcpServer>> servers;
  psd::CoordinatorConfig config;
  config.run_id = out.engine + "-" + out.mode + "-" +
                  std::to_string(site_count);
  config.mass = structural::Matrix::Identity(1) * 5e4;
  config.damping = structural::Matrix::Identity(1) * 1e4;
  config.iota = {1.0};
  config.motion = structural::SinePulse(0.02, steps, 1.0, 1.0);
  config.step_engine = engine;
  if (with_wal) config.run_id = "wal-" + config.run_id;
  std::vector<std::unique_ptr<wal::MemoryStorage>> wal_storages;
  std::vector<std::unique_ptr<wal::Log>> wal_logs;
  auto attach_wal = [&](auto& target) -> bool {
    wal_storages.push_back(std::make_unique<wal::MemoryStorage>());
    wal_logs.push_back(std::make_unique<wal::Log>(wal_storages.back().get()));
    return target.AttachWal(wal_logs.back().get()).ok();
  };
  for (std::size_t i = 0; i < site_count; ++i) {
    const std::string endpoint =
        config.run_id + ".site" + std::to_string(i);
    auto server = std::make_unique<ntcp::NtcpServer>(&network, endpoint,
                                                     ElasticPlugin(), clock);
    if (!server->Start().ok()) return out;
    if (with_wal && !attach_wal(*server)) return out;
    servers.push_back(std::move(server));
    config.sites.push_back(
        {util::Format("S%zu", i), endpoint, "cp", {0}});
  }

  net::RpcClient rpc(&network, config.run_id + ".coordinator");
  psd::SimulationCoordinator coordinator(config, &rpc, clock);
  if (with_wal && !attach_wal(coordinator)) return out;
  const util::FramePool::Stats frames_before = util::FramePool::Instance().stats();
  const std::int64_t modeled_t0 = clock->NowMicros();
  const psd::RunReport report = coordinator.Run();
  const std::int64_t modeled_micros = clock->NowMicros() - modeled_t0;
  const util::FramePool::Stats frames_after = util::FramePool::Instance().stats();
  out.completed = report.completed;
  if (!report.completed || report.wall_seconds <= 0.0) return out;
  out.steps_per_sec = report.steps_completed / report.wall_seconds;
  if (modeled && modeled_micros > 0) {
    out.modeled_steps_per_sec =
        report.steps_completed / (modeled_micros / 1e6);
  }
  if (report.steps_completed > 0) {
    out.frames_per_step =
        static_cast<double>(frames_after.minted - frames_before.minted) /
        static_cast<double>(report.steps_completed);
  }
  out.propose_phase_ms = report.propose_phase_micros.mean() / 1000.0;
  out.execute_phase_ms = report.execute_phase_micros.mean() / 1000.0;
  out.propose_phase_min_us = report.propose_phase_micros.min();
  out.propose_phase_max_us = report.propose_phase_micros.max();
  out.execute_phase_min_us = report.execute_phase_micros.min();
  out.execute_phase_max_us = report.execute_phase_micros.max();
  out.wal_records = report.wal_records;
  for (const auto& server : servers) {
    out.wal_records += server->stats().wal_records;
  }
  return out;
}

void AppendJson(std::string& json, const RunResult& r, bool last) {
  json += util::Format(
      "    {\"sites\": %zu, \"engine\": \"%s\", \"mode\": \"%s\", "
      "\"steps_per_sec\": %.1f, \"modeled_steps_per_sec\": %.1f, "
      "\"propose_phase_ms_mean\": %.3f, "
      "\"execute_phase_ms_mean\": %.3f, "
      "\"frames_per_step\": %.3f, "
      "\"wal\": %s, \"wal_records\": %llu, \"completed\": %s}%s\n",
      r.sites, r.engine.c_str(), r.mode.c_str(), r.steps_per_sec,
      r.modeled_steps_per_sec, r.propose_phase_ms, r.execute_phase_ms,
      r.frames_per_step, r.wal ? "true" : "false",
      static_cast<unsigned long long>(r.wal_records),
      r.completed ? "true" : "false", last ? "" : ",");
}

/// Steps per timed run. Immediate-mode async steps are ~150 us, so a long
/// run amortizes cold-start costs (frame pool, call pool, CPU ramp) that
/// would otherwise dominate a 120-step sample. Virtual-time phase costs are
/// exact, so a short run suffices there.
int StepsFor(net::DeliveryMode mode) {
  return mode == net::DeliveryMode::kVirtual ? 25 : 1000;
}

/// --quick: regression gate. Re-measures the 32-site async immediate point
/// and fails (exit 1) if it lands > 20% below the committed baseline JSON.
int RunQuickGate(const char* baseline_path) {
  // Best of two samples: a single sub-second run can read 10-15% low on a
  // loaded box, which would spuriously trip the 20% floor.
  RunResult r;
  for (int rep = 0; rep < 2; ++rep) {
    RunResult sample =
        RunOnce(32, psd::StepEngine::kAsync, net::DeliveryMode::kImmediate,
                StepsFor(net::DeliveryMode::kImmediate));
    if (!sample.completed) {
      std::fprintf(stderr,
                   "quick gate: 32-site async immediate run failed\n");
      return 1;
    }
    if (rep == 0 || sample.steps_per_sec > r.steps_per_sec) r = sample;
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
    // First non-WAL 32-site async immediate run in the committed JSON.
    if (std::strstr(line, "\"sites\": 32") == nullptr) continue;
    if (std::strstr(line, "\"engine\": \"async\"") == nullptr) continue;
    if (std::strstr(line, "\"mode\": \"immediate\"") == nullptr) continue;
    if (std::strstr(line, "\"wal\": false") == nullptr) continue;
    const char* key = std::strstr(line, "\"steps_per_sec\": ");
    if (key != nullptr && std::sscanf(key, "\"steps_per_sec\": %lf",
                                      &baseline) == 1) {
      break;
    }
  }
  std::fclose(f);
  if (baseline <= 0.0) {
    std::fprintf(stderr, "quick gate: no 32-site async immediate baseline "
                 "in %s\n", baseline_path);
    return 1;
  }
  const double floor = 0.8 * baseline;
  std::printf("quick gate: 32-site async immediate %.1f steps/s "
              "(baseline %.1f, floor %.1f), %.3f frames/step\n",
              r.steps_per_sec, baseline, floor, r.frames_per_step);
  if (r.steps_per_sec < floor) {
    std::fprintf(stderr, "FAIL: steps/s regressed > 20%% below the "
                 "committed baseline\n");
    return 1;
  }
  std::printf("quick gate OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--quick") == 0) {
    return RunQuickGate(argc > 2 ? argv[2] : "BENCH_step_engine.json");
  }
  std::printf("==== E13 (§5): step-engine scaling, 3 -> 128 sites ====\n\n");

  // Discarded warm-up: the first run otherwise pays one-time costs
  // (frame/call pools, branch warm-up) that can depress its sample.
  RunOnce(3, psd::StepEngine::kAsync, net::DeliveryMode::kImmediate, 50);

  const std::vector<std::size_t> site_counts = {3, 8, 16, 32, 64, 128};
  std::vector<RunResult> results;

  // ---- immediate delivery: pure engine overhead ---------------------------
  {
    util::TextTable table({"sites", "engine", "steps/sec", "propose [ms]",
                           "execute [ms]", "frames minted/step"});
    for (const std::size_t sites : site_counts) {
      // Sub-second runs: report the best of three samples.
      RunResult r;
      for (int rep = 0; rep < 3; ++rep) {
        RunResult sample =
            RunOnce(sites, psd::StepEngine::kAsync,
                    net::DeliveryMode::kImmediate,
                    StepsFor(net::DeliveryMode::kImmediate));
        if (!sample.completed) {
          r = sample;
          break;
        }
        if (rep == 0 || sample.steps_per_sec > r.steps_per_sec) r = sample;
      }
      if (!r.completed) {
        std::fprintf(stderr, "run failed: %zu sites, async, immediate\n",
                     sites);
        return 1;
      }
      table.AddRow({std::to_string(r.sites), r.engine,
                    util::Format("%.1f", r.steps_per_sec),
                    util::Format("%.3f", r.propose_phase_ms),
                    util::Format("%.3f", r.execute_phase_ms),
                    util::Format("%.3f", r.frames_per_step)});
      results.push_back(r);
    }
    std::printf("---- immediate delivery (engine overhead only)\n\n%s\n",
                table.ToString().c_str());
  }

  // ---- virtual delivery: the WAN model in modeled time --------------------
  {
    util::TextTable table({"sites", "engine", "modeled steps/sec",
                           "propose [ms]", "execute [ms]",
                           "host steps/sec"});
    for (const psd::StepEngine engine :
         {psd::StepEngine::kSequential, psd::StepEngine::kAsync}) {
      for (const std::size_t sites : site_counts) {
        const RunResult r = RunOnce(sites, engine,
                                    net::DeliveryMode::kVirtual,
                                    StepsFor(net::DeliveryMode::kVirtual));
        if (!r.completed) {
          std::fprintf(stderr, "run failed: %zu sites, %s, virtual\n",
                       sites, EngineName(engine));
          return 1;
        }
        table.AddRow({std::to_string(r.sites), r.engine,
                      util::Format("%.1f", r.modeled_steps_per_sec),
                      util::Format("%.3f", r.propose_phase_ms),
                      util::Format("%.3f", r.execute_phase_ms),
                      util::Format("%.1f", r.steps_per_sec)});
        results.push_back(r);
      }
    }
    std::printf("---- virtual delivery, 1 ms one-way (WAN model, modeled "
                "time)\n\n%s\n", table.ToString().c_str());
  }

  // ---- WAL overhead (docs/RECOVERY.md) -----------------------------------
  // Same workload, every durable transition logged + synced: the price of
  // the crash-recovery guarantee, measured where it is most visible (no
  // modeled network latency to hide behind).
  const RunResult bare = RunOnce(8, psd::StepEngine::kAsync,
                                 net::DeliveryMode::kImmediate, 120);
  const RunResult walled = RunOnce(8, psd::StepEngine::kAsync,
                                   net::DeliveryMode::kImmediate, 120,
                                   /*with_wal=*/true);
  if (!bare.completed || !walled.completed) {
    std::fprintf(stderr, "WAL overhead run failed\n");
    return 1;
  }
  results.push_back(bare);
  results.push_back(walled);
  const double wal_overhead_pct =
      100.0 * (bare.steps_per_sec / walled.steps_per_sec - 1.0);
  std::printf(
      "---- WAL overhead (async engine, immediate delivery, 8 sites)\n\n"
      "  no wal : %8.1f steps/sec\n"
      "  wal    : %8.1f steps/sec  (%llu records logged)\n"
      "  overhead: %.1f%% per step for the crash-recovery guarantee\n\n",
      bare.steps_per_sec, walled.steps_per_sec,
      static_cast<unsigned long long>(walled.wal_records), wal_overhead_pct);

  // ---- machine-readable trajectory record --------------------------------
  std::string json = "{\n  \"experiment\": \"E13\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    AppendJson(json, results[i], i + 1 == results.size());
  }
  json += "  ]\n}\n";
  std::FILE* f = std::fopen("BENCH_step_engine.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_step_engine.json\n");
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote BENCH_step_engine.json (%zu runs)\n\n", results.size());

  // ---- acceptance gates ---------------------------------------------------
  // Deterministic: under the virtual WAN model every async phase costs
  // exactly one modeled RTT at every site count, and every sequential
  // phase exactly sites x RTT.
  bool ok = true;
  constexpr double kRttMicros = 2.0 * kWanOneWayMicros;
  for (const RunResult& r : results) {
    if (r.mode != "virtual") continue;
    const double expected =
        r.engine == "async" ? kRttMicros
                            : static_cast<double>(r.sites) * kRttMicros;
    const bool exact = r.propose_phase_min_us == expected &&
                       r.propose_phase_max_us == expected &&
                       r.execute_phase_min_us == expected &&
                       r.execute_phase_max_us == expected;
    if (!exact) {
      std::fprintf(stderr,
                   "FAIL: %s engine at %zu sites: phases %.0f-%.0f / "
                   "%.0f-%.0f us (propose / execute), expected exactly "
                   "%.0f us\n",
                   r.engine.c_str(), r.sites, r.propose_phase_min_us,
                   r.propose_phase_max_us, r.execute_phase_min_us,
                   r.execute_phase_max_us, expected);
      ok = false;
    }
  }
  if (walled.wal_records == 0) {
    std::fprintf(stderr, "FAIL: WAL run logged no records\n");
    ok = false;
  }
  std::printf(
      "shape: under the WAN model the async engine holds every phase at\n"
      "one modeled RTT from 3 to 128 sites, while the sequential engine\n"
      "pays one RTT per site — the scaling the §5 near-real-time work\n"
      "needs. In-process, the async engine's cost per step grows with the\n"
      "number of sites it frames and multiplexes.\n");
  return ok ? 0 : 1;
}
