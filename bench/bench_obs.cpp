// E-obs — per-step latency breakdown of a MOST-shaped run (§4, Fig. 9).
//
// The paper reconstructed "where does a 12-second step go?" from
// NTP-synchronized site logs after the fact. Here the obs::Tracer records
// the same breakdown live: the full hybrid MOST topology runs under one
// SimClock used as both the span clock and the modeled clock, so network
// transfer and actuator settling advance simulated time while compute is
// free — the trace is the modeled wide-area timeline, byte-identical
// across runs.
//
// Regenerates: the per-category exclusive-time breakdown (network / settle
// / protocol / simulation / ...), the metrics report, the two-run
// determinism check, and the tracer's overhead on a real-time run as the
// median of paired traced/untraced ratios, in wall and CPU time.
//
//   bench_obs [steps = 150]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "most/most.h"
#include "obs/trace.h"
#include "util/stats.h"
#include "util/strings.h"

using namespace nees;

namespace {

/// Interleaved traced/untraced pairs behind the overhead figure.
constexpr std::size_t kOverheadPairs = 9;

most::MostOptions ShapedOptions(std::size_t steps, obs::Tracer* tracer) {
  most::MostOptions options;
  options.steps = steps;
  options.hybrid = true;
  options.tracer = tracer;
  return options;
}

/// CPU time of the whole process, so work on any thread counts.
double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t steps =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 150;
  std::printf("==== E-obs (§4): per-step latency breakdown, %zu-step hybrid "
              "MOST run ====\n\n", steps);

  // ---- deterministic modeled-time runs ------------------------------------
  auto traced_run = [&](std::string* json, std::string* breakdown,
                        std::string* metrics) {
    util::SimClock sim;
    obs::Tracer tracer(&sim, &sim);  // same clock: deterministic trace
    net::Network network;
    network.SetClock(&sim);
    net::LinkModel wan;
    wan.latency_micros = 20'000;  // one-way site <-> site propagation
    network.SetDefaultLink(wan);
    most::MostExperiment experiment(&network, &sim,
                                    ShapedOptions(steps, &tracer));
    auto report = experiment.Run(psd::FaultPolicy::kFaultTolerant, "e-obs");
    if (!report.ok() || !report->completed) return false;
    *json = tracer.ExportJsonLines();
    *breakdown = tracer.BreakdownTable();
    *metrics = tracer.metrics().ReportTable();
    return true;
  };

  std::string json_a, json_b, breakdown, metrics;
  if (!traced_run(&json_a, &breakdown, &metrics)) return 1;
  {
    std::string unused_breakdown, unused_metrics;
    if (!traced_run(&json_b, &unused_breakdown, &unused_metrics)) return 1;
  }

  std::printf("per-step breakdown (exclusive modeled time per category):\n"
              "%s\n", breakdown.c_str());
  std::printf("metrics:\n%s\n", metrics.c_str());

  const std::size_t trace_lines =
      static_cast<std::size_t>(std::count(json_a.begin(), json_a.end(), '\n'));
  std::printf("determinism: run A and run B traces (%zu spans, %zu bytes) "
              "are %s\n\n",
              trace_lines, json_a.size(),
              json_a == json_b ? "byte-identical" : "DIFFERENT (BUG)");

  // ---- tracer overhead on a real-time run ---------------------------------
  // Same topology on the system clock, with and without the tracer; in
  // kImmediate mode nothing sleeps, so this measures pure tracing cost. One
  // unpaired run reads whatever the host did meanwhile, so the runs come in
  // interleaved traced/untraced pairs (which goes first alternates) and the
  // overhead is each pair's ratio, summarized by median and range.
  struct Cost {
    double wall_ms = -1.0;
    double cpu_ms = 0.0;
  };
  auto wall_run = [&](obs::Tracer* tracer) {
    net::Network network;
    most::MostExperiment experiment(&network, &util::SystemClock::Instance(),
                                    ShapedOptions(steps, tracer));
    const double cpu0 = ProcessCpuMs();
    auto report = experiment.Run(psd::FaultPolicy::kFaultTolerant,
                                 tracer ? "walltraced" : "wallbase");
    Cost cost;
    if (report.ok() && report->completed) {
      cost.wall_ms = report->wall_seconds * 1000.0;
      cost.cpu_ms = ProcessCpuMs() - cpu0;
    }
    return cost;
  };
  std::size_t spans = 0;
  auto traced_wall_run = [&] {
    obs::Tracer tracer(&util::SystemClock::Instance());
    const Cost cost = wall_run(&tracer);
    spans = tracer.span_count();
    return cost;
  };
  if (wall_run(nullptr).wall_ms < 0) return 1;  // warm-up, not counted
  util::SampleStats base_wall, traced_wall, wall_ratio, cpu_ratio;
  for (std::size_t pair = 0; pair < kOverheadPairs; ++pair) {
    Cost base, traced;
    if (pair % 2 == 0) {
      base = wall_run(nullptr);
      traced = traced_wall_run();
    } else {
      traced = traced_wall_run();
      base = wall_run(nullptr);
    }
    if (base.wall_ms < 0 || traced.wall_ms < 0) return 1;
    base_wall.Add(base.wall_ms);
    traced_wall.Add(traced.wall_ms);
    wall_ratio.Add(traced.wall_ms / std::max(base.wall_ms, 1e-6));
    cpu_ratio.Add(traced.cpu_ms / std::max(base.cpu_ms, 1e-6));
  }
  const auto overhead = [](const util::SampleStats& ratio) {
    return util::Format("%+.1f%% median (min %+.1f%%, max %+.1f%%)",
                        100.0 * (ratio.Percentile(50) - 1.0),
                        100.0 * (ratio.min() - 1.0),
                        100.0 * (ratio.max() - 1.0));
  };
  std::printf("tracer overhead (real clock, %zu steps, %zu interleaved "
              "traced/untraced pairs, %zu spans per traced run):\n"
              "  wall: %.1f ms untraced vs %.1f ms traced (medians); "
              "paired ratio %s\n"
              "  cpu:  paired ratio %s\n\n",
              steps, kOverheadPairs, spans, base_wall.Percentile(50),
              traced_wall.Percentile(50), overhead(wall_ratio).c_str(),
              overhead(cpu_ratio).c_str());

  std::printf(
      "shape: the step is actuator settling plus network transfer\n"
      "(4 messages x 3 sites x ~20 ms); every site's server spans nest\n"
      "under its own protocol span, so protocol handling bills 0.0%%, and\n"
      "integration, ingest and streaming are all but free -- the\n"
      "paper's finding.\n");
  return 0;
}
