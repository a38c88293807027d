// E-lint — protocol conformance of the full hybrid MOST trace, plus proof
// that nees-lint catches deliberately seeded protocol damage.
//
// Two halves, both exit-code-checked so CI can gate on this binary:
//
//   1. A 150-step hybrid MOST run under one SimClock exports its trace and
//      must lint CLEAN: every transaction walks a legal Fig. 1 path to a
//      terminal state, no step skips, no double executes, no bogus expiry.
//   2. Four corruptions are seeded into copies of that trace (illegal
//      transition, duplicate execute, skipped step, bogus expiry); the
//      linter must report exactly the expected rule set for each — no
//      misses, no false cascades.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "check/checker.h"
#include "check/corrupt.h"
#include "most/most.h"
#include "obs/trace.h"
#include "util/clock.h"

using namespace nees;

namespace {

bool RunHybridMost(std::size_t steps, std::vector<obs::SpanRecord>* spans,
                   double* wall_seconds) {
  util::SimClock sim;
  obs::Tracer tracer(&sim, &sim);
  net::Network network;
  network.SetClock(&sim);
  net::LinkModel wan;
  wan.latency_micros = 20'000;
  network.SetDefaultLink(wan);
  most::MostOptions options;
  options.steps = steps;
  options.hybrid = true;
  options.tracer = &tracer;
  most::MostExperiment experiment(&network, &sim, options);
  const util::Stopwatch watch;
  auto report = experiment.Run(psd::FaultPolicy::kFaultTolerant, "e-lint");
  *wall_seconds = watch.ElapsedSeconds();
  if (!report.ok() || !report->completed) return false;
  *spans = tracer.TakeSpans();
  return true;
}

std::string RuleSetString(const check::LintReport& report) {
  std::set<std::string> names;
  for (const check::Violation& violation : report.violations) {
    names.insert(std::string(check::RuleName(violation.rule)));
  }
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ",";
    out += name;
  }
  return out.empty() ? "(none)" : out;
}

bool CheckSeeded(const char* label,
                 const util::Result<std::vector<obs::SpanRecord>>& corrupted,
                 const std::set<check::Rule>& expected) {
  if (!corrupted.ok()) {
    std::printf("  %-20s SEEDING FAILED: %s\n", label,
                corrupted.status().ToString().c_str());
    return false;
  }
  const check::LintReport report = check::LintSpans(*corrupted);
  std::set<check::Rule> got;
  for (const check::Violation& violation : report.violations) {
    got.insert(violation.rule);
  }
  const bool ok = got == expected;
  std::printf("  %-20s %s — %zu violation(s), rules: %s\n", label,
              ok ? "CAUGHT" : "WRONG RULE SET", report.violations.size(),
              RuleSetString(report).c_str());
  if (!ok) {
    for (const check::Violation& violation : report.violations) {
      std::printf("    %s\n", violation.ToString().c_str());
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t steps =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 150;
  std::printf("==== E-lint: protocol conformance of a %zu-step hybrid MOST "
              "trace ====\n\n", steps);

  std::vector<obs::SpanRecord> spans;
  double run_seconds = 0.0;
  if (!RunHybridMost(steps, &spans, &run_seconds)) {
    std::printf("hybrid MOST run failed\n");
    return 1;
  }

  // ---- clean trace must lint clean ----------------------------------------
  const util::Stopwatch lint_watch;
  const check::LintReport clean = check::LintSpans(spans);
  const double lint_seconds = lint_watch.ElapsedSeconds();
  std::printf("fresh trace: %zu spans, %zu protocol events, %zu transactions "
              "across %zu endpoints -> %s\n",
              clean.stats.spans, clean.stats.protocol_events,
              clean.stats.transactions, clean.stats.endpoints,
              clean.ok() ? "CLEAN" : "VIOLATIONS (BUG)");
  if (!clean.ok()) {
    std::printf("%s\n", clean.ToString().c_str());
    return 1;
  }
  std::printf("throughput: run %.1f ms, lint %.3f ms (%.0f spans/ms)\n\n",
              run_seconds * 1000, lint_seconds * 1000,
              static_cast<double>(clean.stats.spans) /
                  std::max(lint_seconds * 1000, 1e-9));

  // ---- seeded corruptions must each be caught -----------------------------
  std::printf("seeded corruptions (expected rule set vs reported):\n");
  bool all_caught = true;
  all_caught &= CheckSeeded("illegal-transition",
                            check::SeedIllegalTransition(spans),
                            {check::Rule::kIllegalTransition});
  all_caught &= CheckSeeded("duplicate-execute",
                            check::SeedDuplicateExecute(spans),
                            {check::Rule::kIllegalTransition,
                             check::Rule::kDuplicateExecute});
  all_caught &= CheckSeeded("skipped-step", check::SeedSkippedStep(spans),
                            {check::Rule::kStepMonotonicity});
  all_caught &= CheckSeeded("bogus-expiry",
                            check::SeedBogusExpiry(spans),
                            {check::Rule::kBogusExpiry});

  std::printf("\n%s\n", all_caught
                            ? "all seeded violations caught with exact rule "
                              "sets; fresh trace clean."
                            : "LINT GAP: a seeded violation was missed.");
  return all_caught ? 0 : 1;
}
