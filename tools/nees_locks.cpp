// nees_locks: lock-order / lockdep report tool (docs/ANALYSIS.md).
//
//   nees_locks [--seeds N] [--steps N] [--graph] [--allowlist FILE]
//   nees_locks --inject-inversion | --inject-wait
//
// Drives a representative workload — a short MOST experiment (immediate
// delivery, wall clock, both MPlugin backends running inline on the work
// notifier) plus a block of virtual-time
// fuzz scenarios with crash/restart faults — with the lockdep registry
// recording every acquisition. Afterwards it prints how many locks of each
// class the workload thread acquired, the observed lock-order graph
// (--graph), and any violations: lock-order inversions,
// condvar waits while holding another lock, and blocking RPCs issued under
// a lock not covered by the allowlist.
//
// --inject-inversion / --inject-wait deliberately commit the corresponding
// violation on two private lock classes first, proving the detector (and
// the nonzero exit path) works end to end.
//
// Exit codes: 0 clean, 1 violations detected, 2 bad usage,
// 3 lockdep compiled out of this build (NEES_LOCKDEP off; use a
// non-Release build or -DNEES_LOCKDEP=ON).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "most/fuzz.h"
#include "most/most.h"
#include "net/network.h"
#include "util/clock.h"
#include "util/mutex.h"

using namespace nees;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seeds N] [--steps N] [--graph] [--allowlist FILE]\n"
      "       %s --inject-inversion | --inject-wait [--graph]\n"
      "  --seeds N           virtual-time fuzz scenarios to run (default 3)\n"
      "  --steps N           MOST experiment step count (default 60)\n"
      "  --graph             dump the observed lock-order graph to stdout\n"
      "  --allowlist FILE    load allowlist rules before running\n"
      "  --inject-inversion  commit a deliberate A->B / B->A inversion\n"
      "  --inject-wait       commit a deliberate wait-while-holding\n",
      argv0, argv0);
  return 2;
}

// Deliberate A->B then B->A on two private classes; lockdep must flag the
// second ordering as a potential deadlock.
void InjectInversion() {
  util::Mutex a("nees_locks.inject.A");
  util::Mutex b("nees_locks.inject.B");
  {
    util::MutexLock la(a);
    util::MutexLock lb(b);
  }
  {
    util::MutexLock lb(b);
    util::MutexLock la(a);  // inverted: reported here
  }
}

// Deliberate CondVar wait while a second lock is held.
void InjectWaitWhileHolding() {
  util::Mutex outer("nees_locks.inject.outer");
  util::Mutex inner("nees_locks.inject.inner");
  util::CondVar cv;
  util::MutexLock lo(outer);
  util::MutexLock li(inner);
  cv.WaitFor(inner, 1000);  // holds `outer` across the wait: reported
}

// Short end-to-end MOST run on an immediate-delivery network: coordinator,
// three NTCP servers, plugins, the inline polling backends, DAQ pipeline,
// NSDS streaming — every lock class a MOST run takes, on one thread.
int RunMostWorkload(std::size_t steps) {
  net::Network network;
  most::MostOptions options;
  options.steps = steps;
  options.hybrid = true;
  most::MostExperiment experiment(&network, &util::SystemClock::Instance(),
                                  options);
  auto report = experiment.Run(psd::FaultPolicy::kFaultTolerant, "locks");
  if (!report.ok()) {
    std::fprintf(stderr, "MOST workload failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("workload: MOST hybrid run, %zu/%zu steps completed\n",
              report->steps_completed, report->total_steps);
  return 0;
}

// Virtual-time fuzz block: crash/restart + WAL recovery lock paths.
int RunFuzzWorkload(std::uint64_t seeds) {
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const most::FuzzScenario scenario = most::GenerateScenario(seed);
    const most::FuzzOutcome outcome = most::RunFuzzCase(scenario);
    for (const std::string& failure : outcome.failures) {
      // Lockdep findings surface below via the registry; other oracle
      // failures are a workload bug worth knowing about.
      std::fprintf(stderr, "seed %llu oracle: %s\n",
                   static_cast<unsigned long long>(seed), failure.c_str());
    }
  }
  std::printf("workload: %llu fuzz scenario(s) replayed on virtual time\n",
              static_cast<unsigned long long>(seeds));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 3;
  std::size_t steps = 60;
  bool dump_graph = false;
  bool inject_inversion = false;
  bool inject_wait = false;
  const char* allowlist = nullptr;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--graph") == 0) {
      dump_graph = true;
    } else if (std::strcmp(arg, "--inject-inversion") == 0) {
      inject_inversion = true;
    } else if (std::strcmp(arg, "--inject-wait") == 0) {
      inject_wait = true;
    } else if (std::strcmp(arg, "--seeds") == 0 && i + 1 < argc) {
      seeds = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--steps") == 0 && i + 1 < argc) {
      steps = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(arg, "--allowlist") == 0 && i + 1 < argc) {
      allowlist = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }

  if (!util::lockdep::kEnabled) {
    std::fprintf(stderr,
                 "nees_locks: lockdep is compiled out of this build "
                 "(NEES_LOCKDEP off). Rebuild with -DNEES_LOCKDEP=ON or a "
                 "non-Release config.\n");
    return 3;
  }

  if (allowlist != nullptr &&
      !util::lockdep::LoadAllowlistFile(allowlist)) {
    std::fprintf(stderr, "nees_locks: cannot read allowlist file %s\n",
                 allowlist);
    return 2;
  }

  if (inject_inversion || inject_wait) {
    if (inject_inversion) InjectInversion();
    if (inject_wait) InjectWaitWhileHolding();
  } else {
    if (int rc = RunMostWorkload(steps); rc != 0) return rc;
    if (int rc = RunFuzzWorkload(seeds); rc != 0) return rc;
    std::printf("\nlock acquisitions on the workload thread, per class:\n");
    util::lockdep::DumpAcquisitions(std::cout,
                                    util::lockdep::ThreadAcquisitions());
  }

  if (dump_graph) {
    std::printf("\n");
    util::lockdep::DumpGraph(std::cout);
  }

  const auto violations = util::lockdep::Violations();
  std::printf("\nlock classes: %zu   order edges: %zu   violations: %zu\n",
              util::lockdep::ClassCount(), util::lockdep::EdgeCount(),
              violations.size());
  for (const auto& violation : violations) {
    std::printf("VIOLATION: %s\n", violation.description.c_str());
  }
  return violations.empty() ? 0 : 1;
}
