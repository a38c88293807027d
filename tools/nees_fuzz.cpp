// nees_fuzz: deterministic simulation fuzzer for the MOST stack.
//
//   nees_fuzz --seed N [--fault-mask HEX] [--template T] [-v]
//   nees_fuzz --smoke [--seeds N] [--start S] [-v]        fixed seed block
//   nees_fuzz --sweep N [--start S] [-v]                  open-ended sweep
//   nees_fuzz --campaign [--seeds M] [--workers W]        sharded sweep
//   nees_fuzz --corpus FILE [-v]                          pinned regressions
//
// Each seed expands (via most::GenerateScenario) into a random experiment
// shaped by its template — mini, standard (3–32 sites), full-most (the
// paper's 1,500-step record), or centrifuge (the E12 UC Davis campaign) —
// with per-link latency/jitter/drop, outage windows, forced drops, lost
// mplugin.wake notifications, in-flight frame corruption, site clock skew,
// mid-run credential expiry, and whole-site crash/restarts recovered
// through the write-ahead log (docs/RECOVERY.md). Runs execute on a
// DeliveryMode::kVirtual network against the oracle stack (completion,
// nees-lint protocol rules, exactly-once-per-site-per-step, same-seed
// fingerprint determinism; see src/most/fuzz.h).
//
// The template is a pure function of the seed (unless --template forces
// one), and campaign shards are `seed % workers` — so any failure a worker
// finds replays bit-identically with the printed single-seed command.
// Sweeps check the determinism oracle on every 8th seed (also a pure
// function of the seed); --seed and --corpus always run it.
//
// On failure the fault schedule is greedily shrunk to a minimal repro and
// the exact replay command is printed. Exit codes: 0 all seeds clean,
// 1 oracle failure (or a crashed campaign worker), 2 bad usage.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "most/fuzz.h"
#include "util/clock.h"
#include "util/strings.h"

using namespace nees;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --seed N [--fault-mask HEX] [--template T] [-v]\n"
      "       %s --smoke [--seeds N] [--start S] [-v]\n"
      "       %s --sweep N [--start S] [-v]\n"
      "       %s --campaign [--seeds M] [--workers W] [--start S]\n"
      "       %s --corpus FILE [-v]\n"
      "  --seed N         run (and shrink on failure) a single seed\n"
      "  --fault-mask HEX enable only the fault-schedule bits set in HEX\n"
      "  --template T     mini|standard|full-most|centrifuge|auto\n"
      "                   (default auto: the campaign mix, a pure function\n"
      "                   of the seed)\n"
      "  --smoke          CI block: seeds S..S+N-1 (default 1..200)\n"
      "  --sweep N        same as --smoke with an explicit seed count\n"
      "  --campaign       fork W workers over seed shard `seed %% W`\n"
      "  --workers W      campaign process count (default: online CPUs)\n"
      "  --seeds N        seed count for --smoke/--campaign\n"
      "  --start S        first seed of a block (default 1)\n"
      "  --corpus FILE    replay pinned seeds (lines: seed mask template)\n"
      "  -v               print each scenario before running it\n",
      argv0, argv0, argv0, argv0, argv0);
  return 2;
}

void PrintFailure(const most::FuzzScenario& scenario,
                  const most::FuzzOutcome& outcome, std::uint64_t mask) {
  std::fprintf(stderr, "FAIL seed=%llu fault-mask=0x%llx\n",
               static_cast<unsigned long long>(scenario.seed),
               static_cast<unsigned long long>(mask));
  std::fprintf(stderr, "%s", scenario.Describe().c_str());
  for (const std::string& failure : outcome.failures) {
    std::fprintf(stderr, "  oracle: %s\n", failure.c_str());
  }
}

struct SweepTotals {
  std::uint64_t events = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t transactions_recovered = 0;
  std::uint64_t inflight_failed = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t auth_refreshes = 0;
  std::uint64_t rewakes = 0;
  std::uint64_t checked_runs = 0;  // seeds that also ran the replica
  std::uint64_t by_template[4] = {0, 0, 0, 0};
  std::vector<std::string> replays;  // shrunk repro commands for failures
};

/// Runs one seed through the oracle stack; on failure shrinks the fault
/// schedule and prints (and records) the minimal replay command. Returns
/// true when every oracle held. `thorough` (single-seed / corpus modes)
/// always runs the determinism replica and keeps full artifacts; sweeps
/// sample the replica on every 8th seed and skip the JSONL export.
bool RunSeed(std::uint64_t seed, std::uint64_t mask,
             const most::FuzzTemplate* forced, bool verbose, bool thorough,
             SweepTotals* totals) {
  const most::FuzzTemplate shape =
      forced != nullptr ? *forced : most::TemplateForSeed(seed);
  const most::FuzzScenario scenario = most::GenerateScenario(seed, shape);
  if (verbose) std::printf("%s", scenario.Describe().c_str());

  most::FuzzRunOptions options;
  options.export_artifacts = thorough;
  const bool check = thorough || seed % 8 == 0;
  const most::FuzzOutcome outcome =
      check ? most::RunFuzzCaseChecked(scenario, mask, options)
            : most::RunFuzzCase(scenario, mask, options);
  if (totals != nullptr) {
    totals->events += (check ? 2 : 1) * outcome.events_processed;
    totals->crashes += outcome.site_crashes;
    totals->recoveries += outcome.site_recoveries;
    totals->transactions_recovered += outcome.transactions_recovered;
    totals->inflight_failed += outcome.inflight_failed;
    totals->frames_corrupted += outcome.frames_corrupted;
    totals->auth_refreshes += outcome.auth_refreshes;
    totals->rewakes += outcome.rewakes;
    totals->checked_runs += check ? 1 : 0;
    totals->by_template[static_cast<int>(shape)] += 1;
  }
  if (outcome.ok()) return true;

  PrintFailure(scenario, outcome, mask);
  const std::uint64_t shrunk = most::ShrinkFaultMask(scenario, mask);
  std::fprintf(stderr, "shrunk fault schedule (mask 0x%llx):\n",
               static_cast<unsigned long long>(shrunk));
  for (std::size_t i = 0; i < scenario.faults.size(); ++i) {
    if (i < 64 && (shrunk & (1ULL << i)) == 0) continue;
    std::fprintf(stderr, "  [bit %zu] %s\n", i,
                 scenario.faults[i].ToString().c_str());
  }
  const std::string replay = most::ReplayCommand(seed, shape, shrunk);
  std::fprintf(stderr, "replay: %s\n", replay.c_str());
  if (totals != nullptr) totals->replays.push_back(replay);
  return false;
}

std::string TemplateMix(const SweepTotals& totals) {
  return util::Format(
      "%llu mini / %llu standard / %llu full-most / %llu centrifuge",
      static_cast<unsigned long long>(
          totals.by_template[static_cast<int>(most::FuzzTemplate::kMini)]),
      static_cast<unsigned long long>(
          totals.by_template[static_cast<int>(most::FuzzTemplate::kStandard)]),
      static_cast<unsigned long long>(
          totals.by_template[static_cast<int>(most::FuzzTemplate::kFullMost)]),
      static_cast<unsigned long long>(
          totals
              .by_template[static_cast<int>(most::FuzzTemplate::kCentrifuge)]));
}

// --- campaign worker protocol ------------------------------------------------
// Each forked worker runs its shard and writes exactly one JSON line to its
// pipe; the parent reads to EOF, merges, and reaps. Replay commands contain
// no characters needing JSON escapes, so both sides stay trivial.

std::string WorkerJson(int worker, std::uint64_t ran, std::uint64_t failures,
                       const SweepTotals& totals, double elapsed_s) {
  std::string replays;
  for (std::size_t i = 0; i < totals.replays.size(); ++i) {
    if (i > 0) replays += ",";
    replays += "\"" + totals.replays[i] + "\"";
  }
  return util::Format(
      "{\"worker\":%d,\"seeds\":%llu,\"failures\":%llu,\"checked\":%llu,"
      "\"events\":%llu,\"crashes\":%llu,\"recoveries\":%llu,"
      "\"txns_replayed\":%llu,\"crash_marked\":%llu,"
      "\"frames_corrupted\":%llu,\"auth_refreshes\":%llu,\"rewakes\":%llu,"
      "\"mini\":%llu,\"standard\":%llu,\"full_most\":%llu,"
      "\"centrifuge\":%llu,\"elapsed_s\":%.3f,\"replays\":[%s]}\n",
      worker, static_cast<unsigned long long>(ran),
      static_cast<unsigned long long>(failures),
      static_cast<unsigned long long>(totals.checked_runs),
      static_cast<unsigned long long>(totals.events),
      static_cast<unsigned long long>(totals.crashes),
      static_cast<unsigned long long>(totals.recoveries),
      static_cast<unsigned long long>(totals.transactions_recovered),
      static_cast<unsigned long long>(totals.inflight_failed),
      static_cast<unsigned long long>(totals.frames_corrupted),
      static_cast<unsigned long long>(totals.auth_refreshes),
      static_cast<unsigned long long>(totals.rewakes),
      static_cast<unsigned long long>(
          totals.by_template[static_cast<int>(most::FuzzTemplate::kMini)]),
      static_cast<unsigned long long>(
          totals.by_template[static_cast<int>(most::FuzzTemplate::kStandard)]),
      static_cast<unsigned long long>(
          totals.by_template[static_cast<int>(most::FuzzTemplate::kFullMost)]),
      static_cast<unsigned long long>(
          totals
              .by_template[static_cast<int>(most::FuzzTemplate::kCentrifuge)]),
      elapsed_s, replays.c_str());
}

std::uint64_t JsonU64(const std::string& json, const char* key) {
  const std::string pattern = std::string("\"") + key + "\":";
  const std::size_t at = json.find(pattern);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + pattern.size(), nullptr, 10);
}

std::vector<std::string> JsonStrings(const std::string& json,
                                     const char* key) {
  std::vector<std::string> out;
  const std::string pattern = std::string("\"") + key + "\":[";
  std::size_t at = json.find(pattern);
  if (at == std::string::npos) return out;
  at += pattern.size();
  while (at < json.size() && json[at] != ']') {
    if (json[at] == '"') {
      const std::size_t end = json.find('"', at + 1);
      if (end == std::string::npos) break;
      out.push_back(json.substr(at + 1, end - at - 1));
      at = end + 1;
    } else {
      ++at;
    }
  }
  return out;
}

/// The sharded multi-process sweep driver. Workers are forked (no exec:
/// the child keeps running this binary's code), each owns the seeds with
/// `seed % workers == w`, and the parent aggregates their JSON summaries.
/// A worker that dies on a signal (ASan abort, crash) fails the campaign
/// even if every seed it reported was clean.
int RunCampaign(std::uint64_t start, std::uint64_t count, int workers,
                std::uint64_t mask, const most::FuzzTemplate* forced,
                bool verbose) {
  if (workers < 1) workers = 1;
  if (static_cast<std::uint64_t>(workers) > count && count > 0) {
    workers = static_cast<int>(count);
  }

  const util::Stopwatch watch;
  std::fflush(nullptr);  // don't let forks duplicate buffered output

  std::vector<pid_t> pids;
  std::vector<int> read_fds;
  for (int w = 0; w < workers; ++w) {
    int fds[2];
    if (pipe(fds) != 0) {
      std::perror("nees_fuzz: pipe");
      return 1;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("nees_fuzz: fork");
      return 1;
    }
    if (pid == 0) {
      // --- worker ----------------------------------------------------------
      close(fds[0]);
      for (const int fd : read_fds) close(fd);
      SweepTotals totals;
      std::uint64_t ran = 0;
      std::uint64_t failures = 0;
      const util::Stopwatch worker_watch;
      for (std::uint64_t s = start; s < start + count; ++s) {
        if (s % static_cast<std::uint64_t>(workers) !=
            static_cast<std::uint64_t>(w)) {
          continue;
        }
        ++ran;
        if (!RunSeed(s, mask, forced, verbose, /*thorough=*/false, &totals)) {
          ++failures;
        }
      }
      const std::string json =
          WorkerJson(w, ran, failures, totals, worker_watch.ElapsedSeconds());
      std::size_t written = 0;
      while (written < json.size()) {
        const ssize_t n =
            write(fds[1], json.data() + written, json.size() - written);
        if (n <= 0) break;
        written += static_cast<std::size_t>(n);
      }
      close(fds[1]);
      std::fflush(nullptr);
      _exit(failures == 0 ? 0 : 1);
    }
    close(fds[1]);
    pids.push_back(pid);
    read_fds.push_back(fds[0]);
  }

  // --- parent: drain every pipe, then reap -----------------------------------
  SweepTotals merged;
  std::uint64_t total_ran = 0;
  std::uint64_t total_failures = 0;
  std::uint64_t total_checked = 0;
  bool workers_healthy = true;
  for (int w = 0; w < workers; ++w) {
    std::string json;
    char buffer[4096];
    for (;;) {
      const ssize_t n = read(read_fds[w], buffer, sizeof(buffer));
      if (n <= 0) break;
      json.append(buffer, static_cast<std::size_t>(n));
    }
    close(read_fds[w]);
    if (json.empty()) {
      std::fprintf(stderr, "campaign: worker %d produced no summary\n", w);
      workers_healthy = false;
      continue;
    }
    total_ran += JsonU64(json, "seeds");
    total_failures += JsonU64(json, "failures");
    total_checked += JsonU64(json, "checked");
    merged.events += JsonU64(json, "events");
    merged.crashes += JsonU64(json, "crashes");
    merged.recoveries += JsonU64(json, "recoveries");
    merged.transactions_recovered += JsonU64(json, "txns_replayed");
    merged.inflight_failed += JsonU64(json, "crash_marked");
    merged.frames_corrupted += JsonU64(json, "frames_corrupted");
    merged.auth_refreshes += JsonU64(json, "auth_refreshes");
    merged.rewakes += JsonU64(json, "rewakes");
    merged.by_template[static_cast<int>(most::FuzzTemplate::kMini)] +=
        JsonU64(json, "mini");
    merged.by_template[static_cast<int>(most::FuzzTemplate::kStandard)] +=
        JsonU64(json, "standard");
    merged.by_template[static_cast<int>(most::FuzzTemplate::kFullMost)] +=
        JsonU64(json, "full_most");
    merged.by_template[static_cast<int>(most::FuzzTemplate::kCentrifuge)] +=
        JsonU64(json, "centrifuge");
    for (std::string& replay : JsonStrings(json, "replays")) {
      merged.replays.push_back(std::move(replay));
    }
  }
  for (int w = 0; w < workers; ++w) {
    int status = 0;
    if (waitpid(pids[w], &status, 0) < 0) {
      std::perror("nees_fuzz: waitpid");
      workers_healthy = false;
      continue;
    }
    if (WIFSIGNALED(status)) {
      std::fprintf(stderr, "campaign: worker %d killed by signal %d\n", w,
                   WTERMSIG(status));
      workers_healthy = false;
    } else if (WIFEXITED(status) && WEXITSTATUS(status) > 1) {
      std::fprintf(stderr, "campaign: worker %d exited with status %d\n", w,
                   WEXITSTATUS(status));
      workers_healthy = false;
    }
  }

  const double elapsed = watch.ElapsedSeconds();
  const double per_hour = elapsed > 0.0 ? 3600.0 * total_ran / elapsed : 0.0;
  std::printf(
      "campaign: %llu seeds (%llu..%llu) across %d workers, %llu failures, "
      "%llu determinism-checked, %llu virtual events\n"
      "  mix: %s\n"
      "  faults: %llu crashes / %llu recoveries, %llu txns replayed, "
      "%llu crash-marked, %llu frames corrupted, %llu auth refreshes, "
      "%llu re-wakes\n"
      "  %.2fs wall (%.0f seeds/hour)\n",
      static_cast<unsigned long long>(total_ran),
      static_cast<unsigned long long>(start),
      static_cast<unsigned long long>(start + count - 1), workers,
      static_cast<unsigned long long>(total_failures),
      static_cast<unsigned long long>(total_checked),
      static_cast<unsigned long long>(merged.events),
      TemplateMix(merged).c_str(),
      static_cast<unsigned long long>(merged.crashes),
      static_cast<unsigned long long>(merged.recoveries),
      static_cast<unsigned long long>(merged.transactions_recovered),
      static_cast<unsigned long long>(merged.inflight_failed),
      static_cast<unsigned long long>(merged.frames_corrupted),
      static_cast<unsigned long long>(merged.auth_refreshes),
      static_cast<unsigned long long>(merged.rewakes), elapsed, per_hour);
  for (const std::string& replay : merged.replays) {
    std::printf("  replay: %s\n", replay.c_str());
  }
  if (total_ran != count) {
    std::fprintf(stderr, "campaign: expected %llu seeds, workers ran %llu\n",
                 static_cast<unsigned long long>(count),
                 static_cast<unsigned long long>(total_ran));
    workers_healthy = false;
  }
  return (total_failures == 0 && workers_healthy) ? 0 : 1;
}

/// Replays the pinned regression corpus: one line per entry,
/// `seed fault-mask-hex template`, '#' starts a comment. Every entry runs
/// the full thorough oracle stack (these seeds each caught a real bug once;
/// they must never regress silently).
int RunCorpus(const char* path, bool verbose) {
  std::FILE* file = std::fopen(path, "r");
  if (file == nullptr) {
    std::fprintf(stderr, "nees_fuzz: cannot open corpus %s\n", path);
    return 2;
  }
  const util::Stopwatch watch;
  SweepTotals totals;
  std::uint64_t entries = 0;
  std::uint64_t failures = 0;
  char line[512];
  int line_number = 0;
  int rc = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    ++line_number;
    if (char* comment = std::strchr(line, '#')) *comment = '\0';
    char seed_token[64] = {0};
    char mask_token[64] = {0};
    char template_token[64] = {0};
    const int fields =
        std::sscanf(line, "%63s %63s %63s", seed_token, mask_token,
                    template_token);
    if (fields <= 0) continue;  // blank / comment-only line
    most::FuzzTemplate shape = most::FuzzTemplate::kStandard;
    if (fields != 3 ||
        (std::strcmp(template_token, "auto") != 0 &&
         !most::ParseTemplateName(template_token, &shape))) {
      std::fprintf(stderr, "%s:%d: want `seed mask template`, got: %s\n", path,
                   line_number, line);
      rc = 2;
      continue;
    }
    const std::uint64_t seed = std::strtoull(seed_token, nullptr, 0);
    const std::uint64_t mask = std::strtoull(mask_token, nullptr, 16);
    if (std::strcmp(template_token, "auto") == 0) {
      shape = most::TemplateForSeed(seed);
    }
    ++entries;
    if (!RunSeed(seed, mask, &shape, verbose, /*thorough=*/true, &totals)) {
      ++failures;
    }
  }
  std::fclose(file);
  std::printf(
      "corpus: %llu pinned seeds, %llu failures, %llu virtual events, "
      "%llu crashes / %llu recoveries, %llu frames corrupted, "
      "%llu auth refreshes, %llu re-wakes, %.2fs\n",
      static_cast<unsigned long long>(entries),
      static_cast<unsigned long long>(failures),
      static_cast<unsigned long long>(totals.events),
      static_cast<unsigned long long>(totals.crashes),
      static_cast<unsigned long long>(totals.recoveries),
      static_cast<unsigned long long>(totals.frames_corrupted),
      static_cast<unsigned long long>(totals.auth_refreshes),
      static_cast<unsigned long long>(totals.rewakes),
      watch.ElapsedSeconds());
  if (rc != 0) return rc;
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool have_seed = false;
  bool block_mode = false;
  bool campaign_mode = false;
  bool verbose = false;
  bool have_template = false;
  const char* corpus_path = nullptr;
  most::FuzzTemplate forced_template = most::FuzzTemplate::kStandard;
  std::uint64_t seed = 0;
  std::uint64_t start = 1;
  std::uint64_t count = 0;
  bool have_count = false;
  int workers = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  std::uint64_t mask = most::kAllFaults;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      have_seed = true;
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--fault-mask") == 0 && i + 1 < argc) {
      mask = std::strtoull(argv[++i], nullptr, 16);
    } else if (std::strcmp(argv[i], "--template") == 0 && i + 1 < argc) {
      const char* name = argv[++i];
      if (std::strcmp(name, "auto") == 0) {
        have_template = false;
      } else if (most::ParseTemplateName(name, &forced_template)) {
        have_template = true;
      } else {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      block_mode = true;
    } else if (std::strcmp(argv[i], "--sweep") == 0 && i + 1 < argc) {
      block_mode = true;
      have_count = true;
      count = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--campaign") == 0) {
      campaign_mode = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
    } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      have_count = true;
      count = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--start") == 0 && i + 1 < argc) {
      start = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--corpus") == 0 && i + 1 < argc) {
      corpus_path = argv[++i];
    } else if (std::strcmp(argv[i], "-v") == 0) {
      verbose = true;
    } else {
      return Usage(argv[0]);
    }
  }
  const int modes = (have_seed ? 1 : 0) + (block_mode ? 1 : 0) +
                    (campaign_mode ? 1 : 0) + (corpus_path != nullptr ? 1 : 0);
  if (modes != 1) return Usage(argv[0]);
  const most::FuzzTemplate* forced = have_template ? &forced_template : nullptr;

  if (corpus_path != nullptr) return RunCorpus(corpus_path, verbose);

  if (campaign_mode) {
    if (!have_count) count = 2000;
    if (count == 0) return Usage(argv[0]);
    return RunCampaign(start, count, workers, mask, forced, verbose);
  }

  util::Stopwatch watch;
  SweepTotals totals;

  if (have_seed) {
    const bool ok = RunSeed(seed, mask, forced, verbose, /*thorough=*/true,
                            &totals);
    const most::FuzzTemplate shape =
        forced != nullptr ? *forced : most::TemplateForSeed(seed);
    std::printf(
        "seed %llu (%s): %s (%llu virtual events, %llu crashes / %llu "
        "recoveries, %llu txns replayed, %llu crash-marked, %llu frames "
        "corrupted, %llu auth refreshes, %llu re-wakes, %.2fs)\n",
        static_cast<unsigned long long>(seed),
        std::string(most::TemplateName(shape)).c_str(), ok ? "OK" : "FAIL",
        static_cast<unsigned long long>(totals.events),
        static_cast<unsigned long long>(totals.crashes),
        static_cast<unsigned long long>(totals.recoveries),
        static_cast<unsigned long long>(totals.transactions_recovered),
        static_cast<unsigned long long>(totals.inflight_failed),
        static_cast<unsigned long long>(totals.frames_corrupted),
        static_cast<unsigned long long>(totals.auth_refreshes),
        static_cast<unsigned long long>(totals.rewakes),
        watch.ElapsedSeconds());
    return ok ? 0 : 1;
  }

  if (!have_count) count = 200;
  std::uint64_t failures = 0;
  for (std::uint64_t s = start; s < start + count; ++s) {
    if (!RunSeed(s, mask, forced, verbose, /*thorough=*/false, &totals)) {
      ++failures;
    }
  }
  const double elapsed = watch.ElapsedSeconds();
  const double per_hour = elapsed > 0.0 ? 3600.0 * count / elapsed : 0.0;
  std::printf(
      "fuzz: %llu seeds (%llu..%llu), %llu failures, %llu virtual events, "
      "%llu crashes / %llu recoveries, %llu txns replayed, %llu crash-marked, "
      "%llu frames corrupted, %llu auth refreshes, %llu re-wakes, mix %s, "
      "%.2fs (%.0f seeds/hour)\n",
      static_cast<unsigned long long>(count),
      static_cast<unsigned long long>(start),
      static_cast<unsigned long long>(start + count - 1),
      static_cast<unsigned long long>(failures),
      static_cast<unsigned long long>(totals.events),
      static_cast<unsigned long long>(totals.crashes),
      static_cast<unsigned long long>(totals.recoveries),
      static_cast<unsigned long long>(totals.transactions_recovered),
      static_cast<unsigned long long>(totals.inflight_failed),
      static_cast<unsigned long long>(totals.frames_corrupted),
      static_cast<unsigned long long>(totals.auth_refreshes),
      static_cast<unsigned long long>(totals.rewakes),
      TemplateMix(totals).c_str(), elapsed, per_hour);
  return failures == 0 ? 0 : 1;
}
