// Deterministic simulation fuzzer for the MOST stack (nees_fuzz).
//
// DeliveryMode::kVirtual turns the whole distributed experiment — RPC
// delivery, retry backoff, backend wakes, proposal-expiry timers —
// into one single-threaded, totally ordered event schedule per seed. This
// harness exploits that: GenerateScenario(seed) derives a random topology,
// per-link latency/jitter/drop models, a step engine, and a fault schedule
// (outage windows, forced drops, lost mplugin.wake notifications, in-flight
// frame corruption, site clock skew, mid-run credential expiry, whole-site
// crash/restarts) from independent Rng lanes; RunFuzzCase wires up a full
// MOST-shaped experiment (coordinator + per-site NTCP server + MPlugin +
// event-driven polling backend) and runs it to completion on virtual time.
// The three MOST-shaped templates are one generator driven by a range table
// per template; the MOST and centrifuge runners share one case skeleton
// (network and tracer, link-fault schedule, teardown, artifacts, oracles).
//
// Event order is pinned: every generated field (FuzzTemplateTest), the
// export and WAL digests, the regression corpus, and the count fields of
// the 100,000-seed campaign (tests/data/campaign_100k.txt, scripts/ci.sh).
// Site handlers still nest: MPlugin::Execute pumps the loop from inside the
// ntcp.execute handler. Over `nees_fuzz --sweep 2000`, 4,800 of 85,121
// executes began while another site's Execute was on the stack (up to 8
// deep), and 2,632 replies left more than one 200us local hop after their
// result was posted. So deferred replies, which would send each reply when
// its result is posted, must move event order and re-pin these once.
//
// Scenario templates (TemplateForSeed makes the choice a pure function of
// the seed, so `nees_fuzz --seed N` replays exactly what a sweep ran):
//   kMini       — small topologies and short runs; the bulk of a campaign,
//                 tuned so a 1-core host clears >500k seeds/hour;
//   kStandard   — the original 3–32 site / 8–24 step generator (pinned
//                 regression seeds 187/49/44/25 live here);
//   kFullMost   — paper-length runs: 1,500 steps (§3's earthquake record)
//                 over 2–4 sites with faults scattered across the full
//                 10-minute virtual horizon;
//   kCentrifuge — the E12 UC Davis campaign: one robot-arm/bender-element
//                 site teleoperated through NTCP, every action a
//                 propose/execute transaction, faults on the operator link.
//
// Oracle stack, checked per case:
//   1. completion    — the fault schedule is survivable by construction
//                      (outages shorter than the retry span, bounded drop
//                      probability), so the run must complete;
//   2. nees-lint     — check::LintSpans replays the trace against the
//                      Fig. 1 protocol rules (at-most-once, legal paths,
//                      step monotonicity, expiry, span nesting);
//   3. exactly-once  — run completion implies every (site, step) executed
//                      exactly once modulo legitimate re-proposals
//                      (check::CheckExactlyOncePerStep);
//   4. determinism   — RunFuzzCaseChecked runs the same seed twice and
//                      requires identical trace/metrics/history fingerprints
//                      (byte-identical artifacts when both runs export).
//
// A failing (seed, fault_mask) pair is shrunk greedily (ShrinkFaultMask)
// to a minimal fault subset that still fails, and ReplayCommand() prints
// the exact `nees_fuzz --seed N --fault-mask 0x.. --template T` line that
// reproduces it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "net/link.h"
#include "psd/coordinator.h"

namespace nees::most {

/// One schedulable fault. Times are virtual micros from the start of the
/// run; `site` indexes the scenario's site list.
struct FuzzFault {
  enum class Kind {
    kOutage,    // coordinator<->site link dead for [at, at+duration)
    kDropNext,  // drop the next `count` messages on one link direction
    kWakeDrop,  // drop the next `count` mplugin.wake notifications
    /// Kill the whole site process at `at_micros` (server, plugin, backend,
    /// wake plumbing; the unsynced WAL tail is lost) and revive it
    /// `duration_micros` later: a fresh stack is built over the surviving
    /// log and NtcpServer::AttachWal replays it (docs/RECOVERY.md). Crash
    /// downtime stays under the coordinator's re-proposal tolerance, so the
    /// completion oracle remains sound; the crash-consistency lint rule
    /// audits the dead window.
    kSiteCrashRestart,
    /// Mutate the next `count` frames in flight on one link direction
    /// (net::Network::CorruptNext): re-encoded through the canonical wire
    /// format, 1–3 bytes flipped or the frame truncated, re-decoded at
    /// arrival. The Decode-boundary CRC must turn every mutation into a
    /// detected loss the retry ladder absorbs — this fault class is what
    /// proved the frame needed a checksum in the first place.
    kFrameCorrupt,
    /// Jump the site's reported clock forward by `duration_micros` at
    /// `at_micros` (an NTP discipline slip). Forward-only, so the skewed
    /// clock stays monotonic; per-server timestamp logic (proposal expiry,
    /// token validation) must tolerate drifting relative to the grid.
    kClockSkew,
    /// The coordinator's session token for the site expires at `at_micros`
    /// (GSI proxy-credential rollover, the E10 path). The site runs a real
    /// AuthService; the NTCP client's auth-refresher hook must re-handshake
    /// and retry instead of failing the run — before that hook existed, a
    /// routine credential rollover killed the experiment.
    kCredentialExpiry,
  };

  Kind kind = Kind::kOutage;
  std::size_t site = 0;
  bool to_site = true;  // directed faults: coordinator->site direction?
  std::int64_t at_micros = 0;
  std::int64_t duration_micros = 0;  // outage/crash: window; skew: offset
  int count = 1;                     // kDropNext / kWakeDrop / kFrameCorrupt

  std::string ToString() const;
};

/// Scenario shape; see the header comment. The template is part of the
/// replay identity: (seed, template, mask) fully determines a run.
enum class FuzzTemplate {
  kMini,
  kStandard,
  kFullMost,
  kCentrifuge,
};

/// The campaign mix: which template `seed` runs under when none is forced.
/// A pure function of the seed (hash lane, no draws shared with scenario
/// generation), weighted so minis dominate the seeds/hour budget while
/// every sweep still exercises the long and centrifuge shapes.
FuzzTemplate TemplateForSeed(std::uint64_t seed);

std::string_view TemplateName(FuzzTemplate t);
/// Parses "mini" / "standard" / "full-most" / "centrifuge" / "auto".
/// "auto" is not a template — callers map it to TemplateForSeed — so it
/// returns false, as does any unknown name.
bool ParseTemplateName(std::string_view name, FuzzTemplate* out);

/// A complete generated test case. Everything downstream (topology, link
/// models, engine, cadences, faults) is a pure function of (seed, shape).
struct FuzzScenario {
  std::uint64_t seed = 0;
  FuzzTemplate shape = FuzzTemplate::kStandard;
  std::size_t sites = 3;
  std::size_t steps = 12;
  psd::StepEngine engine = psd::StepEngine::kAsync;
  std::vector<net::LinkModel> site_links;  // coordinator<->site, per site
  /// MPluginConfig::rewake_micros: how long an unpolled request waits
  /// before its Execute re-sends the lost wake.
  std::int64_t rewake_micros = 250'000;
  std::int64_t expiry_period_micros = 500'000;
  /// kCentrifuge only: piles installed (each = 3 robot transactions, plus a
  /// 3-transaction soil characterization pass before and after every pile).
  std::size_t piles = 0;
  std::vector<FuzzFault> faults;

  /// Multi-line human-readable summary (faults listed with their mask bit).
  std::string Describe() const;
};

/// kStandard generation (the historical entry point; pinned seeds replay
/// through this).
FuzzScenario GenerateScenario(std::uint64_t seed);
/// Generation for an explicit template.
FuzzScenario GenerateScenario(std::uint64_t seed, FuzzTemplate shape);

/// Per-run knobs. The defaults reproduce the full-artifact behaviour the
/// unit tests rely on; sweeps turn exports off (the JSONL string is the
/// single most expensive part of a clean run) and compare fingerprints only
/// on the seeds they replicate (RunFuzzCaseChecked).
struct FuzzRunOptions {
  /// Fill FuzzOutcome::trace_jsonl (the byte-stable JSONL export), the
  /// metrics table, and the trace/metrics/history fingerprints. Off, a
  /// plain RunFuzzCase leaves all of them empty/0 (the centrifuge shape's
  /// history fingerprint excepted: it is folded in during the run).
  /// RunFuzzCaseChecked computes the digests for both of its runs anyway.
  bool export_artifacts = true;
  /// Run oracles 2–3 (nees-lint + exactly-once). Oracles 1 (completion),
  /// 4 (determinism, via RunFuzzCaseChecked) and 5 (lockdep) are always on.
  bool run_oracles = true;
  /// Install the NtcpClient credential-refresh hook (the kCredentialExpiry
  /// fix). Turned off only to reproduce the original bug: with a real
  /// AuthService on the site and no refresher, a mid-run token expiry is a
  /// definitive auth error and the run dies.
  bool install_auth_refresher = true;
};

/// Everything a single run produced, plus the oracle verdicts.
struct FuzzOutcome {
  std::vector<std::string> failures;  // empty == all oracles held
  bool run_completed = false;
  std::size_t steps_completed = 0;
  std::uint64_t step_reattempts = 0;  // max over sites
  std::string trace_jsonl;            // byte-stable export (if exported)
  std::string metrics_table;          // byte-stable metrics report (digests)
  structural::TimeHistory history;
  /// Structural fingerprints (FNV-1a) of the span snapshot, the metrics
  /// table, and the response history — what RunFuzzCaseChecked compares, so
  /// the determinism replica never has to build the JSONL string. Set only
  /// by exporting runs and by RunFuzzCaseChecked (see
  /// FuzzRunOptions::export_artifacts); 0 otherwise.
  std::uint64_t trace_fingerprint = 0;
  std::uint64_t metrics_fingerprint = 0;
  std::uint64_t history_fingerprint = 0;
  net::LinkMetrics net_totals;
  std::uint64_t events_processed = 0;  // virtual loop deliveries + timers
  std::uint64_t wakes = 0;             // backend wake RPCs handled
  std::uint64_t wakes_lost = 0;        // wake notifications the network lost
  std::uint64_t rewakes = 0;           // wakes re-sent for unpolled requests
  // Crash/restart accounting (kSiteCrashRestart faults).
  std::uint64_t site_crashes = 0;      // kill events that found a live site
  std::uint64_t site_recoveries = 0;   // revivals (== crashes when all fire)
  std::uint64_t transactions_recovered = 0;  // rebuilt from WAL replay
  std::uint64_t inflight_failed = 0;   // crash-marked kExecuting -> kFailed
  // New-fault-class accounting.
  std::uint64_t frames_corrupted = 0;  // CorruptNext mutations applied
  std::uint64_t auth_refreshes = 0;    // mid-op credential re-handshakes

  bool ok() const { return failures.empty(); }
};

inline constexpr std::uint64_t kAllFaults = ~0ULL;

/// Runs one scenario on a fresh kVirtual network. Bit i of `fault_mask`
/// enables scenario.faults[i] (faults beyond bit 63 are always enabled;
/// generated schedules stay well under that). Checks oracles 1–3.
FuzzOutcome RunFuzzCase(const FuzzScenario& scenario,
                        std::uint64_t fault_mask = kAllFaults,
                        const FuzzRunOptions& options = FuzzRunOptions());

/// RunFuzzCase twice; adds oracle 4 (same-seed determinism) failures to the
/// first outcome. Both runs compute the metrics table and fingerprints
/// whatever `options.export_artifacts` says; the replica skips the JSONL
/// export and oracles 2–3 (its only job is to produce fingerprints), so a
/// checked clean run costs well under 2x a plain one.
FuzzOutcome RunFuzzCaseChecked(const FuzzScenario& scenario,
                               std::uint64_t fault_mask = kAllFaults,
                               const FuzzRunOptions& options = FuzzRunOptions());

/// Greedy delta-debugging: starting from a failing mask, repeatedly drop
/// single faults while the case still fails, until no single removal keeps
/// it failing. Returns the minimal mask (callers should confirm the input
/// mask actually fails first).
std::uint64_t ShrinkFaultMask(const FuzzScenario& scenario,
                              std::uint64_t failing_mask);

/// Predicate form, for callers that define "fails" themselves (and for
/// testing the shrinker against a synthetic failure without paying for real
/// runs). `fails(mask)` must be deterministic.
std::uint64_t ShrinkFaultMask(std::size_t fault_count,
                              std::uint64_t failing_mask,
                              const std::function<bool(std::uint64_t)>& fails);

/// The exact command line that replays (seed, template, mask).
std::string ReplayCommand(std::uint64_t seed, FuzzTemplate shape,
                          std::uint64_t fault_mask);

std::string_view EngineName(psd::StepEngine engine);

}  // namespace nees::most
