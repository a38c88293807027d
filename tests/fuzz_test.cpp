// Tests for the deterministic simulation fuzzer (src/most/fuzz.h): scenario
// generation hygiene, the oracle stack on known seeds, same-seed byte
// determinism, and regression pins for the nastiest generated schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "most/fuzz.h"
#include "most/most.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/sha256.h"
#include "util/strings.h"

namespace nees::most {
namespace {

// --- scenario generation -----------------------------------------------------

TEST(FuzzScenarioTest, SameSeedSameScenario) {
  const FuzzScenario a = GenerateScenario(7);
  const FuzzScenario b = GenerateScenario(7);
  EXPECT_EQ(a.Describe(), b.Describe());
}

TEST(FuzzScenarioTest, DifferentSeedsDiffer) {
  EXPECT_NE(GenerateScenario(1).Describe(), GenerateScenario(2).Describe());
}

TEST(FuzzScenarioTest, ParametersStayInBounds) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const FuzzScenario s = GenerateScenario(seed);
    EXPECT_GE(s.sites, 3u) << seed;
    EXPECT_LE(s.sites, 32u) << seed;
    EXPECT_GE(s.steps, 8u) << seed;
    EXPECT_LE(s.steps, 24u) << seed;
    EXPECT_EQ(s.site_links.size(), s.sites) << seed;
    // 8 base + 2 crash + 2 corrupt + 1 skew + 1 credential-expiry.
    EXPECT_LE(s.faults.size(), 14u) << seed;
    for (const net::LinkModel& link : s.site_links) {
      EXPECT_LE(link.drop_probability, 0.05) << seed;
    }
    for (const FuzzFault& f : s.faults) {
      EXPECT_LT(f.site, s.sites) << seed;
      if (f.kind == FuzzFault::Kind::kOutage) {
        // Survivability bound: outages must stay under the retry span.
        EXPECT_LE(f.duration_micros, 1'500'000) << seed;
      }
    }
  }
}

TEST(FuzzScenarioTest, ReplayCommandFormatsMask) {
  EXPECT_EQ(ReplayCommand(187, FuzzTemplate::kStandard, 0xd),
            "nees_fuzz --seed 187 --template standard --fault-mask 0xd");
  EXPECT_EQ(ReplayCommand(9, FuzzTemplate::kCentrifuge, kAllFaults),
            "nees_fuzz --seed 9 --template centrifuge "
            "--fault-mask 0xffffffffffffffff");
}

// --- templates ---------------------------------------------------------------

TEST(FuzzTemplateTest, TemplateForSeedIsPureAndMiniDominated) {
  std::size_t by_template[4] = {0, 0, 0, 0};
  for (std::uint64_t seed = 1; seed <= 4096; ++seed) {
    const FuzzTemplate t = TemplateForSeed(seed);
    EXPECT_EQ(t, TemplateForSeed(seed)) << seed;
    by_template[static_cast<int>(t)] += 1;
  }
  // The campaign mix: minis carry the seeds/hour budget, but every shape
  // must actually appear in a sweep of a few thousand seeds.
  EXPECT_GT(by_template[static_cast<int>(FuzzTemplate::kMini)], 3200u);
  EXPECT_GT(by_template[static_cast<int>(FuzzTemplate::kStandard)], 0u);
  EXPECT_GT(by_template[static_cast<int>(FuzzTemplate::kFullMost)], 0u);
  EXPECT_GT(by_template[static_cast<int>(FuzzTemplate::kCentrifuge)], 0u);
}

TEST(FuzzTemplateTest, TemplateNamesRoundTrip) {
  for (FuzzTemplate t : {FuzzTemplate::kMini, FuzzTemplate::kStandard,
                         FuzzTemplate::kFullMost, FuzzTemplate::kCentrifuge}) {
    FuzzTemplate parsed;
    ASSERT_TRUE(ParseTemplateName(TemplateName(t), &parsed))
        << TemplateName(t);
    EXPECT_EQ(parsed, t);
  }
  FuzzTemplate parsed;
  // "auto" means TemplateForSeed, not a template; unknown names also fail.
  EXPECT_FALSE(ParseTemplateName("auto", &parsed));
  EXPECT_FALSE(ParseTemplateName("mostly-harmless", &parsed));
}

TEST(FuzzTemplateTest, SameSeedDiffersAcrossTemplates) {
  EXPECT_NE(GenerateScenario(7, FuzzTemplate::kMini).Describe(),
            GenerateScenario(7, FuzzTemplate::kStandard).Describe());
  const FuzzScenario cent = GenerateScenario(7, FuzzTemplate::kCentrifuge);
  EXPECT_EQ(cent.sites, 1u);
  EXPECT_GE(cent.piles, 4u);
  EXPECT_LE(cent.piles, 12u);
}

TEST(FuzzTemplateTest, NewFaultClassesAppearInGeneratedSchedules) {
  bool corrupt = false, skew = false, creds = false;
  for (std::uint64_t seed = 1; seed <= 64 && !(corrupt && skew && creds);
       ++seed) {
    for (const FuzzFault& f : GenerateScenario(seed).faults) {
      corrupt |= f.kind == FuzzFault::Kind::kFrameCorrupt;
      skew |= f.kind == FuzzFault::Kind::kClockSkew;
      creds |= f.kind == FuzzFault::Kind::kCredentialExpiry;
    }
  }
  EXPECT_TRUE(corrupt);
  EXPECT_TRUE(skew);
  EXPECT_TRUE(creds);
}

// SHA-256 over every field of seeds 1-2,000 of one template: integers as
// 8 little-endian bytes, doubles by bit pattern (Describe() rounds the drop
// probability, so it would miss a shifted draw).
std::string ScenarioDigest(FuzzTemplate shape) {
  util::Sha256 sha;
  const auto word = [&sha](std::uint64_t v) {
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    sha.Update(bytes, sizeof bytes);
  };
  const auto real = [&word](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    word(bits);
  };
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    const FuzzScenario s = GenerateScenario(seed, shape);
    word(s.seed);
    word(static_cast<std::uint64_t>(s.shape));
    word(s.sites);
    word(s.steps);
    word(static_cast<std::uint64_t>(s.engine));
    word(static_cast<std::uint64_t>(s.rewake_micros));
    word(static_cast<std::uint64_t>(s.expiry_period_micros));
    word(s.piles);
    word(s.site_links.size());
    for (const net::LinkModel& m : s.site_links) {
      word(static_cast<std::uint64_t>(m.latency_micros));
      word(static_cast<std::uint64_t>(m.jitter_micros));
      real(m.drop_probability);
      real(m.bytes_per_second);
    }
    word(s.faults.size());
    for (const FuzzFault& f : s.faults) {
      word(static_cast<std::uint64_t>(f.kind));
      word(f.site);
      word(f.to_site ? 1 : 0);
      word(static_cast<std::uint64_t>(f.at_micros));
      word(static_cast<std::uint64_t>(f.duration_micros));
      word(static_cast<std::uint64_t>(f.count));
    }
  }
  const util::Sha256Digest digest = sha.Finish();
  std::string hex;
  for (const std::uint8_t b : digest) hex += util::Format("%02x", b);
  return hex;
}

// Pins every generated field, so a change to the generator that moves any
// draw of any template fails here before it reaches a run.
TEST(FuzzTemplateTest, GeneratedScenariosArePinned) {
  EXPECT_EQ(ScenarioDigest(FuzzTemplate::kMini),
            "eed6042f288f7f3e6d7fb84e7d226e5c6d80c0055ce5ccb701cd08d92900c1d3");
  EXPECT_EQ(ScenarioDigest(FuzzTemplate::kStandard),
            "559f50d3f669fd872a74ddee5c1d004651a16470e052d515dd563fb32112aeee");
  EXPECT_EQ(ScenarioDigest(FuzzTemplate::kFullMost),
            "f335605efc238d9dc14deaeaa39b39eaa6e90c7fc89b8ba95db1952c5d92a20c");
  EXPECT_EQ(ScenarioDigest(FuzzTemplate::kCentrifuge),
            "426f34f0a773a647a6b323eb57d61ed9d864aacfb92611c59d305369025b7f5a");
}

// --- shrinker ----------------------------------------------------------------

TEST(FuzzShrinkTest, ShrinksToMinimalFailingSubset) {
  // Synthetic deterministic failure: the case fails iff bits 0 and 2 are
  // both enabled. Greedy single-bit removal from the full 6-fault mask must
  // land exactly on {0,2}: a minimal set where dropping any one bit makes
  // the case pass.
  const auto fails = [](std::uint64_t mask) {
    return (mask & 0b101ULL) == 0b101ULL;
  };
  const std::uint64_t shrunk = ShrinkFaultMask(6, 0b111111ULL, fails);
  EXPECT_EQ(shrunk, 0b101ULL);
  EXPECT_TRUE(fails(shrunk));
  for (std::size_t bit = 0; bit < 6; ++bit) {
    if ((shrunk >> bit) & 1ULL) {
      EXPECT_FALSE(fails(shrunk & ~(1ULL << bit))) << bit;
    }
  }
}

TEST(FuzzShrinkTest, SingleFaultFailureKeepsThatFault) {
  const auto fails = [](std::uint64_t mask) { return (mask & 0b10ULL) != 0; };
  EXPECT_EQ(ShrinkFaultMask(4, 0b1111ULL, fails), 0b10ULL);
}

// --- oracle stack ------------------------------------------------------------

TEST(FuzzRunTest, ZeroFaultScenarioPassesAllOracles) {
  FuzzScenario s = GenerateScenario(3);
  s.faults.clear();
  const FuzzOutcome outcome = RunFuzzCaseChecked(s);
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? ""
                                    : outcome.failures.front());
  EXPECT_TRUE(outcome.run_completed);
  // The central-difference loop consumes one motion sample to initialize.
  EXPECT_GE(outcome.steps_completed, s.steps - 1);
  EXPECT_GT(outcome.events_processed, 0u);
}

TEST(FuzzRunTest, SmallSeedBlockPassesAllOracles) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const FuzzOutcome outcome =
        RunFuzzCaseChecked(GenerateScenario(seed));
    EXPECT_TRUE(outcome.ok())
        << "seed " << seed << ": "
        << (outcome.failures.empty() ? "" : outcome.failures.front());
    EXPECT_TRUE(outcome.run_completed) << "seed " << seed;
  }
}

TEST(FuzzRunTest, FaultMaskDisablesFaults) {
  // Same seed with all faults masked off behaves like the zero-fault case:
  // it must still complete (the mask only ever removes adversity).
  const FuzzScenario s = GenerateScenario(5);
  ASSERT_FALSE(s.faults.empty());
  const FuzzOutcome outcome = RunFuzzCase(s, 0);
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? ""
                                    : outcome.failures.front());
  EXPECT_EQ(outcome.net_totals.dropped_outage, 0u);
}

// Same fuzz seed twice in-process yields byte-identical span traces, metrics
// snapshots, and displacement histories. Default (exporting) options, so the
// metrics tables are filled and compared.
TEST(FuzzRunTest, SameSeedIsByteIdentical) {
  const FuzzScenario s = GenerateScenario(11);
  const FuzzOutcome a = RunFuzzCase(s);
  const FuzzOutcome b = RunFuzzCase(s);
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
  EXPECT_FALSE(a.metrics_table.empty());
  EXPECT_EQ(a.metrics_table, b.metrics_table);
  EXPECT_EQ(a.history.displacement, b.history.displacement);
  EXPECT_EQ(a.history.velocity, b.history.velocity);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.wakes, b.wakes);
  EXPECT_EQ(a.rewakes, b.rewakes);
}

// Digests are paid for only where something reads them: exporting runs and
// the determinism replica.
TEST(FuzzRunTest, UnexportedRunSkipsDigests) {
  FuzzRunOptions options;
  options.export_artifacts = false;
  for (const FuzzTemplate shape :
       {FuzzTemplate::kMini, FuzzTemplate::kCentrifuge}) {
    const FuzzOutcome outcome =
        RunFuzzCase(GenerateScenario(11, shape), kAllFaults, options);
    EXPECT_TRUE(outcome.ok()) << TemplateName(shape);
    EXPECT_TRUE(outcome.trace_jsonl.empty());
    EXPECT_TRUE(outcome.metrics_table.empty());
    EXPECT_EQ(outcome.trace_fingerprint, 0u);
    EXPECT_EQ(outcome.metrics_fingerprint, 0u);
    if (shape != FuzzTemplate::kCentrifuge) {
      // The centrifuge's measured digest is folded in during the run.
      EXPECT_EQ(outcome.history_fingerprint, 0u);
    }
  }
}

TEST(FuzzRunTest, CheckedRunComputesDigestsWithoutExports) {
  FuzzRunOptions quiet;
  quiet.export_artifacts = false;
  for (const FuzzTemplate shape :
       {FuzzTemplate::kMini, FuzzTemplate::kCentrifuge}) {
    const FuzzScenario s = GenerateScenario(11, shape);
    const FuzzOutcome checked = RunFuzzCaseChecked(s, kAllFaults, quiet);
    const FuzzOutcome exported = RunFuzzCase(s);
    EXPECT_TRUE(checked.ok()) << TemplateName(shape);
    EXPECT_TRUE(checked.trace_jsonl.empty());
    EXPECT_FALSE(checked.metrics_table.empty());
    EXPECT_NE(checked.trace_fingerprint, 0u);
    EXPECT_NE(checked.metrics_fingerprint, 0u);
    EXPECT_NE(checked.history_fingerprint, 0u);
    EXPECT_EQ(checked.metrics_table, exported.metrics_table);
    EXPECT_EQ(checked.trace_fingerprint, exported.trace_fingerprint);
    EXPECT_EQ(checked.metrics_fingerprint, exported.metrics_fingerprint);
    EXPECT_EQ(checked.history_fingerprint, exported.history_fingerprint);
  }
}

// --- crash/restart fault class -----------------------------------------------

TEST(FuzzScenarioTest, CrashFaultsRideAfterBaseFaults) {
  // The crash lane is forked independently and appended after the base
  // faults, so pre-existing (seed, fault-mask) repro commands keep their
  // bit meanings; crash downtime stays under the coordinator's re-proposal
  // tolerance so the completion oracle remains sound.
  // Lane append order: base faults, then crashes, then the corruption /
  // skew / credential lanes. Each class added later rides strictly after
  // every earlier one, so mask bits never shift for pre-existing repros.
  const auto lane_rank = [](FuzzFault::Kind k) {
    switch (k) {
      case FuzzFault::Kind::kOutage:
      case FuzzFault::Kind::kDropNext:
      case FuzzFault::Kind::kWakeDrop:
        return 0;
      case FuzzFault::Kind::kSiteCrashRestart:
        return 1;
      case FuzzFault::Kind::kFrameCorrupt:
        return 2;
      case FuzzFault::Kind::kClockSkew:
        return 3;
      case FuzzFault::Kind::kCredentialExpiry:
        return 4;
    }
    return -1;
  };
  std::size_t scenarios_with_crashes = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const FuzzScenario s = GenerateScenario(seed);
    int prev_rank = 0;
    bool seen_crash = false;
    for (const FuzzFault& f : s.faults) {
      EXPECT_GE(lane_rank(f.kind), prev_rank)
          << seed << ": " << f.ToString() << " out of lane order";
      prev_rank = lane_rank(f.kind);
      if (f.kind != FuzzFault::Kind::kSiteCrashRestart) continue;
      seen_crash = true;
      EXPECT_GE(f.duration_micros, 250'000) << seed;
      EXPECT_LE(f.duration_micros, 1'200'000) << seed;
    }
    if (seen_crash) ++scenarios_with_crashes;
  }
  EXPECT_GT(scenarios_with_crashes, 0u);
}

TEST(FuzzRunTest, CrashRestartMidTransactionCompletes) {
  // Seed 54 kills a site while a transaction is executing: the revived
  // incarnation replays its WAL, crash-marks the in-flight transaction,
  // and the coordinator re-drives the step — all four oracles must hold.
  const FuzzScenario s = GenerateScenario(54);
  const FuzzOutcome outcome = RunFuzzCaseChecked(s);
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? ""
                                    : outcome.failures.front());
  EXPECT_TRUE(outcome.run_completed);
  EXPECT_GT(outcome.site_crashes, 0u);
  EXPECT_EQ(outcome.site_recoveries, outcome.site_crashes);
  EXPECT_GT(outcome.transactions_recovered, 0u);
  EXPECT_GE(outcome.inflight_failed, 1u);  // died mid-execute
}

// The plugin's re-wake is a backstop for lost wakes only: a seed whose
// wakes all arrive never re-sends one, and a seed that loses a wake
// recovers through a re-wake. A crash can clear the queue before the
// interval ends, so seeds with a site crash sit out the second check.
TEST(FuzzRunTest, RewakesOnlyBackUpLostWakes) {
  FuzzRunOptions options;
  options.export_artifacts = false;
  options.run_oracles = false;
  std::size_t without_drop = 0;
  std::size_t lost = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const FuzzTemplate shape = TemplateForSeed(seed);
    if (shape != FuzzTemplate::kMini && shape != FuzzTemplate::kStandard) {
      continue;
    }
    const FuzzScenario s = GenerateScenario(seed, shape);
    const bool drops_wakes = std::any_of(
        s.faults.begin(), s.faults.end(), [](const FuzzFault& f) {
          return f.kind == FuzzFault::Kind::kWakeDrop;
        });
    const FuzzOutcome outcome = RunFuzzCase(s, kAllFaults, options);
    ASSERT_TRUE(outcome.run_completed) << seed;
    if (!drops_wakes) {
      ++without_drop;
      EXPECT_EQ(outcome.wakes_lost, 0u) << seed;
      EXPECT_EQ(outcome.rewakes, 0u) << seed;
    } else if (outcome.wakes_lost > 0 && outcome.site_crashes == 0) {
      ++lost;
      EXPECT_GE(outcome.rewakes, 1u) << seed;
    }
  }
  std::printf("%zu seeds without a wake drop, %zu that lost a wake\n",
              without_drop, lost);
  EXPECT_GT(without_drop, 100u);
  EXPECT_GT(lost, 50u);
}

TEST(FuzzRunTest, UpFrontLoginOutlastsTheFaultsArmedOnItsLink) {
  // Before the run starts the GSI handshake is the only traffic on its
  // link, so it absorbs every loss armed there. Seed 273080: a random
  // drop, a three-frame corruption burst and four sends refused while the
  // site is crashed. Seed 363472: three corrupted requests, three dropped
  // replies and random loss. Eight attempts ran out on both.
  for (const std::uint64_t seed : {273080u, 363472u}) {
    const FuzzOutcome outcome =
        RunFuzzCaseChecked(GenerateScenario(seed, FuzzTemplate::kMini));
    EXPECT_TRUE(outcome.ok()) << seed << ": "
                              << (outcome.failures.empty()
                                      ? ""
                                      : outcome.failures.front());
    EXPECT_TRUE(outcome.run_completed) << seed;
    EXPECT_EQ(outcome.frames_corrupted, 3u) << seed;
  }
}

TEST(FuzzRunTest, CrashStatsAreDeterministic) {
  const FuzzScenario s = GenerateScenario(54);
  const FuzzOutcome a = RunFuzzCase(s);
  const FuzzOutcome b = RunFuzzCase(s);
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
  EXPECT_EQ(a.site_crashes, b.site_crashes);
  EXPECT_EQ(a.site_recoveries, b.site_recoveries);
  EXPECT_EQ(a.transactions_recovered, b.transactions_recovered);
  EXPECT_EQ(a.inflight_failed, b.inflight_failed);
}

TEST(FuzzRunTest, MaskingCrashBitsDisablesCrashes) {
  const FuzzScenario s = GenerateScenario(25);
  std::uint64_t mask = kAllFaults;
  for (std::size_t i = 0; i < s.faults.size() && i < 64; ++i) {
    if (s.faults[i].kind == FuzzFault::Kind::kSiteCrashRestart) {
      mask &= ~(1ULL << i);
    }
  }
  const FuzzOutcome outcome = RunFuzzCase(s, mask);
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? ""
                                    : outcome.failures.front());
  EXPECT_EQ(outcome.site_crashes, 0u);
  EXPECT_EQ(outcome.transactions_recovered, 0u);
}

// --- frame corruption fault class --------------------------------------------

TEST(FuzzRunTest, FrameCorruptionIsAbsorbedByCrcAndRetries) {
  // A clean scenario plus one corruption burst on the coordinator->site
  // link: every mutated frame must either fail the Decode CRC (a detected
  // loss the retry ladder absorbs) or parse as a valid frame — never crash
  // or wedge the run. All four oracles must hold.
  FuzzScenario s = GenerateScenario(3);
  s.faults.clear();
  FuzzFault f;
  f.kind = FuzzFault::Kind::kFrameCorrupt;
  f.site = 0;
  f.to_site = true;
  f.at_micros = 200'000;
  f.count = 3;
  s.faults.push_back(f);
  const FuzzOutcome outcome = RunFuzzCaseChecked(s);
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? ""
                                    : outcome.failures.front());
  EXPECT_TRUE(outcome.run_completed);
  EXPECT_GT(outcome.frames_corrupted, 0u);
}

TEST(FuzzRunTest, MaskingCorruptBitDisablesCorruption) {
  FuzzScenario s = GenerateScenario(3);
  s.faults.clear();
  FuzzFault f;
  f.kind = FuzzFault::Kind::kFrameCorrupt;
  f.site = 0;
  f.at_micros = 200'000;
  f.count = 3;
  s.faults.push_back(f);
  const FuzzOutcome outcome = RunFuzzCase(s, 0);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.frames_corrupted, 0u);
}

// --- clock skew fault class --------------------------------------------------

TEST(FuzzRunTest, ClockSkewKeepsOraclesSound) {
  // Jump one site's clock 2.5s ahead mid-run (an NTP discipline slip). The
  // skewed clock is forward-only, so per-server timestamp logic (proposal
  // expiry, token validation) drifts relative to the grid but never sees
  // time move backwards; the run must stay correct and deterministic.
  FuzzScenario s = GenerateScenario(3);
  s.faults.clear();
  FuzzFault f;
  f.kind = FuzzFault::Kind::kClockSkew;
  f.site = 0;
  f.at_micros = 300'000;
  f.duration_micros = 2'500'000;
  s.faults.push_back(f);
  const FuzzOutcome outcome = RunFuzzCaseChecked(s);
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? ""
                                    : outcome.failures.front());
  EXPECT_TRUE(outcome.run_completed);
}

// --- credential expiry fault class -------------------------------------------

namespace {
FuzzScenario CredentialExpiryScenario() {
  FuzzScenario s = GenerateScenario(3);
  s.faults.clear();
  FuzzFault f;
  f.kind = FuzzFault::Kind::kCredentialExpiry;
  f.site = 0;
  // Short token lifetime: the session token minted at login expires long
  // before the run finishes, so some mid-run operation WILL hit
  // kUnauthenticated.
  f.at_micros = 150'000;
  s.faults.push_back(f);
  return s;
}
}  // namespace

TEST(FuzzRunTest, CredentialExpiryWithoutRefresherKillsTheRun) {
  // The original E10 bug: a routine proxy-credential rollover mid-run is a
  // definitive auth error, and without the refresh hook the step fails
  // permanently. This pins the bug the fault class was built to find.
  FuzzRunOptions options;
  options.install_auth_refresher = false;
  const FuzzOutcome outcome =
      RunFuzzCase(CredentialExpiryScenario(), kAllFaults, options);
  EXPECT_FALSE(outcome.ok());
  EXPECT_FALSE(outcome.run_completed);
}

TEST(FuzzRunTest, CredentialExpiryWithRefresherCompletes) {
  const FuzzOutcome outcome = RunFuzzCaseChecked(CredentialExpiryScenario());
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? ""
                                    : outcome.failures.front());
  EXPECT_TRUE(outcome.run_completed);
  EXPECT_GT(outcome.auth_refreshes, 0u);
}

TEST(FuzzRunTest, MaskingCredentialBitDisablesExpiry) {
  const FuzzOutcome outcome = RunFuzzCase(CredentialExpiryScenario(), 0);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.auth_refreshes, 0u);
}

// --- centrifuge template -----------------------------------------------------

TEST(FuzzRunTest, CentrifugeTemplateCompletesAndIsDeterministic) {
  const FuzzScenario s = GenerateScenario(4, FuzzTemplate::kCentrifuge);
  const FuzzOutcome outcome = RunFuzzCaseChecked(s);
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? ""
                                    : outcome.failures.front());
  EXPECT_TRUE(outcome.run_completed);
  // Every pile is three robot transactions plus characterization passes.
  EXPECT_GE(outcome.steps_completed, s.piles);
}

// --- pinned regressions ------------------------------------------------------

// Seed 187 (first sweep): a dropped propose *response* leaves the server
// holding an accepted transaction the coordinator never learns about and so
// cannot cancel. The proposal-expiry backstop must terminalize it before
// the trace snapshot or nees-lint fails the run with a non-terminal
// transaction.
TEST(FuzzRegressionTest, Seed187OrphanedAcceptExpires) {
  const FuzzOutcome outcome = RunFuzzCaseChecked(GenerateScenario(187));
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? ""
                                    : outcome.failures.front());
}

// Heaviest generated schedules from the first sweep: 8 mixed faults over
// the async engine at 19 sites (seed 49) and the sequential engine at the
// 32-site topology cap (seed 44).
TEST(FuzzRegressionTest, Seed49AsyncHeavyFaultSchedule) {
  const FuzzOutcome outcome = RunFuzzCaseChecked(GenerateScenario(49));
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? ""
                                    : outcome.failures.front());
}

TEST(FuzzRegressionTest, Seed44MaxSitesHeavyFaultSchedule) {
  const FuzzOutcome outcome = RunFuzzCaseChecked(GenerateScenario(44));
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? ""
                                    : outcome.failures.front());
}

// Standard seed 11 draws all seven fault kinds in one 13-fault schedule —
// wake drops, directed drops, outages, two crash/restarts, a corruption
// burst, a 1.8s clock jump and a mid-run credential expiry (35 token
// refreshes) over 14 sites on the sequential engine. The densest
// cross-class interaction schedule the first campaign sweep produced.
TEST(FuzzRegressionTest, Seed11AllSevenFaultClassesInteract) {
  const FuzzOutcome outcome = RunFuzzCaseChecked(GenerateScenario(11));
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? ""
                                    : outcome.failures.front());
  EXPECT_GT(outcome.frames_corrupted, 0u);
  EXPECT_GT(outcome.auth_refreshes, 0u);
  EXPECT_GT(outcome.site_crashes, 0u);
}

// Centrifuge seeds 3 and 120 (first campaign sweep): armed DropNext /
// CorruptNext counts don't drain on the operator link — there is no
// heartbeat traffic — so consecutive faults stacked 6 losses onto one
// transaction and exhausted the RPC retry ladder. Fixed by giving the
// teleoperation loop the same outer re-proposal ladder the MOST
// coordinator has (plus a generation-time loss budget); these seeds pin
// both sides of that fix.
TEST(FuzzRegressionTest, CentrifugeSeed3StackedDropBursts) {
  const FuzzOutcome outcome = RunFuzzCaseChecked(
      GenerateScenario(3, FuzzTemplate::kCentrifuge));
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? ""
                                    : outcome.failures.front());
}

TEST(FuzzRegressionTest, CentrifugeSeed120OutagePlusCorruptBursts) {
  const FuzzOutcome outcome = RunFuzzCaseChecked(
      GenerateScenario(120, FuzzTemplate::kCentrifuge));
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? ""
                                    : outcome.failures.front());
  EXPECT_GT(outcome.frames_corrupted, 0u);
}


// --- JSONL export pins ------------------------------------------------------
// SHA-256 digests of JSONL exports recorded before spans were stored as typed,
// interned values. Export must stay byte-identical to the string-tagged
// tracer it replaced, so these never change unless the trace itself does.

std::string ExportDigest(std::uint64_t seed, FuzzTemplate shape) {
  FuzzRunOptions options;
  options.export_artifacts = true;
  const FuzzOutcome outcome =
      RunFuzzCase(GenerateScenario(seed, shape), kAllFaults, options);
  EXPECT_TRUE(outcome.ok()) << seed;
  return util::Sha256::HexHash(outcome.trace_jsonl);
}

TEST(FuzzExportPinTest, MiniSeedExportIsByteStable) {
  EXPECT_EQ(ExportDigest(10, FuzzTemplate::kMini),
            "37fdb8c92957b6f026e9bcf7f247f4afcc51eb5863e0d5d1d5951fc3ab15202f");
}

TEST(FuzzExportPinTest, CentrifugeSeedExportIsByteStable) {
  EXPECT_EQ(ExportDigest(3, FuzzTemplate::kCentrifuge),
            "712800203261541ea887fb5ab566b3783c590fe795a6c4c1264e7a3e24607bda");
}

TEST(FuzzExportPinTest, HybridMostTraceIsByteStable) {
  util::SimClock sim;
  obs::Tracer tracer(&sim, &sim);
  net::Network network;
  network.SetClock(&sim);
  net::LinkModel wan;
  wan.latency_micros = 20'000;
  network.SetDefaultLink(wan);
  MostOptions options;
  options.steps = 30;
  options.hybrid = true;
  options.tracer = &tracer;
  MostExperiment experiment(&network, &sim, options);
  const auto report =
      experiment.Run(psd::FaultPolicy::kFaultTolerant, "export-pin");
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->completed);
  EXPECT_EQ(util::Sha256::HexHash(tracer.ExportJsonLines()),
            "255eaf10d91549df9a216ea3c7f48099ba8158eeee8dcadd054b71ec69507c39");
}

}  // namespace
}  // namespace nees::most
