#include "most/fuzz.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "centrifuge/plugin.h"
#include "check/checker.h"
#include "net/network.h"
#include "net/rpc.h"
#include "ntcp/client.h"
#include "ntcp/server.h"
#include "obs/trace.h"
#include "plugins/mplugin.h"
#include "security/auth.h"
#include "security/certificate.h"
#include "structural/groundmotion.h"
#include "structural/substructure.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/word_hash.h"
#include "wal/wal.h"

namespace nees::most {
namespace {

std::string SiteNtcpEndpoint(std::size_t i) {
  return util::Format("ntcp.s%zu", i);
}
std::string BackendEndpoint(std::size_t i) {
  return util::Format("backend.s%zu", i);
}
std::string WakeEndpoint(std::size_t i) { return util::Format("wake.s%zu", i); }
std::string NotifierEndpoint(std::size_t i) {
  return util::Format("notify.s%zu", i);
}

// Trace vocabulary of the fault events.
const obs::Atom kCrashEvent("site.crash");
const obs::Atom kRestartEvent("site.restart");
const obs::Atom kFaultCategory("fault");
const obs::Atom kEndpoint("endpoint");
const obs::Atom kSite("site");
const obs::Atom kAt("at");

constexpr char kCoordinatorEndpoint[] = "fuzz.coordinator";
constexpr char kControlPoint[] = "cp";
// kCentrifuge endpoints: one rig, one remote operator (the E12 topology).
constexpr char kCentrifugeEndpoint[] = "ntcp.centrifuge";
constexpr char kOperatorEndpoint[] = "fuzz.operator";

bool FaultEnabled(std::uint64_t mask, std::size_t index) {
  return index >= 64 || (mask & (1ULL << index)) != 0;
}

bool HistoriesIdentical(const structural::TimeHistory& a,
                        const structural::TimeHistory& b) {
  return a.dt_seconds == b.dt_seconds && a.displacement == b.displacement &&
         a.velocity == b.velocity && a.acceleration == b.acceleration;
}

// --- structural fingerprints -------------------------------------------------
// The determinism oracle compares these (and obs::FingerprintSpans) instead
// of the JSONL export: building the export string is the single most
// expensive part of a clean run, and the replica run exists only to prove
// the artifacts would have matched.

std::uint64_t FingerprintString(std::string_view s) {
  util::WordHash hash;
  hash.String(s);
  return hash.value();
}

std::uint64_t FingerprintHistory(const structural::TimeHistory& history) {
  util::WordHash hash;
  hash.Double(history.dt_seconds);
  const auto series = [&hash](const std::vector<structural::Vector>& s) {
    hash.Word(s.size());
    for (const auto& v : s) {
      hash.Word(v.size());
      for (const double x : v) hash.Double(x);
    }
  };
  series(history.displacement);
  series(history.velocity);
  series(history.acceleration);
  return hash.value();
}

/// One site's full server-side stack — one process *incarnation*. A crash
/// discards it and a fresh one is rebuilt over the durable state.
/// Declaration order doubles as a safe destruction order (backend stops
/// before the RPC plumbing it uses).
struct SiteHarness {
  std::unique_ptr<wal::Log> wal;             // this incarnation's log handle
  std::unique_ptr<ntcp::NtcpServer> server;  // owns the MPlugin
  plugins::MPlugin* plugin = nullptr;
  std::unique_ptr<net::RpcClient> backend_rpc;  // backend -> plugin calls
  std::unique_ptr<net::RpcClient> notify_tx;    // plugin -> backend wakes
  std::unique_ptr<net::RpcServer> wake_server;  // hosts "mplugin.wake"
  std::unique_ptr<plugins::VirtualPollingBackend> backend;
};

/// One site across the whole run: what survives a crash (the WAL storage,
/// the physical specimen, the machine clock, the site's auth service) plus
/// the live incarnation and the graveyard of dead ones. Dead stacks are
/// kept, not destroyed: a crash timer can fire while the dying site's own
/// frames (a pumping plugin Execute, an RPC handler) are still on the stack
/// below it, so destruction is deferred to end of run. A dead stack is
/// inert — its plugin is shut down, its endpoints are unregistered, and
/// every send it attempts is swallowed by the network's crashed-endpoint
/// filter.
struct SiteSlot {
  wal::MemoryStorage storage;  // durable: survives the crash
  std::shared_ptr<
      std::map<std::string, std::unique_ptr<structural::SubstructureModel>>>
      models;                  // the physical specimen never resets
  /// The site's NTP-disciplined machine clock (kClockSkew faults jump its
  /// offset). Like the specimen, a crash does not reset it — the incarnation
  /// dies, the machine's idea of time does not.
  std::unique_ptr<util::SkewedClock> skewed;
  /// Real GSI-shaped auth for sites with a kCredentialExpiry fault. Lives
  /// in the slot so issued session tokens (and their expiry) survive a
  /// crash/restart; each incarnation re-attaches it to its RPC server.
  std::unique_ptr<security::AuthService> auth;
  std::unique_ptr<SiteHarness> live;
  std::vector<std::unique_ptr<SiteHarness>> graveyard;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t transactions_recovered = 0;
  std::uint64_t inflight_failed = 0;
};

}  // namespace

std::string FuzzFault::ToString() const {
  switch (kind) {
    case Kind::kOutage:
      return util::Format(
          "outage  site=%zu dir=%s at=%lldus dur=%lldus", site,
          to_site ? "coord->site" : "site->coord",
          static_cast<long long>(at_micros),
          static_cast<long long>(duration_micros));
    case Kind::kDropNext:
      return util::Format("drop    site=%zu dir=%s at=%lldus count=%d", site,
                          to_site ? "coord->site" : "site->coord",
                          static_cast<long long>(at_micros), count);
    case Kind::kWakeDrop:
      return util::Format("wakedrop site=%zu at=%lldus count=%d", site,
                          static_cast<long long>(at_micros), count);
    case Kind::kSiteCrashRestart:
      return util::Format("crash   site=%zu at=%lldus downtime=%lldus", site,
                          static_cast<long long>(at_micros),
                          static_cast<long long>(duration_micros));
    case Kind::kFrameCorrupt:
      return util::Format("corrupt site=%zu dir=%s at=%lldus count=%d", site,
                          to_site ? "coord->site" : "site->coord",
                          static_cast<long long>(at_micros), count);
    case Kind::kClockSkew:
      return util::Format("skew    site=%zu at=%lldus jump=%lldus", site,
                          static_cast<long long>(at_micros),
                          static_cast<long long>(duration_micros));
    case Kind::kCredentialExpiry:
      return util::Format("credexp site=%zu at=%lldus", site,
                          static_cast<long long>(at_micros));
  }
  return "?";
}

std::string_view EngineName(psd::StepEngine engine) {
  switch (engine) {
    case psd::StepEngine::kSequential:
      return "sequential";
    case psd::StepEngine::kAsync:
      return "async";
  }
  return "?";
}

std::string_view TemplateName(FuzzTemplate t) {
  switch (t) {
    case FuzzTemplate::kMini:
      return "mini";
    case FuzzTemplate::kStandard:
      return "standard";
    case FuzzTemplate::kFullMost:
      return "full-most";
    case FuzzTemplate::kCentrifuge:
      return "centrifuge";
  }
  return "?";
}

bool ParseTemplateName(std::string_view name, FuzzTemplate* out) {
  if (name == "mini") {
    *out = FuzzTemplate::kMini;
  } else if (name == "standard") {
    *out = FuzzTemplate::kStandard;
  } else if (name == "full-most") {
    *out = FuzzTemplate::kFullMost;
  } else if (name == "centrifuge") {
    *out = FuzzTemplate::kCentrifuge;
  } else {
    return false;
  }
  return true;
}

FuzzTemplate TemplateForSeed(std::uint64_t seed) {
  // Lane 10: never shared with any generator, so the template choice is a
  // pure function of the seed and consumes no generator draws. The weights
  // set the campaign's seeds/hour budget (EXPERIMENTS.md E14): minis carry
  // the throughput target, the long shapes ride along at a rate that keeps
  // the mean case cheap while every multi-thousand-seed sweep still runs
  // dozens of centrifuge campaigns and a handful of full-length MOSTs.
  // Measured per-seed cost (gridbench fuzz_campaign trace run, release,
  // 1 pinned core of a 4-vCPU VM, lock-free clocks, expiry index and
  // replica-only digests): mini ~1.0 ms, centrifuge ~0.9 ms, standard
  // ~10.4 ms, full-most (1,500 steps) ~0.24 s with oracles — a full-most
  // seed costs ~240 minis, which is why its weight is a tenth of a percent.
  util::Rng lane = util::Rng(seed).Fork(10);
  const int roll = lane.UniformInt(0, 999);
  if (roll < 935) return FuzzTemplate::kMini;
  if (roll < 955) return FuzzTemplate::kStandard;
  if (roll < 999) return FuzzTemplate::kCentrifuge;
  return FuzzTemplate::kFullMost;
}

std::string FuzzScenario::Describe() const {
  std::string out = util::Format(
      "seed=%llu template=%s sites=%zu steps=%zu engine=%s rewake=%lldus "
      "expiry=%lldus faults=%zu\n",
      static_cast<unsigned long long>(seed),
      std::string(TemplateName(shape)).c_str(), sites, steps,
      std::string(EngineName(engine)).c_str(),
      static_cast<long long>(rewake_micros),
      static_cast<long long>(expiry_period_micros), faults.size());
  if (shape == FuzzTemplate::kCentrifuge) {
    out += util::Format("  piles=%zu\n", piles);
  }
  for (std::size_t i = 0; i < site_links.size(); ++i) {
    out += util::Format(
        "  link s%zu: latency=%lldus jitter=%lldus drop=%.4f\n", i,
        static_cast<long long>(site_links[i].latency_micros),
        static_cast<long long>(site_links[i].jitter_micros),
        site_links[i].drop_probability);
  }
  for (std::size_t i = 0; i < faults.size(); ++i) {
    out += util::Format("  fault[bit %zu] %s\n", i, faults[i].ToString().c_str());
  }
  return out;
}

namespace {

/// A closed range of whole numbers, drawn with Rng::UniformInt.
struct Range {
  int lo = 0;
  int hi = 0;
};

int Draw(util::Rng& lane, Range range) {
  return lane.UniformInt(range.lo, range.hi);
}

std::size_t DrawSite(util::Rng& lane, std::size_t sites) {
  return static_cast<std::size_t>(
      lane.UniformInt(0, static_cast<int>(sites) - 1));
}

/// A fault time: a whole millisecond from `from_ms` up to the horizon.
std::int64_t DrawAtMicros(util::Rng& lane, int from_ms, std::int64_t horizon) {
  return 1000LL * lane.UniformInt(from_ms, static_cast<int>(horizon / 1000));
}

/// One MOST-shaped template: the ranges GenerateMost draws from. Every
/// template draws the same lanes in the same order, so a template is only
/// its row. Times are whole milliseconds.
struct MostRanges {
  FuzzTemplate shape = FuzzTemplate::kStandard;
  Range sites;
  Range steps;  // lo == hi: fixed, not drawn
  Range latency_ms;
  Range jitter_ms;
  double lossy_links = 0.0;  // share of links that drop at random...
  double max_drop = 0.0;     // ...with a probability below this
  Range faults;              // outage / drop-next / wake-drop
  Range fault_ms;            // an outage's window
  /// Crash lane: a count drawn from `crashes`. A template with `one_crash`
  /// set flips one coin with that probability instead (crashes {0, 1}).
  Range crashes;
  double one_crash = 0.0;
  Range downtime_ms;
  int max_corrupt = 0;
  int max_skew = 0;
  double credential_expiry = 0.0;  // probability of one expiry
};

// Minis are the campaign's throughput carrier: small topologies, short
// runs, but every fault class still reachable.
constexpr MostRanges kMiniRanges{
    .shape = FuzzTemplate::kMini, .sites = {2, 5}, .steps = {5, 10},
    .latency_ms = {1, 40}, .jitter_ms = {0, 5}, .lossy_links = 0.25,
    .max_drop = 0.03, .faults = {0, 3}, .fault_ms = {100, 1000},
    .crashes = {0, 1}, .one_crash = 0.35, .downtime_ms = {250, 1000},
    .max_corrupt = 2, .max_skew = 1, .credential_expiry = 0.15};

// Lossy links on roughly a third of sites, bounded so six attempts
// virtually never all drop (the completion oracle must stay sound).
// Outages stay far under the ~4.5s retry span (6 attempts x 500ms timeout
// plus backoffs), so every schedule is survivable and the completion
// oracle is sound by construction. Crash downtime (250ms–1.2s) stays far
// under the coordinator's ~6s re-proposal tolerance (4 step attempts x
// ~1.55s of dead-site RPC backoff), for the same reason.
constexpr MostRanges kStandardRanges{
    .shape = FuzzTemplate::kStandard, .sites = {3, 32}, .steps = {8, 24},
    .latency_ms = {1, 80}, .jitter_ms = {0, 10}, .lossy_links = 0.35,
    .max_drop = 0.05, .faults = {0, 8}, .fault_ms = {100, 1500},
    .crashes = {0, 2}, .downtime_ms = {250, 1200}, .max_corrupt = 2,
    .max_skew = 1, .credential_expiry = 0.25};

// Paper-length: the §3 MOST run was a 1,500-step earthquake record, and
// the public run died at step 1493 — bugs that only appear deep into a
// long campaign (slow leaks of retry budget, expiry interactions, late
// faults) are exactly what the short templates cannot see. Its faults are
// scattered over the full 10-minute horizon, so late-run faults (the
// step-1493 class) are as likely as early ones.
constexpr MostRanges kFullMostRanges{
    .shape = FuzzTemplate::kFullMost, .sites = {2, 4}, .steps = {1500, 1500},
    .latency_ms = {5, 80}, .jitter_ms = {0, 10}, .lossy_links = 0.35,
    .max_drop = 0.02, .faults = {8, 20}, .fault_ms = {100, 1500},
    .crashes = {0, 3}, .downtime_ms = {250, 1200}, .max_corrupt = 4,
    .max_skew = 2, .credential_expiry = 0.5};

FuzzScenario GenerateMost(std::uint64_t seed, const MostRanges& r) {
  // Each dimension draws from its own forked lane so widening one (say,
  // adding a fault kind) never shifts another dimension's values for the
  // same seed.
  util::Rng root(seed);
  util::Rng topo = root.Fork(1);
  util::Rng links = root.Fork(2);
  util::Rng engines = root.Fork(3);
  util::Rng timing = root.Fork(4);
  util::Rng faults = root.Fork(5);
  util::Rng crashes = root.Fork(6);
  util::Rng corrupt = root.Fork(7);
  util::Rng skew = root.Fork(8);
  util::Rng creds = root.Fork(9);

  FuzzScenario s;
  s.seed = seed;
  s.shape = r.shape;
  s.sites = static_cast<std::size_t>(Draw(topo, r.sites));
  s.steps = static_cast<std::size_t>(
      r.steps.lo == r.steps.hi ? r.steps.lo : Draw(topo, r.steps));
  s.engine = engines.Bernoulli(0.5) ? psd::StepEngine::kAsync
                                    : psd::StepEngine::kSequential;
  s.rewake_micros = 1000LL * timing.UniformInt(150, 400);
  s.expiry_period_micros = 1000LL * timing.UniformInt(200, 1000);

  for (std::size_t i = 0; i < s.sites; ++i) {
    net::LinkModel m;
    m.latency_micros = 1000LL * Draw(links, r.latency_ms);
    m.jitter_micros = 1000LL * Draw(links, r.jitter_ms);
    m.drop_probability = links.Bernoulli(r.lossy_links)
                             ? links.UniformDouble(0.0, r.max_drop)
                             : 0.0;
    s.site_links.push_back(m);
  }

  // Fault schedule: scattered over a horizon that comfortably covers the
  // run (a faulty step takes well under 400ms of virtual time on average).
  const std::int64_t horizon = static_cast<std::int64_t>(s.steps) * 400'000;
  const int fault_count = Draw(faults, r.faults);
  for (int j = 0; j < fault_count; ++j) {
    FuzzFault f;
    switch (faults.UniformInt(0, 2)) {
      case 0:
        f.kind = FuzzFault::Kind::kOutage;
        break;
      case 1:
        f.kind = FuzzFault::Kind::kDropNext;
        break;
      default:
        f.kind = FuzzFault::Kind::kWakeDrop;
        break;
    }
    f.site = DrawSite(faults, s.sites);
    f.to_site = faults.Bernoulli(0.5);
    f.at_micros = DrawAtMicros(faults, 100, horizon);
    f.duration_micros = 1000LL * Draw(faults, r.fault_ms);
    f.count = faults.UniformInt(1, 3);
    s.faults.push_back(f);
  }

  // Every later fault class draws from its own lane and is appended after
  // every earlier class, so adding one never shifted another class's
  // values or mask bits for any pre-existing seed.
  const int crash_count =
      r.one_crash > 0.0 ? (crashes.Bernoulli(r.one_crash) ? 1 : 0)
                        : Draw(crashes, r.crashes);
  for (int j = 0; j < crash_count; ++j) {
    FuzzFault f;
    f.kind = FuzzFault::Kind::kSiteCrashRestart;
    f.site = DrawSite(crashes, s.sites);
    f.at_micros = DrawAtMicros(crashes, 100, horizon);
    f.duration_micros = 1000LL * Draw(crashes, r.downtime_ms);
    s.faults.push_back(f);
  }

  // Survivability by construction, per class:
  //  * kFrameCorrupt — a mutated frame either fails the Decode CRC (a
  //    detected loss the 6-attempt retry ladder absorbs) or parses (and
  //    must then be semantically harmless or caught by the oracles);
  //  * kClockSkew — forward jumps are capped far below the 20s proposal
  //    window, so a skewed server's expiry clock never kills a live step;
  //  * kCredentialExpiry — expiry at `at` forces a mid-run re-handshake;
  //    the refresher grants the op one extra attempt, so the retry budget
  //    is never consumed by the auth round trip.
  const int corrupt_count = corrupt.UniformInt(0, r.max_corrupt);
  for (int j = 0; j < corrupt_count; ++j) {
    FuzzFault f;
    f.kind = FuzzFault::Kind::kFrameCorrupt;
    f.site = DrawSite(corrupt, s.sites);
    f.to_site = corrupt.Bernoulli(0.5);
    f.at_micros = DrawAtMicros(corrupt, 100, horizon);
    f.count = corrupt.UniformInt(1, 3);
    s.faults.push_back(f);
  }
  const int skew_count = skew.UniformInt(0, r.max_skew);
  for (int j = 0; j < skew_count; ++j) {
    FuzzFault f;
    f.kind = FuzzFault::Kind::kClockSkew;
    f.site = DrawSite(skew, s.sites);
    f.at_micros = DrawAtMicros(skew, 100, horizon);
    f.duration_micros = 1000LL * skew.UniformInt(500, 5000);
    s.faults.push_back(f);
  }
  if (creds.Bernoulli(r.credential_expiry)) {
    FuzzFault f;
    f.kind = FuzzFault::Kind::kCredentialExpiry;
    f.site = DrawSite(creds, s.sites);
    f.at_micros = DrawAtMicros(creds, 500, horizon);
    s.faults.push_back(f);
  }
  return s;
}

FuzzScenario GenerateCentrifuge(std::uint64_t seed) {
  // The E12 UC Davis shape: a single robot-arm/bender-element rig driven
  // over one operator link, every action a propose/execute transaction.
  // Fault classes are limited to what that link can do to a teleoperation
  // session: outages, deterministic drops, frame corruption.
  util::Rng root(seed);
  util::Rng topo = root.Fork(1);
  util::Rng links = root.Fork(2);
  util::Rng timing = root.Fork(4);
  util::Rng faults = root.Fork(5);
  util::Rng corrupt = root.Fork(7);

  FuzzScenario s;
  s.seed = seed;
  s.shape = FuzzTemplate::kCentrifuge;
  s.sites = 1;
  s.piles = static_cast<std::size_t>(topo.UniformInt(4, 12));
  s.steps = s.piles;
  s.engine = psd::StepEngine::kAsync;  // unused: no coordinator in this shape
  s.expiry_period_micros = 1000LL * timing.UniformInt(200, 1000);

  net::LinkModel m;
  m.latency_micros = 1000LL * links.UniformInt(1, 60);
  m.jitter_micros = 1000LL * links.UniformInt(0, 8);
  m.drop_probability =
      links.Bernoulli(0.35) ? links.UniformDouble(0.0, 0.04) : 0.0;
  s.site_links.push_back(m);

  // 3 measurement transactions up front + 6 per pile (gripper, move, drive,
  // then re-characterize), each budgeted ~250ms of virtual time.
  const std::int64_t horizon =
      static_cast<std::int64_t>(3 + s.piles * 6) * 250'000;
  // Survivability budget, specific to this shape: the operator link
  // carries one transaction at a time and nothing else, so armed
  // DropNext/CorruptNext counts don't drain between transactions — they
  // stack. A transaction gets 6 RPC attempts
  // and (corrupted frames fail the CRC, i.e. are drops) every armed loss
  // can land on the same transaction, so the total armed loss count across
  // the schedule must stay under the retry ladder. Draws beyond the budget
  // keep their lane position but degrade to outages (drops) or are
  // skipped (corruption), so sibling faults' values never shift.
  int loss_budget = 4;
  const int fault_count = faults.UniformInt(0, 4);
  for (int j = 0; j < fault_count; ++j) {
    FuzzFault f;
    f.kind = faults.Bernoulli(0.5) ? FuzzFault::Kind::kOutage
                                   : FuzzFault::Kind::kDropNext;
    f.site = 0;
    f.to_site = faults.Bernoulli(0.5);
    f.at_micros = DrawAtMicros(faults, 100, horizon);
    f.duration_micros = 1000LL * faults.UniformInt(100, 1500);
    f.count = faults.UniformInt(1, 3);
    if (f.kind == FuzzFault::Kind::kDropNext) {
      if (f.count > loss_budget) f.kind = FuzzFault::Kind::kOutage;
      else loss_budget -= f.count;
    }
    s.faults.push_back(f);
  }

  const int corrupt_count = corrupt.UniformInt(0, 2);
  for (int j = 0; j < corrupt_count; ++j) {
    FuzzFault f;
    f.kind = FuzzFault::Kind::kFrameCorrupt;
    f.site = 0;
    f.to_site = corrupt.Bernoulli(0.5);
    f.at_micros = DrawAtMicros(corrupt, 100, horizon);
    f.count = corrupt.UniformInt(1, 3);
    if (f.count > loss_budget) continue;
    loss_budget -= f.count;
    s.faults.push_back(f);
  }
  return s;
}

}  // namespace

FuzzScenario GenerateScenario(std::uint64_t seed) {
  return GenerateScenario(seed, FuzzTemplate::kStandard);
}

FuzzScenario GenerateScenario(std::uint64_t seed, FuzzTemplate shape) {
  switch (shape) {
    case FuzzTemplate::kMini:
      return GenerateMost(seed, kMiniRanges);
    case FuzzTemplate::kFullMost:
      return GenerateMost(seed, kFullMostRanges);
    case FuzzTemplate::kCentrifuge:
      return GenerateCentrifuge(seed);
    case FuzzTemplate::kStandard:
      break;
  }
  return GenerateMost(seed, kStandardRanges);
}

namespace {

// The retry ladder of every fuzz client, coordinator and operator alike:
// 6 attempts, 500ms each, backoff from 50ms doubling up to 1s. The
// generators' survivability bounds are set against its ~4.5s span.
constexpr ntcp::RetryPolicy kRetryLadder{.max_attempts = 6,
                                         .initial_backoff_micros = 50'000,
                                         .max_backoff_micros = 1'000'000,
                                         .rpc_timeout_micros = 500'000};
// How long a proposal stays open (virtual; generous). The teardown advances
// past it so server-side expiry terminalizes every orphaned accept.
constexpr std::int64_t kProposalWindowMicros = 20'000'000;

/// The directed link a link fault hits.
struct DirectedLink {
  net::EndpointId from;
  net::EndpointId to;

  /// `grid` -> `site` when the fault hits the grid-to-site direction.
  static DirectedLink Of(const FuzzFault& f, net::EndpointId grid,
                         net::EndpointId site) {
    return f.to_site ? DirectedLink{grid, site} : DirectedLink{site, grid};
  }
};

/// What every case builds, schedules, tears down and checks the same way.
/// The runners add their own sites and clients on top.
struct CaseWorld {
  explicit CaseWorld(std::uint64_t seed)
      : network(net::DeliveryMode::kVirtual, seed),
        tracer(network.clock(), nullptr) {
    network.set_tracer(&tracer);
    net::LinkModel local;  // site-local plumbing: fast, clean
    local.latency_micros = 200;
    network.SetDefaultLink(local);
  }

  /// Arms the enabled faults in index order and tracks the fault horizon.
  /// The link faults (kOutage, kDropNext, kWakeDrop, kFrameCorrupt) are
  /// armed here on `link(f)`; every other kind goes to `other(f)`.
  template <typename Link, typename Other>
  void ScheduleFaults(const FuzzScenario& scenario, std::uint64_t fault_mask,
                      Link&& link, Other&& other) {
    for (std::size_t i = 0; i < scenario.faults.size(); ++i) {
      if (!FaultEnabled(fault_mask, i)) continue;
      const FuzzFault& f = scenario.faults[i];
      fault_horizon = std::max(
          fault_horizon,
          f.at_micros + std::max<std::int64_t>(f.duration_micros, 0));
      switch (f.kind) {
        case FuzzFault::Kind::kOutage: {
          const DirectedLink l = link(f);
          network.AddOutage(l.from, l.to,
                            {f.at_micros, f.at_micros + f.duration_micros});
          break;
        }
        case FuzzFault::Kind::kDropNext:
        case FuzzFault::Kind::kWakeDrop:
          network.ScheduleAt(f.at_micros,
                             [net = &network, l = link(f), count = f.count] {
                               net->DropNext(l.from, l.to, count);
                             });
          break;
        case FuzzFault::Kind::kFrameCorrupt:
          network.ScheduleAt(f.at_micros,
                             [net = &network, l = link(f), count = f.count] {
                               net->CorruptNext(l.from, l.to, count);
                             });
          break;
        default:
          other(f);
          break;
      }
    }
  }

  /// A dropped propose *response* leaves the server holding an accepted
  /// transaction the client never learned about (so it cannot cancel it —
  /// found by seed 187's first sweep). The protocol's backstop is
  /// server-side proposal expiry; advance past the proposal window so every
  /// armed expiry timer fires and terminalizes such orphans BEFORE the trace
  /// snapshot. nees-lint then enforces the backstop: any transaction still
  /// non-terminal at end of trace fails the run, and each kExpired
  /// transition must be legal on the trace clock.
  ///
  /// The advance starts from the fault horizon, not just `now`: on a run
  /// that stopped early (completion failure) or a long template whose
  /// schedule outlives the natural end, crash faults may still be pending,
  /// and their revivals must fire here — not during RunUntilQuiescent,
  /// after the advance that expires what a revived incarnation recovered.
  /// Then `stop_servers` disarms the timer chains and the loop drains.
  template <typename Stop>
  void Teardown(std::int64_t expiry_period_micros, Stop&& stop_servers) {
    network.AdvanceTo(std::max(network.clock()->NowMicros(), fault_horizon) +
                      kProposalWindowMicros + 2 * expiry_period_micros);
    stop_servers();
    network.RunUntilQuiescent();
  }

  /// Collects the artifacts every case reports, then runs the oracle tail:
  /// nees-lint and `more_oracles(trace)` when options.run_oracles, then
  /// lockdep.
  template <typename MoreOracles>
  void Finish(FuzzOutcome& out, const FuzzRunOptions& options, bool digests,
              MoreOracles&& more_oracles) {
    const obs::Trace trace = tracer.TakeTrace();
    if (digests) {
      out.metrics_table = tracer.metrics().ReportTable();
      out.trace_fingerprint = obs::FingerprintSpans(trace);
      out.metrics_fingerprint = FingerprintString(out.metrics_table);
    }
    out.net_totals = network.TotalMetrics();
    out.events_processed = network.virtual_stats().events();
    out.frames_corrupted = out.net_totals.corrupted;
    if (options.export_artifacts) {
      out.trace_jsonl = obs::ExportJsonLines(trace);
    }

    if (options.run_oracles) {
      const check::LintReport lint = check::LintSpans(trace);
      for (const auto& violation : lint.violations) {
        out.failures.push_back("lint: " + violation.ToString());
      }
      more_oracles(trace);
    }

    if (util::lockdep::kEnabled) {
      const auto violations = util::lockdep::Violations();
      for (std::size_t i = lockdep_before; i < violations.size(); ++i) {
        out.failures.push_back("lockdep: " + violations[i].description);
      }
    }
  }

  // Oracle 5 (lockdep builds): no lock-order inversion, wait-while-holding,
  // or blocking-RPC-under-lock may appear during the run. Snapshot the
  // global count so violations from earlier cases aren't re-billed here.
  const std::size_t lockdep_before = util::lockdep::ViolationCount();
  net::Network network;
  // modeled == nullptr: in kVirtual the wall clock IS the modeled timeline;
  // letting the tracer advance a second SimClock would double-count time.
  obs::Tracer tracer;
  /// The last instant any enabled fault can still be in flight.
  std::int64_t fault_horizon = 0;
};

// `digests`: fill metrics_table and the three fingerprints. Only runs that
// export artifacts or feed the determinism oracle pay for them.
FuzzOutcome RunMostCase(const FuzzScenario& scenario, std::uint64_t fault_mask,
                        const FuzzRunOptions& options, bool digests) {
  FuzzOutcome out;
  CaseWorld world(scenario.seed);
  net::Network& network = world.network;
  obs::Tracer& tracer = world.tracer;

  // Which sites need a skewable machine clock / a real auth service. Bit
  // semantics matter for the shrinker: a disabled kClockSkew leaves the
  // site on the grid clock, a disabled kCredentialExpiry removes the auth
  // world entirely — the fault bit owns *all* of its machinery.
  std::vector<char> want_skew(scenario.sites, 0);
  // 0 = no auth; otherwise the site's session-token lifetime (the earliest
  // enabled expiry time — tokens are minted at login, time starts at ~0).
  std::vector<std::int64_t> token_lifetime(scenario.sites, 0);
  for (std::size_t i = 0; i < scenario.faults.size(); ++i) {
    if (!FaultEnabled(fault_mask, i)) continue;
    const FuzzFault& f = scenario.faults[i];
    if (f.kind == FuzzFault::Kind::kClockSkew) want_skew[f.site] = 1;
    if (f.kind == FuzzFault::Kind::kCredentialExpiry) {
      token_lifetime[f.site] = token_lifetime[f.site] == 0
                                   ? f.at_micros
                                   : std::min(token_lifetime[f.site],
                                              f.at_micros);
    }
  }
  const bool any_auth = std::any_of(token_lifetime.begin(),
                                    token_lifetime.end(),
                                    [](std::int64_t t) { return t > 0; });

  // The auth world: one virtual-organization CA, one coordinator identity.
  // Its rng is derived from the seed (not the network's stream), so key
  // material is deterministic per seed and independent of delivery order.
  util::Rng auth_rng(scenario.seed ^ 0xA01D5EEDULL);
  std::optional<security::CertificateAuthority> ca;
  std::optional<security::Credential> coordinator_identity;
  if (any_auth) {
    ca.emplace("/O=NEES/CN=NEES CA", *network.clock(), auth_rng);
    coordinator_identity =
        ca->IssueIdentity("/O=NEES/CN=coordinator", 0, auth_rng);
  }

  // --- per-site stacks -------------------------------------------------------
  std::vector<std::unique_ptr<SiteSlot>> sites;
  std::vector<std::string> ntcp_endpoints;
  // Split a fixed total stiffness across sites so the structure (and the
  // central-difference stability bound) doesn't change with site count.
  const double site_stiffness = 4.0e6 / static_cast<double>(scenario.sites);

  // Builds one process incarnation over the slot's durable state (WAL
  // storage + specimen models + machine clock + auth service) and recovers
  // from whatever the log holds. Used both at startup (empty log -> fresh
  // state) and on revival.
  auto build_site_stack = [&](std::size_t i, SiteSlot& slot) {
    auto harness = std::make_unique<SiteHarness>();
    const std::string ntcp_ep = SiteNtcpEndpoint(i);
    util::Clock* site_clock =
        slot.skewed != nullptr ? slot.skewed.get() : network.clock();

    plugins::MPluginConfig mconfig;
    mconfig.execute_timeout_micros = 30'000'000;  // virtual; generous
    mconfig.rewake_micros = scenario.rewake_micros;
    auto plugin = std::make_unique<plugins::MPlugin>(mconfig);
    harness->plugin = plugin.get();
    harness->server = std::make_unique<ntcp::NtcpServer>(
        &network, ntcp_ep, std::move(plugin), site_clock);
    harness->server->set_tracer(&tracer);
    harness->server->Start();
    // Each incarnation re-attaches the slot's auth service: session tokens
    // issued before a crash keep working after the restart (they live in
    // the service, not the process).
    if (slot.auth != nullptr) slot.auth->Attach(harness->server->rpc());
    // Recovery before traffic: replay the surviving log (unsynced tail was
    // lost at the crash), crash-mark interrupted executions, then log
    // every new transition durably.
    harness->wal = std::make_unique<wal::Log>(&slot.storage);
    const auto recovered = harness->server->AttachWal(harness->wal.get());
    if (recovered.ok()) {
      slot.transactions_recovered += recovered->transactions_recovered;
      slot.inflight_failed += recovered->inflight_failed;
    } else {
      out.failures.push_back(util::Format(
          "wal: site %zu failed to recover from its log: %s", i,
          recovered.status().ToString().c_str()));
    }
    harness->plugin->AttachVirtualNetwork(&network);
    harness->plugin->BindBackendRpc(harness->server->rpc());
    harness->server->ArmExpiryTimer(&network, scenario.expiry_period_micros);

    harness->backend_rpc =
        std::make_unique<net::RpcClient>(&network, BackendEndpoint(i));
    harness->wake_server =
        std::make_unique<net::RpcServer>(&network, WakeEndpoint(i));
    harness->wake_server->Start();
    harness->backend = std::make_unique<plugins::VirtualPollingBackend>(
        harness->backend_rpc.get(), ntcp_ep,
        plugins::MakeSimulationCompute(slot.models));
    harness->backend->BindWakeRpc(*harness->wake_server);
    harness->backend->Start();

    // The wake notification crosses the network on its own directed link
    // (notify.sN -> wake.sN) so kWakeDrop faults can sever exactly that
    // path without touching poll/notify traffic.
    harness->notify_tx =
        std::make_unique<net::RpcClient>(&network, NotifierEndpoint(i));
    net::RpcClient* tx = harness->notify_tx.get();
    harness->plugin->SetWorkNotifier(
        [tx, wake = net::EndpointId(WakeEndpoint(i)),
         method = net::MethodId("mplugin.wake")] {
          (void)tx->OneWay(wake, method, {});
        });

    slot.live = std::move(harness);
  };

  for (std::size_t i = 0; i < scenario.sites; ++i) {
    auto slot = std::make_unique<SiteSlot>();
    const std::string ntcp_ep = SiteNtcpEndpoint(i);
    ntcp_endpoints.push_back(ntcp_ep);

    network.SetLink(kCoordinatorEndpoint, ntcp_ep, scenario.site_links[i]);
    network.SetLink(ntcp_ep, kCoordinatorEndpoint, scenario.site_links[i]);

    slot->models = std::make_shared<std::map<
        std::string, std::unique_ptr<structural::SubstructureModel>>>();
    structural::Matrix k(1, 1);
    k(0, 0) = site_stiffness;
    (*slot->models)[kControlPoint] =
        std::make_unique<structural::ElasticSubstructure>(k);

    if (want_skew[i]) {
      slot->skewed = std::make_unique<util::SkewedClock>(network.clock());
    }
    if (token_lifetime[i] > 0) {
      security::TrustStore trust;
      trust.AddRoot(ca->root_certificate());
      security::AuthOptions aopts;
      aopts.token_lifetime_micros = token_lifetime[i];
      // The backend's poll/notify plumbing is site-local, not grid traffic;
      // it never holds a grid credential (same split as a real site, where
      // the DAQ loop lives inside the security perimeter).
      aopts.open_methods = {"mplugin.poll", "mplugin.notify"};
      slot->auth = std::make_unique<security::AuthService>(
          std::move(trust),
          slot->skewed != nullptr ? static_cast<util::Clock*>(slot->skewed.get())
                                  : network.clock(),
          auth_rng.Split(), aopts);
      slot->auth->acl().Allow("/O=NEES/CN=coordinator", "ntcp.");
    }

    build_site_stack(i, *slot);
    sites.push_back(std::move(slot));
  }

  // Kills site i's whole process: the WAL's unsynced tail is lost, every
  // endpoint vanishes, zombie stack frames unwind against a dead backend
  // and write to the void. Returns false if the site is already dead
  // (overlapping crash faults — the earlier crash's revival stands).
  auto kill_site = [&](std::size_t i) -> bool {
    SiteSlot& slot = *sites[i];
    if (slot.live == nullptr) return false;
    const std::string ntcp_ep = SiteNtcpEndpoint(i);
    tracer.RecordEvent(kCrashEvent, kFaultCategory, 0,
                       {{kEndpoint, obs::Atom(ntcp_ep)},
                        {kSite, obs::Atom(util::Format("S%zu", i))},
                        {kAt, network.clock()->NowMicros()}});
    // The kernel view of the crash: the unsynced WAL tail is gone and every
    // write from the dead process is swallowed from here on.
    slot.storage.Crash();
    // A dead process emits no telemetry.
    slot.live->server->set_tracer(nullptr);
    // Tear down timers and endpoint registrations; mark all four of the
    // site's endpoints crashed so sends from zombie frames go nowhere.
    slot.live->backend->Stop();
    slot.live->server->Stop();
    slot.live->wake_server->Stop();
    slot.live->backend_rpc->Stop();
    slot.live->notify_tx->Stop();
    slot.live->plugin->Shutdown();
    network.SetEndpointCrashed(ntcp_ep, true);
    network.SetEndpointCrashed(BackendEndpoint(i), true);
    network.SetEndpointCrashed(WakeEndpoint(i), true);
    network.SetEndpointCrashed(NotifierEndpoint(i), true);
    slot.graveyard.push_back(std::move(slot.live));
    ++slot.crashes;
    return true;
  };

  // Revives site i: clears the crash marks, re-admits storage writes, and
  // builds a fresh incarnation whose AttachWal replays the log (silent
  // replay + one "ntcp.recover" event + traced crash-marks).
  auto revive_site = [&](std::size_t i) {
    SiteSlot& slot = *sites[i];
    const std::string ntcp_ep = SiteNtcpEndpoint(i);
    network.SetEndpointCrashed(ntcp_ep, false);
    network.SetEndpointCrashed(BackendEndpoint(i), false);
    network.SetEndpointCrashed(WakeEndpoint(i), false);
    network.SetEndpointCrashed(NotifierEndpoint(i), false);
    slot.storage.Revive();
    // Restart precedes the recover event in the trace: the lint rule
    // requires an endpoint to be alive again before it may recover.
    tracer.RecordEvent(kRestartEvent, kFaultCategory, 0,
                       {{kEndpoint, obs::Atom(ntcp_ep)},
                        {kSite, obs::Atom(util::Format("S%zu", i))},
                        {kAt, network.clock()->NowMicros()}});
    build_site_stack(i, slot);
    ++slot.recoveries;
  };

  // --- fault schedule --------------------------------------------------------
  // The teardown advance must clear the fault horizon, or (on runs that fail
  // early, or long templates whose faults land past the natural end) a
  // crash fault's revival would fire inside RunUntilQuiescent, after the
  // orphan sweep, and its recovered transactions would never be swept.
  // Link faults hit the coordinator<->site WAN link, except kWakeDrop:
  // the wake notification crosses its own notify.sN -> wake.sN path.
  const auto fault_link = [](const FuzzFault& f) {
    if (f.kind == FuzzFault::Kind::kWakeDrop) {
      return DirectedLink{NotifierEndpoint(f.site), WakeEndpoint(f.site)};
    }
    return DirectedLink::Of(f, kCoordinatorEndpoint, SiteNtcpEndpoint(f.site));
  };
  // The rest hit the site itself.
  const auto site_fault = [&](const FuzzFault& f) {
    switch (f.kind) {
      case FuzzFault::Kind::kSiteCrashRestart:
        // Revival is scheduled only when the kill actually happened: if an
        // overlapping crash already holds the site down, this fault is a
        // no-op and the earlier crash's revival stands.
        network.ScheduleAt(
            f.at_micros, [&network, &kill_site, &revive_site, site = f.site,
                          revive_at = f.at_micros + f.duration_micros] {
              if (!kill_site(site)) return;
              network.ScheduleAt(revive_at,
                                 [&revive_site, site] { revive_site(site); });
            });
        break;
      case FuzzFault::Kind::kClockSkew: {
        // The skewed clock lives in the slot (want_skew built it above), so
        // the jump survives any crash/revival interleaving.
        util::SkewedClock* skewed = sites[f.site]->skewed.get();
        network.ScheduleAt(f.at_micros,
                           [skewed, delta = f.duration_micros] {
                             skewed->AdvanceOffset(delta);
                           });
        break;
      }
      default:
        // kCredentialExpiry: nothing to schedule. The expiry time is baked
        // into the site's session-token lifetime (token_lifetime above); the
        // fault "fires" when the coordinator's next RPC after at_micros is
        // rejected.
        break;
    }
  };
  world.ScheduleFaults(scenario, fault_mask, fault_link, site_fault);

  // --- coordinator -----------------------------------------------------------
  psd::CoordinatorConfig config;
  config.run_id = util::Format("fuzz-%llu",
                               static_cast<unsigned long long>(scenario.seed));
  config.mass = structural::Matrix::Identity(1) * 5.0e4;
  config.damping = structural::Matrix::Identity(1) * 1.0e4;
  config.iota = {1.0};
  config.motion = structural::SinePulse(0.02, scenario.steps, 1.0, 1.0);
  for (std::size_t i = 0; i < scenario.sites; ++i) {
    config.sites.push_back({util::Format("S%zu", i), SiteNtcpEndpoint(i),
                            kControlPoint, {0}});
  }
  config.fault_policy = psd::FaultPolicy::kFaultTolerant;
  config.step_engine = scenario.engine;
  config.max_step_attempts = 4;
  config.proposal_timeout_micros = kProposalWindowMicros;
  config.retry = kRetryLadder;
  config.tracer = &tracer;

  net::RpcClient coordinator_rpc(&network, kCoordinatorEndpoint);

  // GSI logins (sites with an enabled kCredentialExpiry fault): handshake
  // once up front, then hand the coordinator a per-endpoint refresher so a
  // mid-run token expiry re-handshakes instead of killing the experiment.
  auto auth_refresh_count = std::make_shared<std::uint64_t>(0);
  if (any_auth) {
    security::Credential proxy = coordinator_identity->CreateProxy(
        3'600'000'000, *network.clock(), auth_rng);
    std::map<std::string, std::shared_ptr<security::AuthClient>> login_by_ep;
    for (std::size_t i = 0; i < scenario.sites; ++i) {
      if (token_lifetime[i] <= 0) continue;
      const std::string ntcp_ep = SiteNtcpEndpoint(i);
      auto login = std::make_shared<security::AuthClient>(
          &coordinator_rpc, proxy, network.clock(), auth_rng.Split());
      util::Status status;
      // The handshake rides the same lossy link as everything else; retry
      // it like any other call. Until the run starts the handshake is the
      // link's only traffic, so every loss the schedule arms on it (drop
      // and corruption counts, an outage, refused sends while the site is
      // crashed) lands on the login. 64 attempts outlast the worst a
      // site's generated faults add up to; 8 did not.
      for (int attempt = 0; attempt < 64; ++attempt) {
        status = login->Login(ntcp_ep);
        if (status.ok()) break;
        network.clock()->SleepMicros(100'000);
      }
      if (!status.ok()) {
        out.failures.push_back(util::Format(
            "auth: initial login to %s failed: %s", ntcp_ep.c_str(),
            status.ToString().c_str()));
      }
      login_by_ep[ntcp_ep] = std::move(login);
    }
    if (options.install_auth_refresher) {
      config.auth_refresher =
          [login_by_ep, auth_refresh_count, clock = network.clock()](
              const std::string& endpoint) -> std::function<util::Status()> {
        const auto it = login_by_ep.find(endpoint);
        if (it == login_by_ep.end()) return {};
        return [login = it->second, endpoint, auth_refresh_count,
                clock]() -> util::Status {
          util::Status status;
          for (int attempt = 0; attempt < 6; ++attempt) {
            status = login->Login(endpoint);
            if (status.ok()) {
              ++*auth_refresh_count;
              return status;
            }
            clock->SleepMicros(100'000);
          }
          return status;
        };
      };
    }
  }

  psd::SimulationCoordinator coordinator(config, &coordinator_rpc,
                                         network.clock());
  psd::RunReport report = coordinator.Run();

  // --- teardown --------------------------------------------------------------
  // Every crash fault's revival has fired by the end of the advance, so
  // each slot holds a live stack again.
  world.Teardown(scenario.expiry_period_micros, [&sites] {
    for (auto& slot : sites) {
      if (slot->live == nullptr) continue;
      slot->live->backend->Stop();
      slot->live->server->Stop();
    }
  });

  // --- collect ---------------------------------------------------------------
  out.run_completed = report.completed;
  out.steps_completed = report.steps_completed;
  for (const auto& stats : report.site_stats) {
    out.step_reattempts = std::max(out.step_reattempts, stats.step_reattempts);
  }
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const SiteSlot* slot = sites[i].get();
    out.wakes_lost +=
        network.LinkMetricsFor(NotifierEndpoint(i), WakeEndpoint(i))
            .dropped_total();
    // Wake counters accumulate across every incarnation.
    if (slot->live != nullptr) {
      out.wakes += slot->live->backend->wakes();
      out.rewakes += slot->live->plugin->rewakes();
    }
    for (const auto& dead : slot->graveyard) {
      out.wakes += dead->backend->wakes();
      out.rewakes += dead->plugin->rewakes();
    }
    out.site_crashes += slot->crashes;
    out.site_recoveries += slot->recoveries;
    out.transactions_recovered += slot->transactions_recovered;
    out.inflight_failed += slot->inflight_failed;
  }
  out.history = std::move(report.history);
  if (digests) out.history_fingerprint = FingerprintHistory(out.history);
  out.auth_refreshes = *auth_refresh_count;

  // --- oracles ---------------------------------------------------------------
  if (!report.completed) {
    out.failures.push_back(util::Format(
        "completion: run stopped at step %zu/%zu: %s", report.steps_completed,
        report.total_steps, report.failure.ToString().c_str()));
  }
  world.Finish(out, options, digests, [&](const obs::Trace& trace) {
    if (!report.completed) return;
    for (const auto& message : check::CheckExactlyOncePerStep(
             trace, ntcp_endpoints, report.steps_completed,
             out.step_reattempts)) {
      out.failures.push_back("exactly-once: " + message);
    }
  });
  return out;
}

FuzzOutcome RunCentrifugeCase(const FuzzScenario& scenario,
                              std::uint64_t fault_mask,
                              const FuzzRunOptions& options, bool digests) {
  FuzzOutcome out;
  CaseWorld world(scenario.seed);
  net::Network& network = world.network;
  obs::Tracer& tracer = world.tracer;
  network.SetLink(kOperatorEndpoint, kCentrifugeEndpoint,
                  scenario.site_links[0]);
  network.SetLink(kCentrifugeEndpoint, kOperatorEndpoint,
                  scenario.site_links[0]);

  // The E12 rig: soil container, robot arm, embedded bender elements. All
  // sensor noise is seeded from the scenario, so runs replay bit-identically.
  auto soil = std::make_shared<centrifuge::SoilModel>(
      centrifuge::SoilModel::DefaultProfile(0.3));
  auto arm = std::make_shared<centrifuge::RobotArm>(
      centrifuge::RobotArm::Params{}, soil.get(), scenario.seed ^ 0x0a21);
  auto benders = std::make_shared<centrifuge::BenderElementArray>(
      soil.get(), scenario.seed ^ 0x0be1);
  benders->AddElement("be1", {0.10, 0.10, -0.05});
  benders->AddElement("be2", {0.35, 0.10, -0.05});

  ntcp::NtcpServer server(
      &network, kCentrifugeEndpoint,
      std::make_unique<centrifuge::RobotArmPlugin>(arm, benders),
      network.clock());
  server.set_tracer(&tracer);
  if (!server.Start().ok()) {
    out.failures.push_back("centrifuge: NTCP server failed to start");
    return out;
  }
  server.ArmExpiryTimer(&network, scenario.expiry_period_micros);

  // --- fault schedule (operator link only) -----------------------------------
  // The centrifuge generator emits only the directed link faults.
  const auto operator_link = [](const FuzzFault& f) {
    return DirectedLink::Of(f, kOperatorEndpoint, kCentrifugeEndpoint);
  };
  world.ScheduleFaults(scenario, fault_mask, operator_link,
                       [](const FuzzFault&) {});

  // --- the campaign ----------------------------------------------------------
  net::RpcClient rpc(&network, kOperatorEndpoint);
  ntcp::NtcpClient client(&rpc, kCentrifugeEndpoint, kRetryLadder,
                          network.clock());
  client.set_tracer(&tracer);

  int transaction = 0;
  // The campaign's "history": a digest over every measured control
  // point (Vs, tip resistance, arm state). Plays the TimeHistory's role in
  // the determinism oracle — there is no integrator in this shape.
  util::WordHash measured_digest;
  auto run_txn = [&](std::vector<ntcp::ControlPointRequest> actions) -> bool {
    // Monotone step indices keep the lint step-ordering rule meaningful for
    // teleoperation traces too.
    const int step = transaction;
    ++transaction;
    // The MOST runner survives armed drop/corrupt bursts because the
    // coordinator re-drives a failed step (max_step_attempts); this shape
    // needs the same outer ladder. Each round is a fresh transaction id —
    // a round whose execute timed out may or may not have driven the arm,
    // and both the arm and soil models are idempotent for these actions, so
    // re-proposing is safe and the measured digest only ever folds in the
    // round that returned a result.
    util::Status failure = util::Status::Ok();
    for (int round = 0; round < 3; ++round) {
      ntcp::Proposal proposal;
      proposal.transaction_id =
          round == 0 ? util::Format("fuzz-cam-%d", step)
                     : util::Format("fuzz-cam-%d-r%d", step, round);
      proposal.step_index = step;
      proposal.actions = actions;
      proposal.timeout_micros = kProposalWindowMicros;
      const util::Status accepted = client.Propose(proposal);
      if (!accepted.ok()) {
        failure = util::Unavailable(
            util::Format("propose %s failed: %s",
                         proposal.transaction_id.c_str(),
                         accepted.ToString().c_str()));
        continue;
      }
      const util::Result<ntcp::TransactionResult> result =
          client.Execute(proposal.transaction_id);
      if (!result.ok()) {
        failure = util::Unavailable(
            util::Format("execute %s failed: %s",
                         proposal.transaction_id.c_str(),
                         result.status().ToString().c_str()));
        continue;
      }
      for (const auto& point : result->results) {
        measured_digest.String(point.control_point);
        for (const double v : point.measured_displacement) {
          measured_digest.Double(v);
        }
        for (const double v : point.measured_force) {
          measured_digest.Double(v);
        }
      }
      return true;
    }
    out.failures.push_back(util::Format("completion: centrifuge %s",
                                        failure.ToString().c_str()));
    return false;
  };
  // One soil-characterization pass: shear-wave velocity between the bender
  // pair, then a cone penetration at -0.25m (the E12 measurement loop).
  // Named requests, not brace temporaries: GCC 12 flags the temporaries'
  // vectors as maybe-uninitialized once the lambda is inlined.
  ntcp::ControlPointRequest shear_wave;
  shear_wave.control_point = "bender:be1:be2";
  ntcp::ControlPointRequest cone_tool;
  cone_tool.control_point = "tool:cone-penetrometer";
  ntcp::ControlPointRequest penetrate;
  penetrate.control_point = "penetrate";
  penetrate.target_displacement = {-0.25};
  auto characterize = [&]() -> bool {
    return run_txn({shear_wave}) && run_txn({cone_tool}) &&
           run_txn({penetrate});
  };

  std::size_t piles_installed = 0;
  bool completed = characterize();
  if (completed) {
    for (std::size_t pile = 1; pile <= scenario.piles; ++pile) {
      // Pile grid stays inside the arm's 0.6m x 0.4m workspace for up to
      // 12 piles.
      const double x = 0.08 + 0.04 * static_cast<double>(pile);
      if (!run_txn({{"tool:gripper", {}, {}}}) ||
          !run_txn({{"arm", {x, 0.12, 0.0}, {}}}) ||
          !run_txn({{"pile", {-0.22}, {}}}) || !characterize()) {
        completed = false;
        break;
      }
      ++piles_installed;
    }
  }
  out.run_completed = completed;
  out.steps_completed = piles_installed;

  world.Teardown(scenario.expiry_period_micros, [&server] { server.Stop(); });
  // The measured digest is folded in during the run, so it is always set.
  out.history_fingerprint = measured_digest.value();
  world.Finish(out, options, digests, [](const obs::Trace&) {
    // exactly-once is a coordinator-shaped oracle (per-(site, step) spans);
    // teleoperation's equivalent — no duplicated execution — is already
    // covered by lint's at-most-once rule on transaction ids.
  });
  return out;
}

FuzzOutcome RunCase(const FuzzScenario& scenario, std::uint64_t fault_mask,
                    const FuzzRunOptions& options, bool digests) {
  if (scenario.shape == FuzzTemplate::kCentrifuge) {
    return RunCentrifugeCase(scenario, fault_mask, options, digests);
  }
  return RunMostCase(scenario, fault_mask, options, digests);
}

}  // namespace

FuzzOutcome RunFuzzCase(const FuzzScenario& scenario, std::uint64_t fault_mask,
                        const FuzzRunOptions& options) {
  return RunCase(scenario, fault_mask, options, options.export_artifacts);
}

FuzzOutcome RunFuzzCaseChecked(const FuzzScenario& scenario,
                               std::uint64_t fault_mask,
                               const FuzzRunOptions& options) {
  FuzzOutcome first =
      RunCase(scenario, fault_mask, options, /*digests=*/true);
  // The replica exists only to prove the fingerprints match: skip the
  // export and the re-run of oracles 2–3 (their verdict cannot change when
  // the fingerprints agree, and a disagreement fails the case anyway).
  FuzzRunOptions replica = options;
  replica.export_artifacts = false;
  replica.run_oracles = false;
  const FuzzOutcome second =
      RunCase(scenario, fault_mask, replica, /*digests=*/true);
  if (first.trace_fingerprint != second.trace_fingerprint) {
    first.failures.push_back(
        "determinism: span traces differ between same-seed runs");
  }
  if (first.metrics_fingerprint != second.metrics_fingerprint) {
    first.failures.push_back(
        "determinism: metrics snapshots differ between same-seed runs");
  }
  if (first.history_fingerprint != second.history_fingerprint ||
      !HistoriesIdentical(first.history, second.history)) {
    first.failures.push_back(
        "determinism: displacement histories differ between same-seed runs");
  }
  return first;
}

std::uint64_t ShrinkFaultMask(std::size_t fault_count,
                              std::uint64_t failing_mask,
                              const std::function<bool(std::uint64_t)>& fails) {
  const std::size_t bits = std::min<std::size_t>(fault_count, 64);
  std::uint64_t mask = failing_mask;
  if (bits < 64) mask &= (1ULL << bits) - 1;

  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t bit = 0; bit < bits; ++bit) {
      const std::uint64_t candidate = mask & ~(1ULL << bit);
      if (candidate == mask) continue;
      if (fails(candidate)) {
        mask = candidate;
        shrunk = true;
      }
    }
  }
  return mask;
}

std::uint64_t ShrinkFaultMask(const FuzzScenario& scenario,
                              std::uint64_t failing_mask) {
  FuzzRunOptions options;
  options.export_artifacts = false;  // shrink probes only need verdicts
  return ShrinkFaultMask(
      scenario.faults.size(), failing_mask, [&](std::uint64_t candidate) {
        return !RunFuzzCaseChecked(scenario, candidate, options).ok();
      });
}

std::string ReplayCommand(std::uint64_t seed, FuzzTemplate shape,
                          std::uint64_t fault_mask) {
  return util::Format("nees_fuzz --seed %llu --template %s --fault-mask 0x%llx",
                      static_cast<unsigned long long>(seed),
                      std::string(TemplateName(shape)).c_str(),
                      static_cast<unsigned long long>(fault_mask));
}

}  // namespace nees::most
