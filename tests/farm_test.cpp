// Tests for the multi-tenant experiment farm: mixed waves over one shared
// grid host, reap-to-baseline soft-state hygiene, farm-vs-standalone
// bit-identity for a full MOST tenant, per-tenant lint cleanliness of the
// shared trace, and the scaled CHEF swarm over the shared NSDS stream.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/checker.h"
#include "farm/farm.h"
#include "most/most.h"
#include "net/endpoint.h"
#include "net/network.h"
#include "nsds/nsds.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nees::farm {
namespace {

TEST(FarmTest, MixedWaveCompletesAndReapsToBaseline) {
  net::Network network(net::DeliveryMode::kImmediate);
  FarmOptions options;
  options.workers = 4;
  options.mini_steps = 40;
  options.most_steps = 60;
  ExperimentFarm farm(&network, network.clock(), options);

  constexpr std::size_t kTenants = 12;
  for (std::size_t i = 0; i < kTenants; ++i) {
    SessionSpec spec;
    spec.kind = i % 10 == 8   ? SessionKind::kMost
                : i % 10 == 9 ? SessionKind::kCentrifuge
                              : SessionKind::kMiniMost;
    const std::string tenant = farm.Admit(spec);
    EXPECT_FALSE(tenant.empty());
  }
  EXPECT_EQ(farm.admitted(), kTenants);

  const util::Result<FarmReport> run = farm.RunAll();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->admitted, kTenants);
  EXPECT_EQ(run->completed, kTenants);
  EXPECT_EQ(run->failed, 0u);
  ASSERT_EQ(run->sessions.size(), kTenants);
  for (const SessionResult& session : run->sessions) {
    EXPECT_TRUE(session.ok) << session.tenant << ": " << session.error;
    EXPECT_NE(session.history_digest, 0u) << session.tenant;
  }

  // Every tenant placed real services on the shared fabric...
  EXPECT_GT(run->peak_services, farm.baseline_services());
  EXPECT_GT(run->peak_registrations, farm.baseline_registrations());
  // ...and the reap removed all of them, back to the host baseline.
  EXPECT_EQ(run->services_after_reap, farm.baseline_services());
  EXPECT_EQ(run->registrations_after_reap, farm.baseline_registrations());

  // The admission queue is cleared; a second wave reuses the same host.
  EXPECT_EQ(farm.admitted(), 0u);
  (void)farm.Admit({SessionKind::kMiniMost, 20, 0});
  const util::Result<FarmReport> second = farm.RunAll();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->completed, 1u);
  EXPECT_EQ(second->services_after_reap, farm.baseline_services());
}

TEST(FarmTest, FarmHostedMostMatchesStandaloneBitIdentical) {
  constexpr std::size_t kSteps = 60;
  constexpr std::uint64_t kSeed = 424242;

  // Standalone: the pre-tenancy assembly on its own network, trimmed the
  // same way the farm trims its tenants (no repository, no DAQ cadence) so
  // the comparison isolates the tenancy plumbing.
  structural::TimeHistory standalone;
  {
    net::Network network(net::DeliveryMode::kImmediate);
    most::MostOptions options;
    options.steps = kSteps;
    options.seed = kSeed;
    options.with_repository = false;
    options.daq_flush_every_steps = 0;
    most::MostExperiment experiment(&network, network.clock(),
                                    std::move(options));
    const util::Result<psd::RunReport> report =
        experiment.Run(psd::FaultPolicy::kFaultTolerant, "standalone-run");
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report->completed) << report->failure.ToString();
    standalone = report->history;
  }

  // Farm-hosted: same steps/seed/engine, but namespaced endpoints on the
  // shared container/registry and streaming into the shared NSDS.
  net::Network network(net::DeliveryMode::kImmediate);
  FarmOptions options;
  options.workers = 2;
  options.keep_histories = true;
  ExperimentFarm farm(&network, network.clock(), options);
  (void)farm.Admit({SessionKind::kMost, kSteps, kSeed});
  const util::Result<FarmReport> run = farm.RunAll();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->sessions.size(), 1u);
  const SessionResult& hosted = run->sessions[0];
  ASSERT_TRUE(hosted.ok) << hosted.error;

  EXPECT_EQ(hosted.history.dt_seconds, standalone.dt_seconds);
  ASSERT_EQ(hosted.history.displacement.size(),
            standalone.displacement.size());
  for (std::size_t step = 0; step < standalone.displacement.size(); ++step) {
    ASSERT_EQ(hosted.history.displacement[step].size(),
              standalone.displacement[step].size());
    for (std::size_t dof = 0; dof < standalone.displacement[step].size();
         ++dof) {
      // Bit-identical, not approximately equal: the namespace layer must
      // not perturb a single arithmetic step.
      EXPECT_EQ(hosted.history.displacement[step][dof],
                standalone.displacement[step][dof])
          << "step " << step << " dof " << dof;
    }
  }
}

TEST(FarmTest, ConcurrentTenantsStayLintCleanOnSharedTrace) {
  net::Network network(net::DeliveryMode::kImmediate);
  obs::Tracer tracer(network.clock());
  FarmOptions options;
  options.workers = 3;
  options.mini_steps = 30;
  options.tracer = &tracer;
  ExperimentFarm farm(&network, network.clock(), options);
  for (std::size_t i = 0; i < 5; ++i) {
    (void)farm.Admit({SessionKind::kMiniMost, 0, 0});
  }
  (void)farm.Admit({SessionKind::kCentrifuge, 1, 0});
  const util::Result<FarmReport> run = farm.RunAll();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->failed, 0u);

  // One shared tracer carries every tenant's NTCP spans; namespaced
  // transaction ids keep the at-most-once-per-transaction rule satisfiable
  // across tenants.
  const check::LintReport lint = check::LintSpans(tracer.Snapshot());
  EXPECT_TRUE(lint.ok()) << lint.violations.size() << " violations, first: "
                         << (lint.violations.empty()
                                 ? std::string()
                                 : lint.violations[0].message);
}

TEST(FarmTest, ScaledSwarmOverSharedStreamReportsNoFailures) {
  net::Network network(net::DeliveryMode::kImmediate);
  FarmOptions options;
  options.workers = 4;
  options.mini_steps = 30;
  ExperimentFarm farm(&network, network.clock(), options);
  for (std::size_t i = 0; i < 3; ++i) {
    (void)farm.Admit({SessionKind::kMiniMost, 0, 0});
  }
  const util::Result<FarmReport> run = farm.RunAll();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->failed, 0u);

  SwarmOptions swarm_options;
  swarm_options.participants = 300;
  swarm_options.shards = 4;
  const chef::SwarmReport swarm =
      RunScaledSwarm(&network, ExperimentFarm::kChef, swarm_options);
  EXPECT_EQ(swarm.participants, 300);
  EXPECT_EQ(swarm.failures, 0);
  EXPECT_GT(swarm.chat_posts, 0);
  EXPECT_GT(swarm.viewer_reads, 0);
}

TEST(FarmTest, ReportsEndpointFootprintMatchingTheInternTable) {
  net::Network network(net::DeliveryMode::kImmediate);
  ExperimentFarm farm(&network, network.clock(), {});
  (void)farm.Admit({SessionKind::kMiniMost, 20, 0});
  const util::Result<FarmReport> run = farm.RunAll();
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  net::EndpointTable& table = net::EndpointTable::Instance();
  EXPECT_EQ(run->endpoints_interned, table.size());
  obs::MetricsRegistry metrics;
  table.PublishGauges(metrics);
  EXPECT_EQ(metrics.GaugeValue("net.endpoints.interned"),
            static_cast<double>(table.size()));
  EXPECT_GT(metrics.GaugeValue("net.endpoints.interned_bytes"), 0.0);
}

TEST(FarmTest, SuccessiveWavesRecycleSlotsAndStayFlat) {
  // A host running waves indefinitely: the reap must return everything
  // every wave, the recycled slot names must keep the intern table flat,
  // and the same seeds must give the same histories in every wave.
  net::Network network(net::DeliveryMode::kImmediate);
  FarmOptions options;
  options.workers = 2;
  options.mini_steps = 10;
  ExperimentFarm farm(&network, network.clock(), options);
  constexpr std::size_t kWaves = 100;
  constexpr std::size_t kTenants = 4;
  net::EndpointTable& table = net::EndpointTable::Instance();

  std::vector<std::uint64_t> first_digests;
  std::size_t endpoints_after_first = 0;
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    for (std::size_t i = 0; i < kTenants; ++i) {
      EXPECT_EQ(farm.Admit({SessionKind::kMiniMost, 0, 1000 + i}),
                "t000" + std::to_string(i));
    }
    const util::Result<FarmReport> run = farm.RunAll();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(run->completed, kTenants) << "wave " << wave;
    ASSERT_EQ(run->services_after_reap, farm.baseline_services())
        << "wave " << wave;
    ASSERT_EQ(run->registrations_after_reap, farm.baseline_registrations())
        << "wave " << wave;
    // Nobody reads the registry's SDE mirror here, so its removal queue
    // must not grow with the names each wave unregisters.
    ASSERT_EQ(farm.registry()->pending_sde_removals(), 0u) << "wave " << wave;
    std::vector<std::uint64_t> digests;
    for (const SessionResult& session : run->sessions) {
      digests.push_back(session.history_digest);
    }
    if (wave == 0) {
      first_digests = digests;
      endpoints_after_first = table.size();
      continue;
    }
    ASSERT_EQ(digests, first_digests) << "wave " << wave;
    ASSERT_EQ(table.size(), endpoints_after_first) << "wave " << wave;
    ASSERT_EQ(run->endpoints_interned, endpoints_after_first);
  }
}

TEST(FarmTest, WorkerCountDoesNotChangeHistories) {
  // Tenants share the fabric but no state: the same seeded wave gives the
  // same per-tenant histories whether one worker or four run it.
  constexpr std::size_t kTenants = 24;
  auto run_wave = [&](std::size_t workers) {
    net::Network network(net::DeliveryMode::kImmediate);
    FarmOptions options;
    options.workers = workers;
    options.mini_steps = 20;
    ExperimentFarm farm(&network, network.clock(), options);
    for (std::size_t i = 0; i < kTenants; ++i) {
      (void)farm.Admit({SessionKind::kMiniMost, 0, 5000 + i});
    }
    util::Result<FarmReport> run = farm.RunAll();
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return run.ok() ? std::move(run->sessions) : std::vector<SessionResult>{};
  };
  const std::vector<SessionResult> one = run_wave(1);
  const std::vector<SessionResult> four = run_wave(4);
  ASSERT_EQ(one.size(), kTenants);
  ASSERT_EQ(four.size(), kTenants);
  for (std::size_t i = 0; i < kTenants; ++i) {
    ASSERT_TRUE(one[i].ok) << one[i].tenant << ": " << one[i].error;
    EXPECT_EQ(four[i].tenant, one[i].tenant);
    EXPECT_EQ(four[i].steps_completed, one[i].steps_completed)
        << one[i].tenant;
    EXPECT_EQ(four[i].history_digest, one[i].history_digest)
        << one[i].tenant;
  }
}

TEST(FarmTest, ReapLeavesNoTenantEndpoints) {
  // Each worker reaps the tenants it ran: after the join no tenant
  // endpoint is registered and the tenant's links (which live in the
  // shards of their destinations) are reclaimed.
  net::Network network(net::DeliveryMode::kImmediate);
  FarmOptions options;
  options.workers = 4;
  options.mini_steps = 20;
  ExperimentFarm farm(&network, network.clock(), options);
  constexpr std::size_t kTenants = 16;
  std::vector<std::string> tenants;
  for (std::size_t i = 0; i < kTenants; ++i) {
    tenants.push_back(farm.Admit({SessionKind::kMiniMost, 0, 0}));
  }
  const util::Result<FarmReport> run = farm.RunAll();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->completed, kTenants);
  EXPECT_GT(network.TotalMetrics().delivered, 0u);

  for (const std::string& tenant : tenants) {
    const std::string coordinator = tenant + "/minimost.coordinator";
    const std::string site = tenant + "/ntcp.minimost";
    for (const std::string& endpoint :
         {coordinator, site, site + ".sim"}) {
      EXPECT_FALSE(network.HasEndpoint(endpoint)) << endpoint;
    }
    EXPECT_EQ(network.LinkMetricsFor(coordinator, site).sent, 0u) << tenant;
    EXPECT_EQ(network.LinkMetricsFor(site, coordinator).sent, 0u) << tenant;
  }
}

TEST(FarmTest, DefaultSeedsFollowLifetimeAdmissionCount) {
  // Seed 0 derives from how many sessions the farm admitted before, not
  // from the recycled slot: the second wave's tenants get the seeds a
  // never-recycling farm gave them (0x6e656573 + lifetime index).
  constexpr std::uint64_t kSeedBase = 0x6e65'6573ULL;
  FarmOptions options;
  options.workers = 2;
  options.mini_steps = 15;
  std::vector<std::uint64_t> derived;
  {
    net::Network network(net::DeliveryMode::kImmediate);
    ExperimentFarm farm(&network, network.clock(), options);
    for (int i = 0; i < 3; ++i) (void)farm.Admit({SessionKind::kMiniMost, 0, 0});
    ASSERT_TRUE(farm.RunAll().ok());
    for (int i = 0; i < 2; ++i) (void)farm.Admit({SessionKind::kMiniMost, 0, 0});
    const util::Result<FarmReport> second = farm.RunAll();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    for (const SessionResult& session : second->sessions) {
      ASSERT_TRUE(session.ok) << session.error;
      derived.push_back(session.history_digest);
    }
  }
  std::vector<std::uint64_t> pinned;
  {
    net::Network network(net::DeliveryMode::kImmediate);
    ExperimentFarm farm(&network, network.clock(), options);
    (void)farm.Admit({SessionKind::kMiniMost, 0, kSeedBase + 3});
    (void)farm.Admit({SessionKind::kMiniMost, 0, kSeedBase + 4});
    const util::Result<FarmReport> run = farm.RunAll();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    for (const SessionResult& session : run->sessions) {
      pinned.push_back(session.history_digest);
    }
  }
  EXPECT_EQ(derived, pinned);
  ASSERT_EQ(derived.size(), 2u);
  EXPECT_NE(derived[0], derived[1]);  // the seed reaches the history
}

TEST(FarmTest, RecycledTenantViewerSeriesHoldsOnlyItsOwnRun) {
  // Two waves put a MOST session in slot t0000. The second one must start
  // from an empty CHEF viewer series, not append to the first one's.
  net::Network network(net::DeliveryMode::kImmediate);
  FarmOptions options;
  options.workers = 1;
  ExperimentFarm farm(&network, network.clock(), options);
  ASSERT_TRUE(farm.Start().ok());
  const std::string channel = "t0000/most.displacement";
  chef::DataViewerStore& viewer = farm.chef()->viewer();

  // A probe subscribed after the farm's own viewer feed: in kImmediate
  // mode each frame reaches the CHEF store first, so the probe sees the
  // series exactly as a viewer would after that frame.
  nsds::NsdsSubscriber probe(&network, "probe.viewer");
  ASSERT_TRUE(probe.SubscribeTo(ExperimentFarm::kNsds, "t0000/").ok());
  std::size_t frames = 0;
  std::size_t longest = 0;
  probe.SetFrameCallback([&](const nsds::DataFrame&) {
    ++frames;
    longest = std::max(longest, viewer.SampleCount(channel));
  });

  for (const std::size_t steps : {std::size_t{30}, std::size_t{20}}) {
    frames = 0;
    longest = 0;
    (void)farm.Admit({SessionKind::kMost, steps, 777});
    const util::Result<FarmReport> run = farm.RunAll();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(run->completed, 1u);
    EXPECT_GT(frames, 0u);
    EXPECT_EQ(longest, frames) << steps << "-step run";
    // The reap leaves nothing under the slot for its next holder.
    EXPECT_EQ(viewer.SampleCount(channel), 0u);
    for (const std::string& name : viewer.Channels()) {
      EXPECT_NE(name.rfind("t0000/", 0), 0u) << name;
    }
  }
}

}  // namespace
}  // namespace nees::farm
