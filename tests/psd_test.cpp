// Tests for the MS-PSDS coordinator: correctness of the distributed
// integration against local references, the propose-all-before-execute
// discipline, naive vs fault-tolerant behaviour under injected faults, and
// checkpoint/restart.
#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "net/network.h"
#include "ntcp/server.h"
#include "plugins/policy_plugin.h"
#include "plugins/simulation_plugin.h"
#include "psd/coordinator.h"
#include "wal/wal.h"
#include "structural/integrator.h"
#include "util/clock.h"
#include "util/logging.h"

namespace nees::psd {
namespace {

using util::ErrorCode;

// Three elastic substructures splitting a 1-DOF story: k = k1 + k2 + k3.
constexpr double kMass = 5.0e4;
constexpr double kLeft = 4.4e5, kMiddle = 1.78e6, kRight = 1.78e6;
constexpr double kTotal = kLeft + kMiddle + kRight;

class CoordinatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_.SetClock(&clock_);
    StartSite("ntcp.a", "cp", kLeft);
    StartSite("ntcp.b", "cp", kMiddle);
    StartSite("ntcp.c", "cp", kRight);
    rpc_ = std::make_unique<net::RpcClient>(&network_, "coordinator");
  }

  void StartSite(const std::string& endpoint, const std::string& cp,
                 double stiffness) {
    auto plugin = std::make_unique<plugins::SimulationPlugin>();
    structural::Matrix k(1, 1);
    k(0, 0) = stiffness;
    plugin->AddControlPoint(
        cp, std::make_unique<structural::ElasticSubstructure>(k));
    auto server = std::make_unique<ntcp::NtcpServer>(&network_, endpoint,
                                                     std::move(plugin),
                                                     &clock_);
    ASSERT_TRUE(server->Start().ok());
    servers_.push_back(std::move(server));
  }

  CoordinatorConfig MakeConfig(std::size_t steps,
                               FaultPolicy policy = FaultPolicy::kFaultTolerant) {
    CoordinatorConfig config;
    config.run_id = "test";
    config.mass = structural::Matrix::Identity(1) * kMass;
    const double omega = std::sqrt(kTotal / kMass);
    config.damping =
        structural::Matrix::Identity(1) * (2.0 * 0.02 * omega * kMass);
    config.iota = {1.0};
    config.motion = structural::SinePulse(0.02, steps, 3.0, 1.0);
    config.sites = {{"A", "ntcp.a", "cp", {0}},
                    {"B", "ntcp.b", "cp", {0}},
                    {"C", "ntcp.c", "cp", {0}}};
    config.fault_policy = policy;
    config.retry.initial_backoff_micros = 1000;  // fast virtual backoff
    return config;
  }

  util::SimClock clock_{1'000'000};
  net::Network network_;
  std::vector<std::unique_ptr<ntcp::NtcpServer>> servers_;
  std::unique_ptr<net::RpcClient> rpc_;
};

TEST_F(CoordinatorTest, DistributedRunMatchesLocalCentralDifference) {
  SimulationCoordinator coordinator(MakeConfig(300), rpc_.get(), &clock_);
  const RunReport report = coordinator.Run();
  ASSERT_TRUE(report.completed) << report.failure.ToString();
  EXPECT_EQ(report.steps_completed, 299u);

  // Local reference: the same integration with the summed stiffness.
  const auto config = MakeConfig(300);
  structural::Matrix k = structural::Matrix::Identity(1) * kTotal;
  structural::ElasticSubstructure elastic(k);
  structural::CentralDifferencePsd psd(config.mass, config.damping, {1.0});
  auto reference = psd.Integrate(
      config.motion,
      [&](std::size_t, const structural::Vector& d)
          -> util::Result<structural::Vector> {
        structural::Vector force;
        NEES_RETURN_IF_ERROR(elastic.Restore(d, force));
        return force;
      });
  ASSERT_TRUE(reference.ok());

  ASSERT_EQ(report.history.displacement.size(),
            reference->displacement.size());
  double max_diff = 0;
  for (std::size_t i = 0; i < reference->displacement.size(); ++i) {
    max_diff = std::max(max_diff,
                        std::fabs(report.history.displacement[i][0] -
                                  reference->displacement[i][0]));
  }
  EXPECT_LT(max_diff, 1e-12 + 1e-9 * reference->PeakDisplacement(0));
}

TEST_F(CoordinatorTest, EveryStepProposesToAllSitesBeforeExecuting) {
  SimulationCoordinator coordinator(MakeConfig(50), rpc_.get(), &clock_);
  const RunReport report = coordinator.Run();
  ASSERT_TRUE(report.completed);
  for (const auto& server : servers_) {
    const auto stats = server->stats();
    EXPECT_EQ(stats.proposals, 49u);
    EXPECT_EQ(stats.executions, 49u);
    EXPECT_EQ(stats.rejected, 0u);
  }
  for (const SiteStats& site : report.site_stats) {
    EXPECT_EQ(site.proposals, 49u);
    EXPECT_EQ(site.executes, 49u);
  }
}

TEST_F(CoordinatorTest, ObserverSeesEveryStep) {
  SimulationCoordinator coordinator(MakeConfig(40), rpc_.get(), &clock_);
  std::vector<std::size_t> steps;
  coordinator.SetStepObserver(
      [&](std::size_t step, const structural::Vector&,
          const std::vector<ntcp::TransactionResult>& results) {
        steps.push_back(step);
        EXPECT_EQ(results.size(), 3u);
      });
  ASSERT_TRUE(coordinator.Run().completed);
  ASSERT_EQ(steps.size(), 39u);
  EXPECT_EQ(steps.front(), 0u);
  EXPECT_EQ(steps.back(), 38u);
}

TEST_F(CoordinatorTest, NaiveCoordinatorDiesOnSingleLostMessage) {
  // The §3.4 public-run failure mode: one lost message at step 30 kills
  // a coordinator that does not retry.
  SimulationCoordinator coordinator(MakeConfig(100, FaultPolicy::kNaive),
                                    rpc_.get(), &clock_);
  coordinator.SetStepObserver(
      [&](std::size_t step, const structural::Vector&,
          const std::vector<ntcp::TransactionResult>&) {
        if (step == 29) network_.DropNext("coordinator", "ntcp.b", 1);
      });
  const RunReport report = coordinator.Run();
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.steps_completed, 30u);
  EXPECT_EQ(report.failure.code(), ErrorCode::kTimeout);
}

TEST_F(CoordinatorTest, FaultTolerantCoordinatorRidesOutBursts) {
  SimulationCoordinator coordinator(MakeConfig(100), rpc_.get(), &clock_);
  coordinator.SetStepObserver(
      [&](std::size_t step, const structural::Vector&,
          const std::vector<ntcp::TransactionResult>&) {
        if (step == 20 || step == 60) {
          network_.DropNext("coordinator", "ntcp.a", 2);
          network_.DropNext("ntcp.c", "coordinator", 1);
        }
      });
  const RunReport report = coordinator.Run();
  ASSERT_TRUE(report.completed) << report.failure.ToString();
  EXPECT_GE(report.transient_faults_recovered, 2u);
  // At-most-once held: each server executed exactly once per step.
  for (const auto& server : servers_) {
    EXPECT_EQ(server->stats().executions, 99u);
  }
}

TEST_F(CoordinatorTest, LostExecuteReplyDoesNotDoubleApplyForces) {
  SimulationCoordinator coordinator(MakeConfig(60), rpc_.get(), &clock_);
  coordinator.SetStepObserver(
      [&](std::size_t step, const structural::Vector&,
          const std::vector<ntcp::TransactionResult>&) {
        if (step == 10) network_.DropNext("ntcp.b", "coordinator", 1);
      });
  const RunReport report = coordinator.Run();
  ASSERT_TRUE(report.completed);
  // At-most-once: exactly one real execution per step despite the re-sent
  // request (the lost reply hits either the propose or execute response;
  // both are deduplicated server-side).
  EXPECT_EQ(servers_[1]->stats().executions, 59u);
  const auto stats = servers_[1]->stats();
  EXPECT_GE(stats.duplicate_proposals + stats.duplicate_executes, 1u);
}

TEST_F(CoordinatorTest, PolicyRejectionIsNotRetried) {
  // A site whose limit is below the commanded displacement rejects at
  // propose time; the coordinator must stop (configuration error), not
  // hammer the site with retries.
  auto config = MakeConfig(100);
  config.motion = structural::Harmonic(0.02, 100, 50.0, 0.5);  // huge drive
  SimulationCoordinator coordinator(config, rpc_.get(), &clock_);

  // Replace site B's plugin behaviour by restarting it with a policy.
  servers_[1]->Stop();
  auto inner = std::make_unique<plugins::SimulationPlugin>();
  structural::Matrix k(1, 1);
  k(0, 0) = kMiddle;
  inner->AddControlPoint(
      "cp", std::make_unique<structural::ElasticSubstructure>(k));
  plugins::SitePolicy policy;
  policy.max_abs_displacement_m = 0.001;
  auto limited = std::make_unique<ntcp::NtcpServer>(
      &network_, "ntcp.b2",
      std::make_unique<plugins::LimitPolicyPlugin>(policy, std::move(inner)),
      &clock_);
  ASSERT_TRUE(limited->Start().ok());

  auto config2 = MakeConfig(100);
  config2.motion = structural::Harmonic(0.02, 100, 50.0, 0.5);
  config2.sites[1].ntcp_endpoint = "ntcp.b2";
  SimulationCoordinator coordinator2(config2, rpc_.get(), &clock_);
  const RunReport report = coordinator2.Run();
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.failure.code(), ErrorCode::kPolicyViolation);
  // The rejection happened at propose time: no site executed that step.
  EXPECT_EQ(limited->stats().executions, report.steps_completed);
}

TEST_F(CoordinatorTest, RejectionCancelsAcceptedSiblingsBeforeAnyMotion) {
  // Site C (third in the list) rejects the step; the already-accepted
  // transactions at A and B must be cancelled (§2.1) and nothing executed.
  auto config = MakeConfig(10);
  config.max_step_attempts = 1;
  SimulationCoordinator coordinator(config, rpc_.get(), &clock_);

  // Replace site C with a tightly-limited one.
  servers_[2]->Stop();
  auto inner = std::make_unique<plugins::SimulationPlugin>();
  structural::Matrix k(1, 1);
  k(0, 0) = kRight;
  inner->AddControlPoint(
      "cp", std::make_unique<structural::ElasticSubstructure>(k));
  plugins::SitePolicy policy;
  policy.max_abs_displacement_m = 1e-9;  // rejects everything non-zero
  auto limited = std::make_unique<ntcp::NtcpServer>(
      &network_, "ntcp.c2",
      std::make_unique<plugins::LimitPolicyPlugin>(policy, std::move(inner)),
      &clock_);
  ASSERT_TRUE(limited->Start().ok());
  config.sites[2].ntcp_endpoint = "ntcp.c2";
  SimulationCoordinator coordinator2(config, rpc_.get(), &clock_);

  const RunReport report = coordinator2.Run();
  EXPECT_FALSE(report.completed);
  // Step 0 commands zero displacement (accepted everywhere); step 1 is the
  // first non-zero command and is rejected at C.
  for (int site : {0, 1}) {
    const auto ids = servers_[site]->ListTransactions();
    bool saw_cancelled = false;
    for (const std::string& id : ids) {
      const auto record = servers_[site]->GetTransaction(id);
      ASSERT_TRUE(record.ok());
      if (record->state == ntcp::TransactionState::kCancelled) {
        saw_cancelled = true;
      }
      EXPECT_NE(record->state, ntcp::TransactionState::kExecuting);
    }
    EXPECT_TRUE(saw_cancelled) << "site " << site;
  }
}

// Forwarding plugin that runs a hook before each execution — used to inject
// faults at an exact point inside a step's execute phase.
class ExecuteHookPlugin : public ntcp::ControlPlugin {
 public:
  ExecuteHookPlugin(std::unique_ptr<ntcp::ControlPlugin> inner,
                    std::function<void(const ntcp::Proposal&)> hook)
      : inner_(std::move(inner)), hook_(std::move(hook)) {}

  util::Status Validate(const ntcp::Proposal& proposal) override {
    return inner_->Validate(proposal);
  }
  util::Result<ntcp::TransactionResult> Execute(
      const ntcp::Proposal& proposal) override {
    hook_(proposal);
    return inner_->Execute(proposal);
  }
  std::string_view kind() const override { return inner_->kind(); }

 private:
  std::unique_ptr<ntcp::ControlPlugin> inner_;
  std::function<void(const ntcp::Proposal&)> hook_;
};

TEST_F(CoordinatorTest, FailedExecutePhaseCancelsNotYetExecutedSites) {
  // Step 1's execute request to site C is lost (injected from site A's
  // execute, which the engine resolves first). The attempt fails after A
  // and B executed; the re-proposal runs under fresh transaction ids — so
  // C's accepted-but-never-executed transaction must be cancelled, not
  // left in the server's table until expiry.
  auto config = MakeConfig(4);
  config.retry.max_attempts = 1;  // the lost execute fails the attempt

  servers_[0]->Stop();
  auto inner = std::make_unique<plugins::SimulationPlugin>();
  structural::Matrix k(1, 1);
  k(0, 0) = kLeft;
  inner->AddControlPoint(
      "cp", std::make_unique<structural::ElasticSubstructure>(k));
  bool injected = false;
  auto hooked = std::make_unique<ntcp::NtcpServer>(
      &network_, "ntcp.a2",
      std::make_unique<ExecuteHookPlugin>(
          std::move(inner),
          [&](const ntcp::Proposal& proposal) {
            if (proposal.step_index == 1 && !injected) {
              injected = true;
              network_.DropNext("coordinator", "ntcp.c", 1);
            }
          }),
      &clock_);
  ASSERT_TRUE(hooked->Start().ok());
  config.sites[0].ntcp_endpoint = "ntcp.a2";

  SimulationCoordinator coordinator(config, rpc_.get(), &clock_);
  const RunReport report = coordinator.Run();
  ASSERT_TRUE(report.completed) << report.failure.ToString();
  EXPECT_TRUE(injected);

  // Site C: the abandoned attempt's transaction is cancelled, and nothing
  // is left half-open.
  bool saw_cancelled = false;
  for (const std::string& id : servers_[2]->ListTransactions()) {
    const auto record = servers_[2]->GetTransaction(id);
    ASSERT_TRUE(record.ok());
    EXPECT_NE(record->state, ntcp::TransactionState::kAccepted) << id;
    saw_cancelled |= record->state == ntcp::TransactionState::kCancelled;
  }
  EXPECT_TRUE(saw_cancelled);
}

TEST_F(CoordinatorTest, CheckpointRestartMatchesUninterruptedRun) {
  // Reference: uninterrupted run.
  SimulationCoordinator full(MakeConfig(80), rpc_.get(), &clock_);
  const RunReport full_report = full.Run();
  ASSERT_TRUE(full_report.completed);

  // Interrupted run: execute 30 steps, checkpoint, "crash", restore into a
  // fresh coordinator (fresh transaction namespace), finish.
  auto config_a = MakeConfig(80);
  config_a.run_id = "part1";
  SimulationCoordinator part1(config_a, rpc_.get(), &clock_);
  for (int i = 0; i < 30; ++i) {
    auto advanced = part1.ExecuteStep();
    ASSERT_TRUE(advanced.ok());
    ASSERT_TRUE(*advanced);
  }
  const Checkpoint checkpoint = part1.GetCheckpoint();
  EXPECT_EQ(checkpoint.step, 30u);

  auto config_b = MakeConfig(80);
  config_b.run_id = "part2";
  SimulationCoordinator part2(config_b, rpc_.get(), &clock_);
  ASSERT_TRUE(part2.Restore(checkpoint).ok());
  const RunReport resumed = part2.Run();
  ASSERT_TRUE(resumed.completed);

  ASSERT_EQ(resumed.history.displacement.size(),
            full_report.history.displacement.size());
  for (std::size_t i = 0; i < resumed.history.displacement.size(); ++i) {
    EXPECT_NEAR(resumed.history.displacement[i][0],
                full_report.history.displacement[i][0], 1e-12);
  }
}

TEST_F(CoordinatorTest, WalResumeMatchesUninterruptedRun) {
  // Reference: uninterrupted run under its own transaction namespace.
  SimulationCoordinator full(MakeConfig(80), rpc_.get(), &clock_);
  const RunReport full_report = full.Run();
  ASSERT_TRUE(full_report.completed);

  // WAL run: 30 steps, then the coordinator process "dies" (only the log
  // survives) and a fresh coordinator resumes from the step boundaries.
  wal::MemoryStorage storage;
  auto config = MakeConfig(80);
  config.run_id = "walrun";
  SimulationCoordinator part1(config, rpc_.get(), &clock_);
  wal::Log log1(&storage);
  auto fresh = part1.AttachWal(&log1);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->steps_recovered, 0u);
  for (int i = 0; i < 30; ++i) {
    auto advanced = part1.ExecuteStep();
    ASSERT_TRUE(advanced.ok());
    ASSERT_TRUE(*advanced);
  }

  SimulationCoordinator part2(config, rpc_.get(), &clock_);
  wal::Log log2(&storage);
  auto recovered = part2.AttachWal(&log2);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->steps_recovered, 30u);
  EXPECT_FALSE(recovered->mid_step);
  const RunReport resumed = part2.Run();
  ASSERT_TRUE(resumed.completed) << resumed.failure.ToString();
  EXPECT_GT(resumed.wal_records, 0u);
  EXPECT_EQ(resumed.wal_sync_failures, 0u);

  ASSERT_EQ(resumed.history.displacement.size(),
            full_report.history.displacement.size());
  for (std::size_t i = 0; i < resumed.history.displacement.size(); ++i) {
    EXPECT_NEAR(resumed.history.displacement[i][0],
                full_report.history.displacement[i][0], 1e-12);
  }
}

TEST_F(CoordinatorTest, WalMidStepRedriveIsIdempotent) {
  wal::MemoryStorage storage;
  auto config = MakeConfig(40);
  config.run_id = "midstep";
  SimulationCoordinator part1(config, rpc_.get(), &clock_);
  wal::Log log1(&storage);
  ASSERT_TRUE(part1.AttachWal(&log1).ok());
  for (int i = 0; i < 11; ++i) {
    auto advanced = part1.ExecuteStep();
    ASSERT_TRUE(advanced.ok());
    ASSERT_TRUE(*advanced);
  }
  // Chop the final step-boundary record: the crash hit after the sites
  // executed step 10 but before its boundary reached the log. The per-site
  // outcome records for step 10 now sit past the last boundary.
  auto bytes = storage.Load();
  ASSERT_TRUE(bytes.ok());
  std::size_t offset = 0, last = 0;
  while (offset + 8 <= bytes->size()) {
    const std::uint32_t length =
        static_cast<std::uint32_t>((*bytes)[offset]) |
        static_cast<std::uint32_t>((*bytes)[offset + 1]) << 8 |
        static_cast<std::uint32_t>((*bytes)[offset + 2]) << 16 |
        static_cast<std::uint32_t>((*bytes)[offset + 3]) << 24;
    if (offset + 8 + length > bytes->size()) break;
    last = offset;
    offset += 8 + length;
  }
  storage.ForceTruncate(last);

  const std::uint64_t dups_before = servers_[0]->stats().duplicate_executes;
  SimulationCoordinator part2(config, rpc_.get(), &clock_);
  wal::Log log2(&storage);
  auto recovered = part2.AttachWal(&log2);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->steps_recovered, 10u);
  EXPECT_TRUE(recovered->mid_step);

  // Re-driving the interrupted step reuses the same deterministic
  // transaction ids, so the sites answer from the at-most-once cache
  // instead of moving the specimen twice.
  const RunReport resumed = part2.Run();
  ASSERT_TRUE(resumed.completed) << resumed.failure.ToString();
  EXPECT_GT(servers_[0]->stats().duplicate_executes, dups_before);
  for (const auto& server : servers_) {
    EXPECT_EQ(server->stats().executions, 39u);  // exactly once per step
  }
}

TEST_F(CoordinatorTest, WalFromDifferentRunRejected) {
  wal::MemoryStorage storage;
  auto config = MakeConfig(20);
  config.run_id = "run-a";
  SimulationCoordinator original(config, rpc_.get(), &clock_);
  wal::Log log1(&storage);
  ASSERT_TRUE(original.AttachWal(&log1).ok());

  auto other = MakeConfig(20);
  other.run_id = "run-b";
  SimulationCoordinator impostor(other, rpc_.get(), &clock_);
  wal::Log log2(&storage);
  auto recovered = impostor.AttachWal(&log2);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(CoordinatorTest, DimensionMismatchCaughtAtInit) {
  auto config = MakeConfig(10);
  config.iota = {1.0, 0.0};  // 2 entries vs 1-DOF mass
  SimulationCoordinator coordinator(config, rpc_.get(), &clock_);
  const RunReport report = coordinator.Run();
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.failure.code(), ErrorCode::kInvalidArgument);
}

TEST_F(CoordinatorTest, SecondRunFailsInsteadOfReturningNoHistory) {
  SimulationCoordinator coordinator(MakeConfig(10), rpc_.get(), &clock_);
  const RunReport first = coordinator.Run();
  ASSERT_TRUE(first.completed);
  EXPECT_EQ(first.history.displacement.size(), first.steps_completed + 1);
  // The first report took the history, so a second Run must not pass off
  // an empty one as a finished run.
  const RunReport second = coordinator.Run();
  EXPECT_FALSE(second.completed);
  EXPECT_EQ(second.failure.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(coordinator.ExecuteStep().status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(CoordinatorTest, SiteDofOutOfRangeCaught) {
  auto config = MakeConfig(10);
  config.sites[0].dofs = {5};
  SimulationCoordinator coordinator(config, rpc_.get(), &clock_);
  EXPECT_EQ(coordinator.Run().failure.code(), ErrorCode::kInvalidArgument);
}

TEST_F(CoordinatorTest, SurvivesBriefNetworkPartition) {
  // A symmetric partition between the coordinator and two sites that heals
  // within the retry budget: the run completes and at-most-once holds.
  auto config = MakeConfig(80);
  config.retry.max_attempts = 6;
  SimulationCoordinator coordinator(config, rpc_.get(), &clock_);

  // Partition before the run starts; "operations" heal it as soon as the
  // coordinator's first retry warning hits the log (i.e. after one failed
  // attempt — within the retry budget).
  network_.Partition({"coordinator"}, {"ntcp.a", "ntcp.b"});
  const int sink_id = util::Logger::Instance().AddSink(
      [&](const util::LogRecord& record) {
        if (record.message.find("retrying") != std::string::npos) {
          network_.HealPartition();
        }
      });
  const RunReport report = coordinator.Run();
  util::Logger::Instance().RemoveSink(sink_id);
  ASSERT_TRUE(report.completed) << report.failure.ToString();
  for (const auto& server : servers_) {
    EXPECT_EQ(server->stats().executions, 79u);
  }
}

TEST_F(CoordinatorTest, OperatorSplittingMatchesLocalReference) {
  auto config = MakeConfig(200);
  config.integrator = PsdIntegrator::kOperatorSplitting;
  config.initial_stiffness = structural::Matrix::Identity(1) * kTotal;
  SimulationCoordinator coordinator(config, rpc_.get(), &clock_);
  const RunReport report = coordinator.Run();
  ASSERT_TRUE(report.completed) << report.failure.ToString();

  structural::Matrix k = structural::Matrix::Identity(1) * kTotal;
  structural::ElasticSubstructure elastic(k);
  structural::OperatorSplittingPsd os(config.mass, config.damping, k,
                                      {1.0});
  auto reference = os.Integrate(
      config.motion,
      [&](std::size_t, const structural::Vector& d)
          -> util::Result<structural::Vector> {
        structural::Vector force;
        NEES_RETURN_IF_ERROR(elastic.Restore(d, force));
        return force;
      });
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(report.history.displacement.size(),
            reference->displacement.size());
  for (std::size_t i = 0; i < reference->displacement.size(); ++i) {
    EXPECT_NEAR(report.history.displacement[i][0],
                reference->displacement[i][0], 1e-12);
  }
}

TEST_F(CoordinatorTest, OperatorSplittingSurvivesCoarseTimeStep) {
  // dt well above the central-difference limit for this system: the CD
  // coordinator diverges numerically; the OS coordinator stays physical.
  auto make = [&](PsdIntegrator integrator) {
    auto config = MakeConfig(200);
    config.motion = structural::Harmonic(0.3, 200, 1.0, 0.3);  // dt > 2/omega
    config.integrator = integrator;
    config.initial_stiffness = structural::Matrix::Identity(1) * kTotal;
    config.run_id = integrator == PsdIntegrator::kCentralDifference
                        ? "coarse-cd"
                        : "coarse-os";
    return config;
  };
  SimulationCoordinator cd(make(PsdIntegrator::kCentralDifference),
                           rpc_.get(), &clock_);
  const RunReport cd_report = cd.Run();
  SimulationCoordinator os(make(PsdIntegrator::kOperatorSplitting),
                           rpc_.get(), &clock_);
  const RunReport os_report = os.Run();
  ASSERT_TRUE(os_report.completed) << os_report.failure.ToString();
  EXPECT_GT(cd_report.history.PeakDisplacement(0), 1e3);  // diverged
  EXPECT_LT(os_report.history.PeakDisplacement(0), 0.5);  // bounded
}

TEST_F(CoordinatorTest, OperatorSplittingRequiresInitialStiffness) {
  auto config = MakeConfig(10);
  config.integrator = PsdIntegrator::kOperatorSplitting;
  // initial_stiffness left empty.
  SimulationCoordinator coordinator(config, rpc_.get(), &clock_);
  EXPECT_EQ(coordinator.Run().failure.code(), ErrorCode::kInvalidArgument);
}

TEST_F(CoordinatorTest, OperatorSplittingCheckpointRestart) {
  auto config = MakeConfig(80);
  config.integrator = PsdIntegrator::kOperatorSplitting;
  config.initial_stiffness = structural::Matrix::Identity(1) * kTotal;
  SimulationCoordinator full(config, rpc_.get(), &clock_);
  const RunReport reference = full.Run();
  ASSERT_TRUE(reference.completed);

  auto config_a = config;
  config_a.run_id = "os-part1";
  SimulationCoordinator part1(config_a, rpc_.get(), &clock_);
  for (int i = 0; i < 25; ++i) {
    auto advanced = part1.ExecuteStep();
    ASSERT_TRUE(advanced.ok());
  }
  auto config_b = config;
  config_b.run_id = "os-part2";
  SimulationCoordinator part2(config_b, rpc_.get(), &clock_);
  ASSERT_TRUE(part2.Restore(part1.GetCheckpoint()).ok());
  const RunReport resumed = part2.Run();
  ASSERT_TRUE(resumed.completed);
  for (std::size_t i = 0; i < resumed.history.displacement.size(); ++i) {
    EXPECT_NEAR(resumed.history.displacement[i][0],
                reference.history.displacement[i][0], 1e-12);
  }
}

TEST_F(CoordinatorTest, AsyncEngineProducesIdenticalResponse) {
  // In kImmediate delivery the completion-driven engine resolves each call
  // inline in issue order, so histories are bit-identical to sequential.
  auto sequential_config = MakeConfig(120);
  sequential_config.step_engine = StepEngine::kSequential;
  SimulationCoordinator sequential(sequential_config, rpc_.get(), &clock_);
  const RunReport reference = sequential.Run();
  ASSERT_TRUE(reference.completed);

  auto config = MakeConfig(120);
  config.run_id = "async";
  config.step_engine = StepEngine::kAsync;
  net::RpcClient async_rpc(&network_, "async.coordinator");
  SimulationCoordinator async_coord(config, &async_rpc, &clock_);
  const RunReport report = async_coord.Run();
  ASSERT_TRUE(report.completed) << report.failure.ToString();

  ASSERT_EQ(report.history.displacement.size(),
            reference.history.displacement.size());
  for (std::size_t i = 0; i < reference.history.displacement.size(); ++i) {
    EXPECT_EQ(report.history.displacement[i][0],
              reference.history.displacement[i][0]);
  }
  EXPECT_GT(report.propose_phase_micros.count(), 0u);
  EXPECT_GT(report.execute_phase_micros.count(), 0u);
}

TEST_F(CoordinatorTest, ParallelSitesOverlapWanRoundTrips) {
  // Over a 2 ms one-way WAN in virtual time, the async engine overlaps the
  // three sites: every propose/execute phase costs exactly one round trip,
  // where the sequential engine pays one per site. Either way each site's
  // own propose or execute takes exactly one round trip on the
  // coordinator's clock.
  net::Network network(net::DeliveryMode::kVirtual);
  net::LinkModel wan;
  wan.latency_micros = 2000;  // 2 ms one way
  network.SetDefaultLink(wan);
  std::vector<std::unique_ptr<ntcp::NtcpServer>> servers;
  for (const std::string endpoint : {"ntcp.p1", "ntcp.p2", "ntcp.p3"}) {
    auto plugin = std::make_unique<plugins::SimulationPlugin>();
    structural::Matrix k(1, 1);
    k(0, 0) = kLeft;
    plugin->AddControlPoint(
        "cp", std::make_unique<structural::ElasticSubstructure>(k));
    auto server = std::make_unique<ntcp::NtcpServer>(
        &network, endpoint, std::move(plugin), network.clock());
    ASSERT_TRUE(server->Start().ok());
    servers.push_back(std::move(server));
  }

  constexpr double kRtt = 4'000;
  auto run = [&](StepEngine engine, const std::string& name) {
    CoordinatorConfig config = MakeConfig(15);
    config.run_id = name;
    config.step_engine = engine;
    config.sites = {{"P1", "ntcp.p1", "cp", {0}},
                    {"P2", "ntcp.p2", "cp", {0}},
                    {"P3", "ntcp.p3", "cp", {0}}};
    net::RpcClient rpc(&network, name + ".coordinator");
    SimulationCoordinator coordinator(config, &rpc, network.clock());
    const RunReport report = coordinator.Run();
    EXPECT_TRUE(report.completed) << report.failure.ToString();
    EXPECT_EQ(report.propose_phase_micros.count(), 14u) << name;
    EXPECT_EQ(report.site_stats.size(), 3u) << name;
    for (const SiteStats& site : report.site_stats) {
      EXPECT_EQ(site.step_micros.count(), 28u) << name << " " << site.name;
      EXPECT_EQ(site.step_micros.min(), kRtt) << name << " " << site.name;
      EXPECT_EQ(site.step_micros.max(), kRtt) << name << " " << site.name;
    }
    return report;
  };
  const RunReport sequential = run(StepEngine::kSequential, "seq");
  EXPECT_EQ(sequential.propose_phase_micros.min(), 3 * kRtt);
  EXPECT_EQ(sequential.propose_phase_micros.max(), 3 * kRtt);
  EXPECT_EQ(sequential.execute_phase_micros.min(), 3 * kRtt);
  EXPECT_EQ(sequential.execute_phase_micros.max(), 3 * kRtt);
  const RunReport async = run(StepEngine::kAsync, "asy");
  EXPECT_EQ(async.propose_phase_micros.min(), kRtt);
  EXPECT_EQ(async.propose_phase_micros.max(), kRtt);
  EXPECT_EQ(async.execute_phase_micros.min(), kRtt);
  EXPECT_EQ(async.execute_phase_micros.max(), kRtt);
  EXPECT_EQ(async.history.displacement, sequential.history.displacement);
}

TEST_F(CoordinatorTest, MultiDofSystemDistributesByDofIndex) {
  // 2-DOF system: sites A and C carry DOF 0, site B carries DOF 1.
  auto config = MakeConfig(100);
  config.mass = structural::Matrix::Identity(2) * kMass;
  config.damping = structural::Matrix(2, 2);
  config.iota = {1.0, 1.0};
  config.sites = {{"A", "ntcp.a", "cp", {0}},
                  {"B", "ntcp.b", "cp", {1}},
                  {"C", "ntcp.c", "cp", {0}}};
  SimulationCoordinator coordinator(config, rpc_.get(), &clock_);
  const RunReport report = coordinator.Run();
  ASSERT_TRUE(report.completed) << report.failure.ToString();

  // Reference: diag(kLeft + kRight, kMiddle) stiffness.
  structural::Matrix k(2, 2);
  k(0, 0) = kLeft + kRight;
  k(1, 1) = kMiddle;
  structural::ElasticSubstructure elastic(k);
  structural::CentralDifferencePsd psd(config.mass, config.damping,
                                       config.iota);
  auto reference = psd.Integrate(
      config.motion,
      [&](std::size_t, const structural::Vector& d)
          -> util::Result<structural::Vector> {
        structural::Vector force;
        NEES_RETURN_IF_ERROR(elastic.Restore(d, force));
        return force;
      });
  ASSERT_TRUE(reference.ok());
  for (std::size_t i = 0; i < reference->displacement.size(); ++i) {
    EXPECT_NEAR(report.history.displacement[i][0],
                reference->displacement[i][0], 1e-9);
    EXPECT_NEAR(report.history.displacement[i][1],
                reference->displacement[i][1], 1e-9);
  }
}

}  // namespace
}  // namespace nees::psd
