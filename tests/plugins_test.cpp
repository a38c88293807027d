// Tests for the control plugins: simulation, policy decorators, the
// Shore-Western path, the Mplugin buffered-poll pattern (in-process and
// over RPC), and the LabVIEW/Mini-MOST path — including the "transparent
// substitution" property (§2.1) that simulation and physical plugins are
// indistinguishable to an NTCP client.
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include <gtest/gtest.h>

#include "net/network.h"
#include "ntcp/client.h"
#include "ntcp/server.h"
#include "plugins/labview_plugin.h"
#include "plugins/mplugin.h"
#include "plugins/policy_plugin.h"
#include "plugins/shorewestern_plugin.h"
#include "plugins/simulation_plugin.h"
#include "testbed/specimen.h"
#include "util/bytes.h"
#include "util/clock.h"

namespace nees::plugins {
namespace {

using util::ErrorCode;

ntcp::Proposal MakeProposal(const std::string& id, const std::string& cp,
                            double displacement) {
  ntcp::Proposal proposal;
  proposal.transaction_id = id;
  ntcp::ControlPointRequest action;
  action.control_point = cp;
  action.target_displacement = {displacement};
  proposal.actions.push_back(std::move(action));
  return proposal;
}

std::unique_ptr<structural::SubstructureModel> ElasticModel(double k_value) {
  structural::Matrix k(1, 1);
  k(0, 0) = k_value;
  return std::make_unique<structural::ElasticSubstructure>(k);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

using Models =
    std::map<std::string, std::unique_ptr<structural::SubstructureModel>>;

// Three control points, six DOF: two elastic frames (2 and 3 DOF, coupled
// stiffness) and a hysteretic column, whose state makes call order matter.
Models SixDofModels() {
  Models models;
  structural::Matrix k2(2, 2);
  k2(0, 0) = 2000.0;
  k2(0, 1) = -500.0;
  k2(1, 0) = -500.0;
  k2(1, 1) = 1500.0;
  models["frame-2"] = std::make_unique<structural::ElasticSubstructure>(k2);
  structural::Matrix k3(3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      k3(i, j) = i == j ? 3000.0 + 100.0 * i : -250.0;
    }
  }
  models["frame-3"] = std::make_unique<structural::ElasticSubstructure>(k3);
  models["column"] = std::make_unique<structural::BoucWenSubstructure>(
      structural::BoucWenSubstructure::Params{});
  return models;
}

ntcp::Proposal SixDofProposal(const std::string& id, double scale) {
  ntcp::Proposal proposal;
  proposal.transaction_id = id;
  proposal.actions.resize(3);
  proposal.actions[0].control_point = "frame-2";
  proposal.actions[0].target_displacement = {0.010 * scale, -0.004 * scale};
  proposal.actions[1].control_point = "frame-3";
  proposal.actions[1].target_displacement = {0.003 * scale, 0.007 * scale,
                                             -0.002 * scale};
  proposal.actions[2].control_point = "column";
  proposal.actions[2].target_displacement = {0.02 * scale};
  return proposal;
}

// Scales of the proposals the six-DOF comparison steps through: a load
// cycle, so the hysteretic column yields and unloads.
constexpr double kSixDofScales[] = {0.5, 1.0, 1.5, 0.2, -1.0, -0.3};

// --- SimulationPlugin ----------------------------------------------------------

TEST(SimulationPluginTest, MultipleControlPoints) {
  SimulationPlugin plugin;
  plugin.AddControlPoint("left", ElasticModel(1000.0));
  plugin.AddControlPoint("right", ElasticModel(2000.0));

  ntcp::Proposal proposal;
  proposal.transaction_id = "t";
  for (const auto& [name, d] :
       std::vector<std::pair<std::string, double>>{{"left", 0.01},
                                                   {"right", 0.01}}) {
    ntcp::ControlPointRequest action;
    action.control_point = name;
    action.target_displacement = {d};
    proposal.actions.push_back(action);
  }
  ASSERT_TRUE(plugin.Validate(proposal).ok());
  auto result = plugin.Execute(proposal);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->Find("left")->measured_force[0], 10.0, 1e-9);
  EXPECT_NEAR(result->Find("right")->measured_force[0], 20.0, 1e-9);
}

TEST(SimulationPluginTest, DofMismatchRejectedAtValidate) {
  SimulationPlugin plugin;
  plugin.AddControlPoint("cp", ElasticModel(1.0));
  ntcp::Proposal proposal = MakeProposal("t", "cp", 0.01);
  proposal.actions[0].target_displacement = {0.01, 0.02};  // model is 1-DOF
  EXPECT_EQ(plugin.Validate(proposal).code(), ErrorCode::kInvalidArgument);
}

TEST(SimulationPluginTest, EmptyProposalRejected) {
  SimulationPlugin plugin;
  ntcp::Proposal proposal;
  proposal.transaction_id = "t";
  EXPECT_FALSE(plugin.Validate(proposal).ok());
}

// --- LimitPolicyPlugin ------------------------------------------------------------

TEST(LimitPolicyTest, RejectsOverLimitDisplacementBeforeInner) {
  SitePolicy policy;
  policy.max_abs_displacement_m = 0.05;
  auto inner = std::make_unique<SimulationPlugin>();
  inner->AddControlPoint("cp", ElasticModel(1.0));
  LimitPolicyPlugin plugin(policy, std::move(inner));

  EXPECT_TRUE(plugin.Validate(MakeProposal("a", "cp", 0.04)).ok());
  const util::Status rejected = plugin.Validate(MakeProposal("b", "cp", 0.06));
  EXPECT_EQ(rejected.code(), ErrorCode::kPolicyViolation);
  EXPECT_EQ(plugin.rejections(), 1u);
}

TEST(LimitPolicyTest, RejectsForceControlWhenConfigured) {
  SitePolicy policy;
  policy.reject_force_control = true;
  auto inner = std::make_unique<SimulationPlugin>();
  inner->AddControlPoint("cp", ElasticModel(1.0));
  LimitPolicyPlugin plugin(policy, std::move(inner));

  ntcp::Proposal proposal = MakeProposal("a", "cp", 0.01);
  proposal.actions[0].target_force = {100.0};
  EXPECT_EQ(plugin.Validate(proposal).code(), ErrorCode::kPolicyViolation);
}

// A NaN compares false against any limit, so a bare `|x| > limit` test
// would wave it through to the actuator.
TEST(LimitPolicyTest, RejectsNanDisplacementAndForce) {
  SitePolicy policy;
  policy.max_abs_displacement_m = 0.05;
  policy.max_abs_force_n = 50.0;
  auto inner = std::make_unique<SimulationPlugin>();
  inner->AddControlPoint("cp", ElasticModel(1.0));
  LimitPolicyPlugin plugin(policy, std::move(inner));

  EXPECT_EQ(plugin.Validate(MakeProposal("d", "cp", kNaN)).code(),
            ErrorCode::kPolicyViolation);
  ntcp::Proposal force = MakeProposal("f", "cp", 0.01);
  force.actions[0].target_force = {kNaN};
  EXPECT_EQ(plugin.Validate(force).code(), ErrorCode::kPolicyViolation);
  EXPECT_EQ(plugin.rejections(), 2u);
}

TEST(LimitPolicyTest, RejectsInfiniteDisplacementAndForce) {
  SitePolicy policy;
  policy.max_abs_displacement_m = 0.05;
  policy.max_abs_force_n = 50.0;
  auto inner = std::make_unique<SimulationPlugin>();
  inner->AddControlPoint("cp", ElasticModel(1.0));
  LimitPolicyPlugin plugin(policy, std::move(inner));

  for (const double value : {kInf, -kInf}) {
    EXPECT_EQ(plugin.Validate(MakeProposal("d", "cp", value)).code(),
              ErrorCode::kPolicyViolation);
    ntcp::Proposal force = MakeProposal("f", "cp", 0.01);
    force.actions[0].target_force = {value};
    EXPECT_EQ(plugin.Validate(force).code(), ErrorCode::kPolicyViolation);
  }
  EXPECT_EQ(plugin.rejections(), 4u);
}

TEST(LimitPolicyTest, ForceLimitChecked) {
  SitePolicy policy;
  policy.max_abs_force_n = 50.0;
  auto inner = std::make_unique<SimulationPlugin>();
  inner->AddControlPoint("cp", ElasticModel(1.0));
  LimitPolicyPlugin plugin(policy, std::move(inner));
  ntcp::Proposal proposal = MakeProposal("a", "cp", 0.01);
  proposal.actions[0].target_force = {100.0};
  EXPECT_EQ(plugin.Validate(proposal).code(), ErrorCode::kPolicyViolation);
}

TEST(LimitPolicyTest, NegotiationHappensBeforeAnyMotion) {
  // End-to-end: a proposal over the site limit is rejected at propose time
  // and execute never reaches the plugin — nothing moved anywhere.
  util::SimClock clock;
  net::Network network;
  network.SetClock(&clock);
  SitePolicy policy;
  policy.max_abs_displacement_m = 0.05;
  auto inner = std::make_unique<SimulationPlugin>();
  auto* inner_raw = inner.get();
  inner->AddControlPoint("cp", ElasticModel(1.0));
  ntcp::NtcpServer server(
      &network, "ntcp.site",
      std::make_unique<LimitPolicyPlugin>(policy, std::move(inner)), &clock);
  ASSERT_TRUE(server.Start().ok());

  EXPECT_FALSE(server.Propose(MakeProposal("big", "cp", 0.2)).accepted);
  EXPECT_EQ(server.Execute("big").status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(inner_raw->executions(), 0u);
}

// --- HumanApprovalPlugin -----------------------------------------------------------

TEST(HumanApprovalTest, DeniedExecutionAborts) {
  auto inner = std::make_unique<SimulationPlugin>();
  auto* inner_raw = inner.get();
  inner->AddControlPoint("cp", ElasticModel(1.0));
  bool approve = false;
  HumanApprovalPlugin plugin(
      [&approve](const ntcp::Proposal&) { return approve; }, std::move(inner));

  ASSERT_TRUE(plugin.Validate(MakeProposal("t", "cp", 0.01)).ok());
  EXPECT_EQ(plugin.Execute(MakeProposal("t", "cp", 0.01)).status().code(),
            ErrorCode::kAborted);
  EXPECT_EQ(plugin.denials(), 1u);
  EXPECT_EQ(inner_raw->executions(), 0u);

  approve = true;
  EXPECT_TRUE(plugin.Execute(MakeProposal("t", "cp", 0.01)).ok());
  EXPECT_EQ(inner_raw->executions(), 1u);
}

// --- ShoreWesternPlugin over the emulated controller ---------------------------------

class ShoreWesternPluginTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testbed::PhysicalSpecimen::Config config;
    config.name = "uiuc";
    structural::Matrix k(1, 1);
    k(0, 0) = 1e6;
    auto specimen = std::make_unique<testbed::PhysicalSpecimen>(
        config,
        std::make_unique<testbed::ServoHydraulicActuator>(
            testbed::ServoHydraulicActuator::Params{}),
        std::make_unique<structural::ElasticSubstructure>(k));
    emulator_ = std::make_unique<testbed::ShoreWesternEmulator>(
        &network_, "sw.uiuc", std::move(specimen));
    ASSERT_TRUE(emulator_->Start().ok());

    plugin_rpc_ = std::make_unique<net::RpcClient>(&network_, "plugin.rpc");
  }

  net::Network network_;
  std::unique_ptr<testbed::ShoreWesternEmulator> emulator_;
  std::unique_ptr<net::RpcClient> plugin_rpc_;
};

TEST_F(ShoreWesternPluginTest, ExecutesThroughControllerProtocol) {
  ShoreWesternPlugin plugin({}, plugin_rpc_.get(), "sw.uiuc");
  ntcp::Proposal proposal = MakeProposal("t", "column-top", 0.01);
  ASSERT_TRUE(plugin.Validate(proposal).ok());
  auto result = plugin.Execute(proposal);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->results[0].measured_displacement[0], 0.01, 2e-4);
  EXPECT_NEAR(result->results[0].measured_force[0], 1e4, 300.0);
}

TEST_F(ShoreWesternPluginTest, ValidateEnforcesSiteShape) {
  ShoreWesternPlugin plugin({}, plugin_rpc_.get(), "sw.uiuc");
  EXPECT_FALSE(plugin.Validate(MakeProposal("t", "wrong-cp", 0.01)).ok());
  EXPECT_EQ(plugin.Validate(MakeProposal("t", "column-top", 0.5)).code(),
            ErrorCode::kPolicyViolation);
  ntcp::Proposal force_proposal = MakeProposal("t", "column-top", 0.01);
  force_proposal.actions[0].target_force = {10.0};
  EXPECT_EQ(plugin.Validate(force_proposal).code(),
            ErrorCode::kPolicyViolation);
}

TEST_F(ShoreWesternPluginTest, ValidateRejectsNanTarget) {
  ShoreWesternPlugin plugin({}, plugin_rpc_.get(), "sw.uiuc");
  EXPECT_EQ(plugin.Validate(MakeProposal("t", "column-top", kNaN)).code(),
            ErrorCode::kPolicyViolation);
}

TEST_F(ShoreWesternPluginTest, ValidateRejectsInfiniteTargets) {
  ShoreWesternPlugin plugin({}, plugin_rpc_.get(), "sw.uiuc");
  for (const double value : {kInf, -kInf}) {
    EXPECT_EQ(plugin.Validate(MakeProposal("t", "column-top", value)).code(),
              ErrorCode::kPolicyViolation)
        << value;
  }
}

TEST_F(ShoreWesternPluginTest, ControllerLossSurfacesAsTimeout) {
  ShoreWesternPlugin plugin({}, plugin_rpc_.get(), "sw.uiuc");
  network_.SetLinkUp("plugin.rpc", "sw.uiuc", false);
  auto result = plugin.Execute(MakeProposal("t", "column-top", 0.01));
  EXPECT_EQ(result.status().code(), ErrorCode::kTimeout);
}

TEST_F(ShoreWesternPluginTest, InterlockSurfacesAsSafetyError) {
  emulator_->specimen().EStop();
  ShoreWesternPlugin plugin({}, plugin_rpc_.get(), "sw.uiuc");
  auto result = plugin.Execute(MakeProposal("t", "column-top", 0.01));
  EXPECT_EQ(result.status().code(), ErrorCode::kSafetyInterlock);
}

// --- MPlugin ---------------------------------------------------------------------

TEST(MPluginTest, BackendServicesExecute) {
  MPlugin plugin;
  auto models = std::make_shared<Models>();
  (*models)["cp"] = ElasticModel(1000.0);
  PollingBackend backend(&plugin, MakeSimulationCompute(models));
  backend.Start();

  auto result = plugin.Execute(MakeProposal("m1", "cp", 0.01));
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->results[0].measured_force[0], 10.0, 1e-9);
  EXPECT_GE(plugin.polls(), 1u);
  backend.Stop();
  EXPECT_EQ(backend.processed(), 1u);
}

TEST(MPluginTest, ExecuteTimesOutWithoutBackend) {
  // Outside kVirtual an in-process backend posts before the work notifier
  // returns, so with no backend there is nothing to wait for: Execute
  // fails at once instead of sitting out its (kVirtual-only) timeout.
  MPlugin::Config config;
  config.execute_timeout_micros = 5'000'000;
  MPlugin plugin(config);
  const util::Stopwatch watch;
  auto result = plugin.Execute(MakeProposal("m2", "cp", 0.01));
  EXPECT_LT(watch.ElapsedMicros(), 1'000'000);
  EXPECT_EQ(result.status().code(), ErrorCode::kTimeout);
  // The stale request was withdrawn from the queue.
  EXPECT_EQ(plugin.buffered(), 0u);
}

TEST(MPluginTest, LateNotifyAfterTimeoutIsRejected) {
  MPlugin plugin;
  auto result = plugin.Execute(MakeProposal("m3", "cp", 0.01));
  EXPECT_EQ(result.status().code(), ErrorCode::kTimeout);
  EXPECT_EQ(plugin.PostResult("m3", ntcp::TransactionResult{}).code(),
            ErrorCode::kNotFound);
}

TEST(MPluginTest, LateNotifyNeverCompletesTheTransactionReusingItsSlot) {
  // "m5" times out and frees its slot; "m6" takes that slot. Notifies for
  // "m5" that arrive while "m6" waits, in-process and over the wire, find
  // no slot under their id: they fail NotFound and leave "m6" unserviced.
  net::Network network;
  MPlugin plugin;
  net::RpcServer server(&network, "mplugin.late");
  ASSERT_TRUE(server.Start().ok());
  plugin.BindBackendRpc(server);
  net::RpcClient backend_rpc(&network, "matlab.late");
  ASSERT_EQ(plugin.Execute(MakeProposal("m5", "cp", 0.01)).status().code(),
            ErrorCode::kTimeout);

  ntcp::TransactionResult stale;
  stale.results.resize(1);
  stale.results[0].control_point = "cp";
  stale.results[0].measured_displacement = {0.01};
  stale.results[0].measured_force = {99.0};
  util::Status posted;
  util::Status notified;
  plugin.SetWorkNotifier([&] {
    posted = plugin.PostResult("m5", stale);
    util::ByteWriter body;
    body.WriteString("m5");
    body.WriteBool(true);
    ntcp::EncodeTransactionResult(stale, body);
    notified =
        backend_rpc.Call("mplugin.late", "mplugin.notify", body.data())
            .status();
  });
  const auto result = plugin.Execute(MakeProposal("m6", "cp", 0.01));
  EXPECT_EQ(posted.code(), ErrorCode::kNotFound);
  EXPECT_EQ(notified.code(), ErrorCode::kNotFound) << notified.ToString();
  EXPECT_EQ(result.status().code(), ErrorCode::kTimeout);
}

TEST(MPluginTest, PollAfterTimeoutReturnsNothing) {
  MPlugin plugin;
  ASSERT_EQ(plugin.Execute(MakeProposal("p1", "cp", 0.01)).status().code(),
            ErrorCode::kTimeout);
  EXPECT_EQ(plugin.PollRequest(), nullptr);
  EXPECT_EQ(plugin.buffered(), 0u);
}

TEST(MPluginTest, BackendErrorPropagates) {
  MPlugin plugin;
  PollingBackend backend(
      &plugin, [](const ntcp::Proposal&, ntcp::TransactionResult&) {
        return util::Internal("matlab crashed");
      });
  backend.Start();
  auto result = plugin.Execute(MakeProposal("m4", "cp", 0.01));
  EXPECT_EQ(result.status().code(), ErrorCode::kInternal);
  backend.Stop();
}

TEST(MPluginTest, ValidateEnforcesLimit) {
  MPlugin::Config config;
  config.max_abs_displacement_m = 0.01;
  MPlugin plugin(config);
  EXPECT_EQ(plugin.Validate(MakeProposal("t", "cp", 0.02)).code(),
            ErrorCode::kPolicyViolation);
}

TEST(MPluginTest, ValidateRejectsNanTarget) {
  MPlugin plugin;
  EXPECT_EQ(plugin.Validate(MakeProposal("t", "cp", kNaN)).code(),
            ErrorCode::kPolicyViolation);
}

TEST(MPluginTest, ValidateRejectsInfiniteTargets) {
  MPlugin plugin;
  for (const double value : {kInf, -kInf}) {
    EXPECT_EQ(plugin.Validate(MakeProposal("t", "cp", value)).code(),
              ErrorCode::kPolicyViolation)
        << value;
  }
}

TEST(MPluginTest, BackendRunsInlineOnTheExecutingThread) {
  // The backend owns no thread: the work notifier runs poll -> compute ->
  // post on the thread that called Execute(). Once Stop() removes the
  // notifier nothing services the plugin, so the next Execute() times out.
  MPlugin plugin;
  auto models = std::make_shared<Models>();
  (*models)["cp"] = ElasticModel(1000.0);
  std::thread::id compute_thread;
  PollingBackend backend(
      &plugin, [&, simulate = MakeSimulationCompute(models)](
                   const ntcp::Proposal& proposal,
                   ntcp::TransactionResult& out) {
        compute_thread = std::this_thread::get_id();
        return simulate(proposal, out);
      });
  backend.Start();
  ASSERT_TRUE(plugin.Execute(MakeProposal("in1", "cp", 0.01)).ok());
  EXPECT_EQ(compute_thread, std::this_thread::get_id());
  EXPECT_EQ(backend.processed(), 1u);

  backend.Stop();
  EXPECT_EQ(plugin.Execute(MakeProposal("in2", "cp", 0.01)).status().code(),
            ErrorCode::kTimeout);
  EXPECT_EQ(backend.processed(), 1u);
}

TEST(MPluginTest, BackendComputesOneAtATimeAcrossExecutingThreads) {
  // Two threads execute on one plugin at once. Each runs the backend on
  // its own thread, but the computes (stateful models, a rig) never
  // overlap, and both executions complete.
  MPlugin plugin;
  std::atomic<int> active{0};
  PollingBackend backend(
      &plugin, [&](const ntcp::Proposal&, ntcp::TransactionResult& out) {
        EXPECT_EQ(++active, 1);  // no other compute in flight
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        --active;
        out.results.clear();
        return util::OkStatus();
      });
  backend.Start();
  util::Status first;
  util::Status second;
  std::thread other(
      [&] { first = plugin.Execute(MakeProposal("c1", "cp", 0.01)).status(); });
  second = plugin.Execute(MakeProposal("c2", "cp", 0.01)).status();
  other.join();
  EXPECT_TRUE(first.ok()) << first.ToString();
  EXPECT_TRUE(second.ok()) << second.ToString();
  EXPECT_EQ(backend.processed(), 2u);
}

TEST(MPluginTest, RpcPollNeverBlocksOnItsMaxWait) {
  // mplugin.poll still carries max_wait on the wire, but the plugin
  // answers from the queue as it stands: an empty queue answers at once,
  // not after the requested 5 s.
  net::Network network;
  MPlugin plugin;
  net::RpcServer server(&network, "mplugin.w");
  ASSERT_TRUE(server.Start().ok());
  plugin.BindBackendRpc(server);
  net::RpcClient backend_rpc(&network, "matlab.w");

  util::ByteWriter request;
  request.WriteI64(5'000'000);
  const util::Stopwatch watch;
  auto response = backend_rpc.Call("mplugin.w", "mplugin.poll", request.data());
  EXPECT_LT(watch.ElapsedMicros(), 1'000'000);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  util::ByteReader reader(*response);
  auto has_work = reader.ReadBool();
  ASSERT_TRUE(has_work.ok());
  EXPECT_FALSE(*has_work);
  EXPECT_EQ(plugin.polls(), 1u);
}

TEST(MPluginTest, WorkNotifierFiresOnEnqueue) {
  MPlugin plugin;
  std::atomic<int> notified{0};
  plugin.SetWorkNotifier([&] { ++notified; });
  // No backend: the execute times out, but the notifier must have fired
  // at enqueue time (it wakes remote backends push-style).
  EXPECT_EQ(plugin.Execute(MakeProposal("wn1", "cp", 0.01)).status().code(),
            ErrorCode::kTimeout);
  EXPECT_EQ(notified, 1);
}

// --- VirtualPollingBackend (DeliveryMode::kVirtual) -------------------------------

// Shared wiring for the event-driven kVirtual backend tests: plugin served
// at "mplugin.v", backend polling from "matlab.v", wakes delivered to the
// backend's control endpoint "matlab.v.ctl" from "mplugin.v.notifier".
struct VirtualMPluginRig {
  explicit VirtualMPluginRig(net::Network* network,
                             std::int64_t rewake_micros = 0,
                             std::shared_ptr<Models> models = MakeModels())
      : plugin(MakeConfig(rewake_micros)),
        plugin_server(network, "mplugin.v"),
        backend_rpc(network, "matlab.v"),
        backend_ctl(network, "matlab.v.ctl"),
        wake_rpc(network, "mplugin.v.notifier"),
        backend(&backend_rpc, "mplugin.v",
                MakeSimulationCompute(std::move(models))) {
    plugin.AttachVirtualNetwork(network);
    EXPECT_TRUE(plugin_server.Start().ok());
    plugin.BindBackendRpc(plugin_server);
    EXPECT_TRUE(backend_ctl.Start().ok());
    backend.BindWakeRpc(backend_ctl);
    plugin.SetWorkNotifier(
        [this] { (void)wake_rpc.OneWay("matlab.v.ctl", "mplugin.wake", {}); });
    backend.Start();
  }

  static MPlugin::Config MakeConfig(std::int64_t rewake_micros) {
    MPlugin::Config config;
    config.execute_timeout_micros = 10'000'000;
    config.rewake_micros = rewake_micros;
    return config;
  }
  static std::shared_ptr<Models> MakeModels() {
    auto models = std::make_shared<Models>();
    (*models)["cp"] = ElasticModel(500.0);
    return models;
  }

  MPlugin plugin;
  net::RpcServer plugin_server;
  net::RpcClient backend_rpc;
  net::RpcServer backend_ctl;
  net::RpcClient wake_rpc;
  VirtualPollingBackend backend;
};

TEST(MPluginTest, VirtualBackendIsWakeDrivenSingleThreaded) {
  // No executor thread and no timer: Execute() pumps the virtual event
  // loop inline, and the whole propose -> wake -> poll -> compute -> notify
  // exchange runs on this thread in virtual time, driven by the wake alone.
  net::Network network(net::DeliveryMode::kVirtual);
  net::LinkModel link;
  link.latency_micros = 1'000;
  network.SetDefaultLink(link);
  VirtualMPluginRig rig(&network, /*rewake_micros=*/250'000);

  const std::int64_t t0 = network.clock()->NowMicros();
  util::Result<ntcp::TransactionResult> result =
      rig.plugin.Execute(MakeProposal("v1", "cp", 0.02));
  const std::int64_t took = network.clock()->NowMicros() - t0;

  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->results[0].measured_force[0], 10.0, 1e-9);
  EXPECT_EQ(rig.backend.wakes(), 1u);
  EXPECT_EQ(rig.backend.processed(), 1u);
  EXPECT_EQ(rig.plugin.rewakes(), 0u);
  // One wake, one poll, one notify: the notify's answer says the queue is
  // empty, so no trailing poll follows.
  EXPECT_EQ(rig.plugin.polls(), 2u);
  EXPECT_EQ(took, 5 * link.latency_micros);  // wake + two round trips

  rig.backend.Stop();
  EXPECT_EQ(network.RunUntilQuiescent(), 0u);  // nothing left scheduled
}

TEST(MPluginTest, VirtualBackendNotifyHandsOverQueuedWork) {
  // Two requests queued before the backend runs: the one poll takes the
  // first, and the first notify's answer carries the second.
  net::Network network(net::DeliveryMode::kVirtual);
  net::LinkModel link;
  link.latency_micros = 1'000;
  network.SetDefaultLink(link);
  VirtualMPluginRig rig(&network);
  rig.plugin.SetWorkNotifier(nullptr);  // hold both requests back
  util::Result<ntcp::TransactionResult> first = util::Internal("unset");
  network.ScheduleAfter(0, [&] {
    first = rig.plugin.Execute(MakeProposal("h1", "cp", 0.02));
  });
  network.ScheduleAfter(10, [&] {
    rig.plugin.SetWorkNotifier([&] {
      (void)rig.wake_rpc.OneWay("matlab.v.ctl", "mplugin.wake", {});
    });
    util::Result<ntcp::TransactionResult> second =
        rig.plugin.Execute(MakeProposal("h2", "cp", 0.04));
    ASSERT_TRUE(second.ok());
    EXPECT_NEAR(second->results[0].measured_force[0], 20.0, 1e-9);
  });
  network.RunUntilQuiescent();

  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(rig.backend.processed(), 2u);
  EXPECT_EQ(rig.backend.wakes(), 1u);
  EXPECT_EQ(rig.plugin.polls(), 3u);  // one poll + two notify answers
  rig.backend.Stop();
}

TEST(MPluginTest, VirtualBackendLostWakeOnlyDelaysNeverStalls) {
  // Sever exactly one mplugin.wake delivery. The execute must still
  // complete, recovered by the plugin re-sending the wake for its unpolled
  // request, and the extra latency is bounded by one re-wake interval.
  constexpr std::int64_t kRewake = 250'000;
  constexpr std::int64_t kLatency = 1'000;
  net::Network network(net::DeliveryMode::kVirtual);
  net::LinkModel link;
  link.latency_micros = kLatency;
  network.SetDefaultLink(link);
  VirtualMPluginRig rig(&network, kRewake);
  network.DropNext("mplugin.v.notifier", "matlab.v.ctl", 1);

  const std::int64_t t0 = network.clock()->NowMicros();
  util::Result<ntcp::TransactionResult> result =
      rig.plugin.Execute(MakeProposal("v2", "cp", 0.02));
  const std::int64_t took = network.clock()->NowMicros() - t0;

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(network.LinkMetricsFor("mplugin.v.notifier", "matlab.v.ctl")
                .dropped_forced,
            1u);                               // the wake really was lost
  EXPECT_EQ(rig.plugin.rewakes(), 1u);         // ...and was sent once more
  EXPECT_EQ(rig.backend.wakes(), 1u);
  EXPECT_EQ(rig.backend.processed(), 1u);
  // One interval, then the re-sent wake and the poll and notify round
  // trips: delayed, bounded, never stalled.
  EXPECT_GE(took, kRewake);
  EXPECT_LE(took, kRewake + 5 * kLatency);

  rig.backend.Stop();
  EXPECT_EQ(network.RunUntilQuiescent(), 0u);
}

TEST(MPluginTest, VirtualPollAfterTimeoutReturnsNothing) {
  // The backend is never woken, so Execute pumps virtual time out to its
  // timeout; the withdrawn request is gone from the poll queue.
  net::Network network(net::DeliveryMode::kVirtual);
  VirtualMPluginRig rig(&network);
  rig.plugin.SetWorkNotifier(nullptr);
  const std::int64_t t0 = network.clock()->NowMicros();
  ASSERT_EQ(
      rig.plugin.Execute(MakeProposal("vt", "cp", 0.01)).status().code(),
      ErrorCode::kTimeout);
  EXPECT_GE(network.clock()->NowMicros() - t0, 10'000'000);
  EXPECT_EQ(rig.plugin.PollRequest(), nullptr);
  EXPECT_EQ(rig.plugin.buffered(), 0u);
  rig.backend.Stop();
}

TEST(MPluginTest, SixDofProposalMatchesSimulationPluginOnBothBackends) {
  // Three actions, six DOF, a load cycle of proposals: the results through
  // the Mplugin, with the inline backend and with the kVirtual backend
  // whose proposals and results cross the wire, are bit-identical to a
  // SimulationPlugin's over the same models.
  SimulationPlugin reference;
  Models reference_models = SixDofModels();
  for (auto& [name, model] : reference_models) {
    reference.AddControlPoint(name, std::move(model));
  }
  std::vector<ntcp::TransactionResult> expected;
  for (const double scale : kSixDofScales) {
    auto result = reference.Execute(SixDofProposal("ref", scale));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.push_back(*std::move(result));
  }

  MPlugin inline_plugin;
  PollingBackend inline_backend(
      &inline_plugin,
      MakeSimulationCompute(std::make_shared<Models>(SixDofModels())));
  inline_backend.Start();
  net::Network network(net::DeliveryMode::kVirtual);
  VirtualMPluginRig rig(&network, /*rewake_micros=*/0,
                        std::make_shared<Models>(SixDofModels()));
  for (std::size_t i = 0; i < std::size(kSixDofScales); ++i) {
    const ntcp::Proposal proposal =
        SixDofProposal("s" + std::to_string(i), kSixDofScales[i]);
    auto in_process = inline_plugin.Execute(proposal);
    ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
    EXPECT_EQ(*in_process, expected[i]) << "inline, step " << i;
    auto over_wire = rig.plugin.Execute(proposal);
    ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
    EXPECT_EQ(*over_wire, expected[i]) << "kVirtual, step " << i;
  }
  EXPECT_EQ(inline_backend.processed(), std::size(kSixDofScales));
  EXPECT_EQ(rig.backend.processed(), std::size(kSixDofScales));
  inline_backend.Stop();
  rig.backend.Stop();
}

// --- LabViewPlugin ----------------------------------------------------------------

TEST(LabViewPluginTest, DrivesMiniMostRig) {
  LabViewPlugin plugin({}, testbed::MakeMiniMostRig(2000.0, 7));
  ntcp::Proposal proposal = MakeProposal("t", "beam-tip", 0.01);
  ASSERT_TRUE(plugin.Validate(proposal).ok());
  auto result = plugin.Execute(proposal);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->results[0].measured_displacement[0], 0.01, 1e-4);
}

TEST(LabViewPluginTest, TravelLimitAndInterlock) {
  LabViewPlugin plugin({}, testbed::MakeMiniMostRig(2000.0, 7));
  EXPECT_EQ(plugin.Validate(MakeProposal("t", "beam-tip", 0.05)).code(),
            ErrorCode::kPolicyViolation);
  plugin.specimen().EStop();
  EXPECT_EQ(plugin.Validate(MakeProposal("t", "beam-tip", 0.01)).code(),
            ErrorCode::kSafetyInterlock);
}

TEST(LabViewPluginTest, ValidateRejectsNanTarget) {
  LabViewPlugin plugin({}, testbed::MakeMiniMostRig(2000.0, 7));
  EXPECT_EQ(plugin.Validate(MakeProposal("t", "beam-tip", kNaN)).code(),
            ErrorCode::kPolicyViolation);
}

TEST(LabViewPluginTest, ValidateRejectsInfiniteTargets) {
  LabViewPlugin plugin({}, testbed::MakeMiniMostRig(2000.0, 7));
  for (const double value : {kInf, -kInf}) {
    EXPECT_EQ(plugin.Validate(MakeProposal("t", "beam-tip", value)).code(),
              ErrorCode::kPolicyViolation)
        << value;
  }
}

// --- transparency: simulation vs physical plugin (§2.1 / §3) -----------------------

TEST(TransparencyTest, CoordinatorCodeIsPluginAgnostic) {
  // The same client-side step loop runs against a simulation plugin and a
  // physical (emulated rig) plugin; with matching stiffness the measured
  // forces agree within sensor noise. This is the property that let MOST
  // develop against simulations and swap in the rigs (§3).
  const double stiffness = 1e6;
  util::SimClock clock;
  net::Network network;
  network.SetClock(&clock);

  // Site A: pure simulation.
  auto simulation = std::make_unique<SimulationPlugin>();
  simulation->AddControlPoint("column-top", ElasticModel(stiffness));
  ntcp::NtcpServer site_a(&network, "ntcp.sim", std::move(simulation), &clock);
  ASSERT_TRUE(site_a.Start().ok());

  // Site B: emulated rig behind the Shore-Western controller.
  testbed::PhysicalSpecimen::Config rig_config;
  rig_config.name = "rig";
  structural::Matrix k(1, 1);
  k(0, 0) = stiffness;
  auto specimen = std::make_unique<testbed::PhysicalSpecimen>(
      rig_config,
      std::make_unique<testbed::ServoHydraulicActuator>(
          testbed::ServoHydraulicActuator::Params{}),
      std::make_unique<structural::ElasticSubstructure>(k));
  testbed::ShoreWesternEmulator controller(&network, "sw.rig",
                                           std::move(specimen));
  ASSERT_TRUE(controller.Start().ok());
  auto plugin_rpc = std::make_unique<net::RpcClient>(&network, "plugin.rig");
  ntcp::NtcpServer site_b(
      &network, "ntcp.rig",
      std::make_unique<ShoreWesternPlugin>(ShoreWesternPlugin::Config{},
                                           plugin_rpc.get(), "sw.rig"),
      &clock);
  ASSERT_TRUE(site_b.Start().ok());

  net::RpcClient rpc(&network, "coordinator");
  for (const std::string site : {"ntcp.sim", "ntcp.rig"}) {
    ntcp::NtcpClient client(&rpc, site, ntcp::RetryPolicy(), &clock);
    const std::string id = site + "-step";
    ASSERT_TRUE(client.Propose(MakeProposal(id, "column-top", 0.01)).ok());
    auto result = client.Execute(id);
    ASSERT_TRUE(result.ok());
    // Both report ~k*d; the rig differs only by sensor/settling error.
    EXPECT_NEAR(result->results[0].measured_force[0], 1e4, 300.0) << site;
  }
}

}  // namespace
}  // namespace nees::plugins
