// Property-based tests: randomized inputs against the invariants the
// system's correctness arguments rest on —
//   * NTCP: at-most-once execution and legal state evolution under
//     arbitrary client behaviour and message loss;
//   * the coordinator: a completed run implies exactly-once execution of
//     every step at every site, regardless of the fault pattern;
//   * GridFTP-sim: transfers round-trip bit-exactly across sizes, chunk
//     sizes, stream counts, and loss;
//   * primitives: serialization round trips, hash consistency, signature
//     soundness, hysteresis physicality.
#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "net/network.h"
#include "ntcp/client.h"
#include "ntcp/server.h"
#include "plugins/simulation_plugin.h"
#include "psd/coordinator.h"
#include "repo/gridftp.h"
#include "security/cas.h"
#include "security/certificate.h"
#include "security/schnorr.h"
#include "structural/substructure.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/sha256.h"
#include "util/uuid.h"

namespace nees {
namespace {

using util::ErrorCode;

// --- NTCP fuzz ----------------------------------------------------------------

/// Counts real executions per transaction id.
class CountingPlugin final : public ntcp::ControlPlugin {
 public:
  util::Status Validate(const ntcp::Proposal& proposal) override {
    // Reject "invalid" control points to exercise the rejection path.
    for (const auto& action : proposal.actions) {
      if (action.control_point == "bad") {
        return util::PolicyViolation("bad control point");
      }
    }
    return util::OkStatus();
  }
  util::Result<ntcp::TransactionResult> Execute(
      const ntcp::Proposal& proposal) override {
    ++executions[proposal.transaction_id];
    ntcp::TransactionResult result;
    for (const auto& action : proposal.actions) {
      result.results.push_back(
          {action.control_point, action.target_displacement,
           structural::Vector(action.target_displacement.size(), 1.0)});
    }
    return result;
  }
  std::string_view kind() const override { return "counting"; }

  std::map<std::string, int> executions;
};

class NtcpFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(NtcpFuzzTest, RandomOperationsPreserveProtocolInvariants) {
  util::Rng rng(9000 + GetParam());
  util::SimClock clock(1'000'000);
  net::Network network(net::DeliveryMode::kImmediate, 77 + GetParam());
  network.SetClock(&clock);

  auto plugin = std::make_unique<CountingPlugin>();
  auto* counting = plugin.get();
  ntcp::NtcpServer server(&network, "ntcp.fuzz", std::move(plugin), &clock);
  ASSERT_TRUE(server.Start().ok());
  net::RpcClient rpc(&network, "fuzzer");
  ntcp::RetryPolicy policy;
  policy.initial_backoff_micros = 100;
  ntcp::NtcpClient client(&rpc, "ntcp.fuzz", policy, &clock);

  // A small id space so operations collide on purpose; remember the first
  // proposal sent under each id to check duplicate-proposal idempotency.
  std::map<std::string, ntcp::Proposal> first_proposal;
  std::map<std::string, bool> first_decision;

  for (int op = 0; op < 300; ++op) {
    // Random transient faults throughout.
    if (rng.Bernoulli(0.08)) {
      network.DropNext("fuzzer", "ntcp.fuzz", rng.UniformInt(1, 2));
    }
    if (rng.Bernoulli(0.08)) {
      network.DropNext("ntcp.fuzz", "fuzzer", 1);
    }

    const std::string id = "txn-" + std::to_string(rng.UniformInt(0, 15));
    switch (rng.UniformInt(0, 4)) {
      case 0: {  // propose (sometimes invalid, sometimes conflicting)
        ntcp::Proposal proposal;
        proposal.transaction_id = id;
        proposal.timeout_micros = 60'000'000;
        const bool invalid = rng.Bernoulli(0.15);
        proposal.actions.push_back(
            {invalid ? "bad" : "cp", {rng.UniformDouble(-0.05, 0.05)}, {}});
        const util::Status status = client.Propose(proposal);
        if (!first_proposal.contains(id)) {
          first_proposal[id] = proposal;
          first_decision[id] = status.ok();
        } else if (proposal == first_proposal[id] && !status.transient()) {
          // Identical re-proposal must get the original decision.
          EXPECT_EQ(status.ok(), first_decision[id]) << id;
        }
        break;
      }
      case 1:
        (void)client.Execute(id);
        break;
      case 2:
        (void)client.Cancel(id);
        break;
      case 3: {
        auto record = client.GetTransaction(id);
        if (record.ok()) {
          // Timestamps must be monotone along the observed path.
          std::int64_t last = 0;
          record->state_timestamps.ForEach(
              [&last](ntcp::TransactionState, std::int64_t micros) {
                EXPECT_GE(micros, 0);
                last = std::max(last, micros);
              });
        }
        break;
      }
      case 4:
        clock.Advance(rng.UniformInt(0, 1000));
        server.ExpireStale();
        break;
    }
  }

  // THE invariant: no transaction ever executed twice, no matter what the
  // client and the network did.
  for (const auto& [id, count] : counting->executions) {
    EXPECT_LE(count, 1) << id;
  }
  // And every stored record is in a coherent state with a proposal.
  for (const std::string& id : server.ListTransactions()) {
    auto record = server.GetTransaction(id);
    ASSERT_TRUE(record.ok());
    EXPECT_FALSE(record->proposal.transaction_id.empty());
    if (record->state == ntcp::TransactionState::kCompleted) {
      EXPECT_EQ(counting->executions[id], 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NtcpFuzzTest, ::testing::Range(0, 12));

// --- coordinator under random loss ----------------------------------------------

class CoordinatorLossTest : public ::testing::TestWithParam<int> {};

TEST_P(CoordinatorLossTest, CompletedRunsExecuteEveryStepExactlyOnce) {
  util::SimClock clock(1'000'000);
  net::Network network(net::DeliveryMode::kImmediate, 31 + GetParam());
  network.SetClock(&clock);

  std::vector<std::unique_ptr<ntcp::NtcpServer>> servers;
  std::vector<CountingPlugin*> plugins;
  for (const std::string endpoint : {"ntcp.x", "ntcp.y"}) {
    auto plugin = std::make_unique<CountingPlugin>();
    plugins.push_back(plugin.get());
    auto server = std::make_unique<ntcp::NtcpServer>(&network, endpoint,
                                                     std::move(plugin),
                                                     &clock);
    ASSERT_TRUE(server->Start().ok());
    servers.push_back(std::move(server));
  }

  net::LinkModel lossy;
  lossy.drop_probability = 0.03;
  network.SetLink("coordinator", "ntcp.x", lossy);
  network.SetLink("ntcp.x", "coordinator", lossy);
  network.SetLink("coordinator", "ntcp.y", lossy);
  network.SetLink("ntcp.y", "coordinator", lossy);

  psd::CoordinatorConfig config;
  config.run_id = "loss" + std::to_string(GetParam());
  config.mass = structural::Matrix::Identity(1) * 1e4;
  config.damping = structural::Matrix::Identity(1) * 1e3;
  config.iota = {1.0};
  config.motion = structural::SinePulse(0.02, 80, 1.0, 1.0);
  config.sites = {{"X", "ntcp.x", "cp", {0}}, {"Y", "ntcp.y", "cp", {0}}};
  config.retry.initial_backoff_micros = 100;

  net::RpcClient rpc(&network, "coordinator");
  psd::SimulationCoordinator coordinator(config, &rpc, &clock);
  const psd::RunReport report = coordinator.Run();
  ASSERT_TRUE(report.completed) << report.failure.ToString();

  for (CountingPlugin* plugin : plugins) {
    int total = 0;
    for (const auto& [id, count] : plugin->executions) {
      EXPECT_EQ(count, 1) << id;
      total += count;
    }
    EXPECT_EQ(total, 79);  // exactly one execution per step
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoordinatorLossTest, ::testing::Range(0, 8));

// --- GridFTP round-trip sweep ------------------------------------------------------

struct TransferCase {
  std::size_t size;
  std::size_t chunk;
  int streams;
  double loss;
};

class GridFtpPropertyTest : public ::testing::TestWithParam<TransferCase> {};

TEST_P(GridFtpPropertyTest, RoundTripsBitExactly) {
  const TransferCase& params = GetParam();
  net::Network network(net::DeliveryMode::kImmediate, 5);
  repo::FileStore store;
  repo::GridFtpServer server(&network, "gftp", &store);
  ASSERT_TRUE(server.Start().ok());
  if (params.loss > 0) {
    net::LinkModel lossy;
    lossy.drop_probability = params.loss;
    network.SetLink("client", "gftp", lossy);
    network.SetLink("gftp", "client", lossy);
  }
  net::RpcClient rpc(&network, "client");
  repo::TransferOptions options;
  options.chunk_bytes = params.chunk;
  options.streams = params.streams;
  options.chunk_retries = 20;
  repo::GridFtpClient client(&rpc, options);

  util::Rng rng(params.size ^ params.chunk);
  repo::Bytes content(params.size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng.NextU64());

  ASSERT_TRUE(client.Upload("gftp", "f", content).ok());
  auto downloaded = client.Download("gftp", "f");
  ASSERT_TRUE(downloaded.ok());
  EXPECT_EQ(*downloaded, content);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GridFtpPropertyTest,
    ::testing::Values(TransferCase{0, 1024, 1, 0.0},
                      TransferCase{1, 1024, 4, 0.0},
                      TransferCase{1023, 1024, 2, 0.0},
                      TransferCase{1024, 1024, 2, 0.0},
                      TransferCase{1025, 1024, 2, 0.0},
                      TransferCase{100'000, 333, 3, 0.0},
                      TransferCase{50'000, 4096, 8, 0.05},
                      TransferCase{200'000, 65536, 2, 0.02}));

// --- malformed-wire fuzz: servers must degrade, not die ---------------------------

class WireFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(WireFuzzTest, GarbageRequestBodiesNeverCrashServers) {
  util::Rng rng(1300 + GetParam());
  net::Network network;

  // An NTCP server and a repository, both fully started.
  auto plugin = std::make_unique<CountingPlugin>();
  ntcp::NtcpServer ntcp_server(&network, "ntcp.fuzzwire", std::move(plugin));
  ASSERT_TRUE(ntcp_server.Start().ok());
  repo::FileStore store;
  repo::GridFtpServer gftp(&network, "gftp.fuzzwire", &store);
  ASSERT_TRUE(gftp.Start().ok());

  net::RpcClient rpc(&network, "wire.fuzzer");
  const std::vector<std::pair<std::string, std::string>> targets = {
      {"ntcp.fuzzwire", "ntcp.propose"},
      {"ntcp.fuzzwire", "ntcp.execute"},
      {"ntcp.fuzzwire", "ntcp.cancel"},
      {"ntcp.fuzzwire", "ntcp.getTransaction"},
      {"gftp.fuzzwire", "gftp.stat"},
      {"gftp.fuzzwire", "gftp.read"},
      {"gftp.fuzzwire", "gftp.openWrite"},
      {"gftp.fuzzwire", "gftp.writeChunk"},
      {"gftp.fuzzwire", "gftp.commit"},
  };
  for (int i = 0; i < 120; ++i) {
    const auto& [endpoint, method] = targets[rng.UniformU64(targets.size())];
    net::Bytes junk(rng.UniformInt(0, 64));
    for (auto& byte : junk) byte = static_cast<std::uint8_t>(rng.NextU64());
    auto result = rpc.Call(endpoint, method, junk);
    // Every call must complete with a *status*, never a crash; garbage is
    // overwhelmingly rejected, and the rare parse-as-valid case is fine.
    if (!result.ok()) {
      EXPECT_NE(result.status().code(), ErrorCode::kTimeout)
          << method << ": server dropped a malformed request silently";
    }
  }

  // The servers still function after the barrage.
  ntcp::NtcpClient client(&rpc, "ntcp.fuzzwire");
  ntcp::Proposal proposal;
  proposal.transaction_id = "post-fuzz";
  proposal.actions.push_back({"cp", {0.01}, {}});
  ASSERT_TRUE(client.Propose(proposal).ok());
  ASSERT_TRUE(client.Execute("post-fuzz").ok());
  store.Put("alive", {1});
  repo::GridFtpClient gclient(&rpc);
  EXPECT_TRUE(gclient.Download("gftp.fuzzwire", "alive").ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest, ::testing::Range(0, 6));

// --- primitive properties -----------------------------------------------------------

class CertificateDecodeFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CertificateDecodeFuzzTest, JunkBytesNeverCrashDecoders) {
  util::Rng rng(1400 + GetParam());
  std::vector<std::uint8_t> junk(rng.UniformInt(0, 300));
  for (auto& byte : junk) byte = static_cast<std::uint8_t>(rng.NextU64());
  {
    util::ByteReader reader(junk);
    (void)security::DecodeCertificate(reader);
  }
  {
    util::ByteReader reader(junk);
    (void)security::DecodeCapability(reader);
  }
  {
    util::ByteReader reader(junk);
    (void)ntcp::DecodeTransactionRecord(reader);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertificateDecodeFuzzTest,
                         ::testing::Range(0, 10));

class HashSplitTest : public ::testing::TestWithParam<int> {};

TEST_P(HashSplitTest, IncrementalHashIndependentOfChunking) {
  util::Rng rng(400 + GetParam());
  std::string data(static_cast<std::size_t>(rng.UniformInt(1, 5000)), '\0');
  for (char& c : data) c = static_cast<char>(rng.NextU64());
  const auto whole = util::Sha256::Hash(data);

  util::Sha256 hasher;
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t take = std::min<std::size_t>(
        static_cast<std::size_t>(rng.UniformInt(1, 777)),
        data.size() - offset);
    hasher.Update(data.data() + offset, take);
    offset += take;
  }
  EXPECT_EQ(hasher.Finish(), whole);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashSplitTest, ::testing::Range(0, 10));

class SignatureSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(SignatureSoundnessTest, OnlyTheSignerVerifies) {
  util::Rng rng(500 + GetParam());
  const security::SigningKey alice = security::GenerateKey(rng);
  const security::SigningKey mallory = security::GenerateKey(rng);
  std::string message(static_cast<std::size_t>(rng.UniformInt(0, 200)), '\0');
  for (char& c : message) c = static_cast<char>(rng.NextU64());

  const security::Signature signature =
      security::Sign(alice, message, rng);
  EXPECT_TRUE(security::Verify(alice.public_key, message, signature));
  EXPECT_FALSE(security::Verify(mallory.public_key, message, signature));
  // A re-signed message verifies too (signatures are randomized).
  const security::Signature second = security::Sign(alice, message, rng);
  EXPECT_TRUE(security::Verify(alice.public_key, message, second));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignatureSoundnessTest,
                         ::testing::Range(0, 10));

class BoucWenPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BoucWenPropertyTest, ForceStaysInsidePhysicalEnvelope) {
  util::Rng rng(600 + GetParam());
  structural::BoucWenSubstructure::Params params;
  params.elastic_stiffness = rng.UniformDouble(1e4, 1e7);
  params.yield_displacement = rng.UniformDouble(0.005, 0.05);
  params.alpha = rng.UniformDouble(0.0, 0.3);
  structural::BoucWenSubstructure model(params);

  double d = 0.0;
  for (int i = 0; i < 500; ++i) {
    d += rng.Gaussian(0.0, params.yield_displacement / 5);
    d = std::clamp(d, -0.2, 0.2);
    structural::Vector force;
    ASSERT_TRUE(model.Restore({d}, force).ok());
    // |r| <= alpha k |d| + (1-alpha) k dy  (z is clamped to [-1, 1]).
    const double envelope =
        params.alpha * params.elastic_stiffness * std::fabs(d) +
        (1.0 - params.alpha) * params.elastic_stiffness *
            params.yield_displacement + 1e-9;
    EXPECT_LE(std::fabs(force[0]), envelope) << "step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoucWenPropertyTest, ::testing::Range(0, 10));

class WireRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(WireRoundTripTest, RandomProposalsSurviveEncoding) {
  util::Rng rng(700 + GetParam());
  ntcp::Proposal proposal;
  proposal.transaction_id = util::NewUuidFrom(rng);
  proposal.timeout_micros = static_cast<std::int64_t>(rng.NextU64() >> 1);
  proposal.step_index = rng.UniformInt(-1, 10000);
  const int actions = rng.UniformInt(0, 5);
  for (int a = 0; a < actions; ++a) {
    ntcp::ControlPointRequest action;
    action.control_point = "cp-" + std::to_string(rng.UniformInt(0, 99));
    const int dofs = rng.UniformInt(1, 6);
    for (int dof = 0; dof < dofs; ++dof) {
      action.target_displacement.push_back(rng.Gaussian(0, 10));
      if (rng.Bernoulli(0.5)) {
        action.target_force.push_back(rng.Gaussian(0, 1e6));
      }
    }
    proposal.actions.push_back(std::move(action));
  }
  util::ByteWriter writer;
  ntcp::EncodeProposal(proposal, writer);
  util::ByteReader reader(writer.data());
  auto decoded = ntcp::DecodeProposal(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, proposal);
  EXPECT_TRUE(reader.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTripTest, ::testing::Range(0, 15));

}  // namespace
}  // namespace nees
