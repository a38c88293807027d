// Cross-module integration tests:
//  * a fully SECURED distributed hybrid experiment — GSI handshakes at every
//    NTCP site, ACLs restricting control to the coordinator identity,
//    proxy-credential login, and the run completing under fault injection;
//  * CAS capability-gated repository writes (§3.3's planned CAS-based
//    access control);
//  * the Minnesota-style multi-DOF controller (§5) driven through the
//    standard coordinator.
#include <gtest/gtest.h>

#include "most/most.h"
#include "plugins/simulation_plugin.h"
#include "psd/coordinator.h"
#include "repo/facade.h"
#include "security/auth.h"
#include "security/cas.h"
#include "util/clock.h"

namespace nees {
namespace {

using util::ErrorCode;

// --- secured MOST -------------------------------------------------------------

class SecuredExperimentTest : public ::testing::Test {
 protected:
  SecuredExperimentTest()
      : rng_(7), ca_("/O=NEES/CN=NEES CA", clock_, rng_) {}

  void SetUp() override {
    network_.SetClock(&clock_);

    // Three secured NTCP sites, each with its own AuthService instance
    // (its own token secret), all trusting the one NEES CA.
    for (const auto& [endpoint, stiffness] :
         std::vector<std::pair<std::string, double>>{
             {"ntcp.uiuc", 4.4e5}, {"ntcp.ncsa", 1.78e6},
             {"ntcp.cu", 1.78e6}}) {
      auto plugin = std::make_unique<plugins::SimulationPlugin>();
      structural::Matrix k(1, 1);
      k(0, 0) = stiffness;
      plugin->AddControlPoint(
          "cp", std::make_unique<structural::ElasticSubstructure>(k));
      auto server = std::make_unique<ntcp::NtcpServer>(
          &network_, endpoint, std::move(plugin), &clock_);
      ASSERT_TRUE(server->Start().ok());

      security::TrustStore trust;
      trust.AddRoot(ca_.root_certificate());
      auto auth = std::make_unique<security::AuthService>(
          std::move(trust), &clock_, util::Rng(1000 + auths_.size()));
      // Only the coordinator identity may drive the site; anyone
      // authenticated may observe.
      auth->acl().Allow("/O=NEES/CN=coordinator", "ntcp.");
      auth->acl().Allow("*", "ntcp.getTransaction");
      auth->acl().Allow("*", "ntcp.listTransactions");
      auth->Attach(server->rpc());
      servers_.push_back(std::move(server));
      auths_.push_back(std::move(auth));
    }
  }

  psd::CoordinatorConfig MakeConfig(std::size_t steps) {
    psd::CoordinatorConfig config;
    config.run_id = "secured";
    config.mass = structural::Matrix::Identity(1) * 5e4;
    config.damping = structural::Matrix::Identity(1) * 1.8e4;
    config.iota = {1.0};
    config.motion = structural::SinePulse(0.02, steps, 3.0, 1.0);
    config.sites = {{"UIUC", "ntcp.uiuc", "cp", {0}},
                    {"NCSA", "ntcp.ncsa", "cp", {0}},
                    {"CU", "ntcp.cu", "cp", {0}}};
    config.retry.initial_backoff_micros = 1000;
    return config;
  }

  util::SimClock clock_{1'000'000'000};
  util::Rng rng_;
  net::Network network_;
  security::CertificateAuthority ca_;
  std::vector<std::unique_ptr<ntcp::NtcpServer>> servers_;
  std::vector<std::unique_ptr<security::AuthService>> auths_;
};

TEST_F(SecuredExperimentTest, UnauthenticatedCoordinatorIsRejected) {
  net::RpcClient rpc(&network_, "anon.coordinator");
  psd::SimulationCoordinator coordinator(MakeConfig(50), &rpc, &clock_);
  const psd::RunReport report = coordinator.Run();
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.steps_completed, 0u);
}

TEST_F(SecuredExperimentTest, ProxyCredentialRunsFullExperiment) {
  // The coordinator logs in to each site with a delegated proxy of the
  // coordinator identity, then runs 150 steps with mid-run faults.
  const security::Credential identity =
      ca_.IssueIdentity("/O=NEES/CN=coordinator", 0, rng_);
  const security::Credential proxy =
      identity.CreateProxy(3'600'000'000, clock_, rng_);

  net::RpcClient rpc(&network_, "secure.coordinator");
  security::AuthClient login(&rpc, proxy, &clock_, util::Rng(5));
  for (const char* site : {"ntcp.uiuc", "ntcp.ncsa", "ntcp.cu"}) {
    ASSERT_TRUE(login.Login(site).ok()) << site;
  }

  psd::SimulationCoordinator coordinator(MakeConfig(150), &rpc, &clock_);
  coordinator.SetStepObserver(
      [&](std::size_t step, const structural::Vector&,
          const std::vector<ntcp::TransactionResult>&) {
        if (step == 60) network_.DropNext("secure.coordinator", "ntcp.cu", 2);
      });
  const psd::RunReport report = coordinator.Run();
  ASSERT_TRUE(report.completed) << report.failure.ToString();
  EXPECT_GE(report.transient_faults_recovered, 1u);
  for (const auto& server : servers_) {
    EXPECT_EQ(server->stats().executions, 149u);
  }
}

TEST_F(SecuredExperimentTest, ObserverIdentityCannotDriveTheRig) {
  const security::Credential observer =
      ca_.IssueIdentity("/O=NEES/CN=observer", 0, rng_);
  net::RpcClient rpc(&network_, "observer.client");
  security::AuthClient login(&rpc, observer, &clock_, util::Rng(5));
  ASSERT_TRUE(login.Login("ntcp.uiuc").ok());

  ntcp::NtcpClient client(&rpc, "ntcp.uiuc", ntcp::RetryPolicy(), &clock_);
  ntcp::Proposal proposal;
  proposal.transaction_id = "rogue";
  proposal.actions.push_back({"cp", {0.01}, {}});
  EXPECT_EQ(client.Propose(proposal).code(), ErrorCode::kPermissionDenied);
  // But observation is allowed.
  EXPECT_TRUE(client.ListTransactions().ok());
}

TEST_F(SecuredExperimentTest, PerTargetTokensAreIndependent) {
  const security::Credential identity =
      ca_.IssueIdentity("/O=NEES/CN=coordinator", 0, rng_);
  net::RpcClient rpc(&network_, "multi.client");
  security::AuthClient login(&rpc, identity, &clock_, util::Rng(5));
  // Log in to UIUC only: calls to CU must still be rejected (its
  // AuthService has a different token secret).
  ASSERT_TRUE(login.Login("ntcp.uiuc").ok());
  ntcp::NtcpClient uiuc(&rpc, "ntcp.uiuc", ntcp::RetryPolicy(), &clock_);
  ntcp::NtcpClient cu(&rpc, "ntcp.cu", ntcp::RetryPolicy(), &clock_);
  EXPECT_TRUE(uiuc.ListTransactions().ok());
  EXPECT_EQ(cu.ListTransactions().status().code(),
            ErrorCode::kUnauthenticated);
}

// --- CAS-gated repository -------------------------------------------------------

class CasRepositoryTest : public ::testing::Test {
 protected:
  CasRepositoryTest()
      : rng_(7),
        ca_("/O=NEES/CN=CA", clock_, rng_),
        cas_(ca_.IssueIdentity("/O=NEES/CN=cas", 0, rng_), &clock_,
             util::Rng(9)) {}

  void SetUp() override {
    network_.SetClock(&clock_);
    repository_ = std::make_unique<repo::RepositoryFacade>(&network_,
                                                           "repo.nees");
    ASSERT_TRUE(repository_->Start().ok());
    repository_->EnableCapabilityAuthorization(cas_.public_key(), &clock_);
    cas_.Grant("/O=NEES/CN=ingest", repo::kRepositoryResource, "write");
  }

  std::string IssueWriteToken(const std::string& subject) {
    auto capability =
        cas_.Issue(subject, repo::kRepositoryResource, "write");
    return capability.ok() ? security::CapabilityToToken(*capability) : "";
  }

  util::SimClock clock_{1'000'000};
  util::Rng rng_;
  net::Network network_;
  security::CertificateAuthority ca_;
  security::CommunityAuthorizationService cas_;
  std::unique_ptr<repo::RepositoryFacade> repository_;
};

TEST_F(CasRepositoryTest, WriteWithoutCapabilityRejected) {
  net::RpcClient rpc(&network_, "tool");
  repo::NmdsClient nmds(&rpc, "repo.nees");
  repo::MetadataObject object;
  object.id = "x";
  object.type = "t";
  EXPECT_EQ(nmds.Put(object).status().code(), ErrorCode::kUnauthenticated);

  repo::GridFtpClient gridftp(&rpc);
  EXPECT_EQ(gridftp.Upload("repo.nees.gftp", "f", {1, 2, 3}).code(),
            ErrorCode::kUnauthenticated);
}

TEST_F(CasRepositoryTest, CapabilityHolderWritesAndOwnsMetadata) {
  net::RpcClient rpc(&network_, "tool");
  rpc.SetAuthToken(IssueWriteToken("/O=NEES/CN=ingest"));

  repo::NmdsClient nmds(&rpc, "repo.nees");
  repo::MetadataObject object;
  object.id = "cas.obj";
  object.type = "daq-data";
  ASSERT_TRUE(nmds.Put(object).ok());
  // Ownership derives from the capability subject.
  EXPECT_EQ(repository_->nmds().Get("cas.obj")->owner, "/O=NEES/CN=ingest");

  repo::GridFtpClient gridftp(&rpc);
  ASSERT_TRUE(gridftp.Upload("repo.nees.gftp", "files/cas", {1, 2, 3}).ok());
  EXPECT_TRUE(repository_->store().Exists("files/cas"));
}

TEST_F(CasRepositoryTest, ReadsStayOpen) {
  ASSERT_TRUE(repository_->Ingest("open/read", {1, 2, 3}, "t", {}).ok());
  net::RpcClient rpc(&network_, "anon");
  repo::NfmsClient nfms(&rpc, "repo.nees");
  nfms.RegisterTransport(std::make_unique<repo::GridFtpTransport>(&rpc));
  auto content = nfms.Fetch("open/read");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content->size(), 3u);
}

TEST_F(CasRepositoryTest, ExpiredCapabilityRejected) {
  net::RpcClient rpc(&network_, "tool");
  rpc.SetAuthToken(IssueWriteToken("/O=NEES/CN=ingest"));
  clock_.Advance(2 * 3'600'000'000LL);  // past the capability TTL
  repo::NmdsClient nmds(&rpc, "repo.nees");
  repo::MetadataObject object;
  object.id = "late";
  object.type = "t";
  EXPECT_EQ(nmds.Put(object).status().code(), ErrorCode::kPermissionDenied);
}

TEST_F(CasRepositoryTest, WrongActionCapabilityRejected) {
  cas_.Grant("/O=NEES/CN=reader", repo::kRepositoryResource, "read");
  auto capability =
      cas_.Issue("/O=NEES/CN=reader", repo::kRepositoryResource, "read");
  ASSERT_TRUE(capability.ok());
  net::RpcClient rpc(&network_, "tool");
  rpc.SetAuthToken(security::CapabilityToToken(*capability));
  repo::NmdsClient nmds(&rpc, "repo.nees");
  repo::MetadataObject object;
  object.id = "x";
  object.type = "t";
  EXPECT_EQ(nmds.Put(object).status().code(), ErrorCode::kPermissionDenied);
}

TEST_F(CasRepositoryTest, IngestionToolWorksWithCapability) {
  const auto dir = std::filesystem::temp_directory_path() / "nees-cas-ingest";
  std::filesystem::remove_all(dir);
  daq::DaqSystem daq;
  daq.AddChannel({"ch", "m", 100.0});
  ASSERT_TRUE(daq.Record("ch", 1, 0.5).ok());
  ASSERT_TRUE(daq.Flush(dir, "run").ok());

  net::RpcClient rpc(&network_, "ingest.tool");
  rpc.SetAuthToken(IssueWriteToken("/O=NEES/CN=ingest"));
  repo::IngestionTool tool(&rpc, "repo.nees", "cas-exp", "site");
  daq::Harvester harvester(
      dir, [&](const std::filesystem::path& file,
               const std::vector<nsds::DataSample>& samples) {
        return tool.IngestDropFile(file, samples);
      });
  EXPECT_EQ(*harvester.ScanOnce(), 1);
  EXPECT_EQ(repository_->nfms().List("cas-exp/").size(), 1u);
  std::filesystem::remove_all(dir);
}

// --- multi-story MS-PSDS via condensation ------------------------------------------

TEST(MultiStoryTest, ThreeStoryCondensedHybridMatchesMonolithicModel) {
  // §3: MS-PSDS "allows for testing a wide range of large structures that
  // might otherwise be beyond the capabilities of many laboratories". A
  // three-story frame is condensed to its 3 story DOFs; the first-story
  // column goes to a "physical" site as a 1-DOF substructure while the
  // condensed remainder is simulated. The distributed response must match
  // the monolithic condensed model.
  util::SimClock clock;
  net::Network network;
  network.SetClock(&clock);

  // Build the full frame and condense to story lateral DOFs.
  most::MostOptions options;
  structural::FrameModel frame;
  std::vector<std::size_t> story_nodes;
  for (int level = 0; level <= 3; ++level) {
    const std::size_t left =
        frame.AddNode(0, level * options.column_height_m);
    const std::size_t right =
        frame.AddNode(options.bay_width_m, level * options.column_height_m);
    if (level == 0) {
      frame.FixAll(left);
      frame.FixAll(right);
    } else {
      frame.AddElement(left - 2, left, options.column_section);
      frame.AddElement(right - 2, right, options.column_section);
      frame.AddElement(left, right, options.beam_section);
      story_nodes.push_back(left);
    }
  }
  std::vector<std::size_t> retained;
  for (std::size_t node : story_nodes) {
    auto dof = frame.DofIndex(node, structural::Dof::kUx);
    ASSERT_TRUE(dof.has_value());
    retained.push_back(*dof);
  }
  auto condensed = frame.CondenseStiffness(retained);
  ASSERT_TRUE(condensed.ok());
  ASSERT_EQ(condensed->rows(), 3u);

  // Split: a 1-DOF "physical" spring on story 1 carrying a fraction of the
  // first-story stiffness, and the numerical remainder K_rest = K - K_phys.
  const double k_physical = 0.3 * (*condensed)(0, 0);
  structural::Matrix k_rest = *condensed;
  k_rest(0, 0) -= k_physical;
  structural::Matrix k_phys(1, 1);
  k_phys(0, 0) = k_physical;

  auto physical_plugin = std::make_unique<plugins::SimulationPlugin>();
  physical_plugin->AddControlPoint(
      "story1-column",
      std::make_unique<structural::ElasticSubstructure>(k_phys));
  ntcp::NtcpServer physical_site(&network, "ntcp.lab",
                                 std::move(physical_plugin), &clock);
  ASSERT_TRUE(physical_site.Start().ok());

  auto numeric_plugin = std::make_unique<plugins::SimulationPlugin>();
  numeric_plugin->AddControlPoint(
      "condensed-frame",
      std::make_unique<structural::ElasticSubstructure>(k_rest));
  ntcp::NtcpServer numeric_site(&network, "ntcp.sim",
                                std::move(numeric_plugin), &clock);
  ASSERT_TRUE(numeric_site.Start().ok());

  psd::CoordinatorConfig config;
  config.run_id = "threestory";
  config.mass = structural::Matrix(3, 3);
  for (int i = 0; i < 3; ++i) config.mass(i, i) = 2e4;
  config.damping = structural::Matrix(3, 3);
  for (int i = 0; i < 3; ++i) config.damping(i, i) = 8e3;
  config.iota = {1.0, 1.0, 1.0};
  config.motion = structural::SinePulse(0.002, 600, 2.0, 3.0);
  config.sites = {{"lab", "ntcp.lab", "story1-column", {0}},
                  {"sim", "ntcp.sim", "condensed-frame", {0, 1, 2}}};

  net::RpcClient rpc(&network, "threestory.coordinator");
  psd::SimulationCoordinator coordinator(config, &rpc, &clock);
  const psd::RunReport report = coordinator.Run();
  ASSERT_TRUE(report.completed) << report.failure.ToString();

  // Monolithic reference with the full condensed K.
  structural::ElasticSubstructure monolithic(*condensed);
  structural::CentralDifferencePsd psd_ref(config.mass, config.damping,
                                           config.iota);
  auto reference = psd_ref.Integrate(
      config.motion,
      [&](std::size_t, const structural::Vector& d)
          -> util::Result<structural::Vector> {
        structural::Vector force;
        NEES_RETURN_IF_ERROR(monolithic.Restore(d, force));
        return force;
      });
  ASSERT_TRUE(reference.ok());
  for (std::size_t i = 0; i < reference->displacement.size(); ++i) {
    for (int dof = 0; dof < 3; ++dof) {
      ASSERT_NEAR(report.history.displacement[i][dof],
                  reference->displacement[i][dof], 1e-10)
          << "step " << i << " dof " << dof;
    }
  }
  // Stories drift more the higher they are (a shear-building shape).
  EXPECT_GT(report.history.PeakDisplacement(2),
            report.history.PeakDisplacement(0));
}

// --- Minnesota-style multi-DOF control (§5) ---------------------------------------

TEST(MultiDofControlTest, SixDofControllerThroughCoordinator) {
  // §5: "an experiment is planned that will use the NEESgrid framework to
  // operate a six-degree-of-freedom controller". One control point with 6
  // DOFs behind one NTCP server, driven by a 6-DOF coordinator.
  util::SimClock clock;
  net::Network network;
  network.SetClock(&clock);

  structural::Matrix k(6, 6);
  for (int i = 0; i < 6; ++i) k(i, i) = 1e6 * (i + 1);
  auto plugin = std::make_unique<plugins::SimulationPlugin>();
  plugin->AddControlPoint(
      "crosshead", std::make_unique<structural::ElasticSubstructure>(k));
  ntcp::NtcpServer server(&network, "ntcp.umn", std::move(plugin), &clock);
  ASSERT_TRUE(server.Start().ok());

  psd::CoordinatorConfig config;
  config.run_id = "umn";
  config.mass = structural::Matrix::Identity(6) * 1e4;
  config.damping = structural::Matrix(6, 6);
  for (int i = 0; i < 6; ++i) config.damping(i, i) = 5e3;
  config.iota = structural::Vector(6, 1.0);
  config.motion = structural::SinePulse(0.005, 200, 2.0, 4.0);
  config.sites = {{"UMN", "ntcp.umn", "crosshead", {0, 1, 2, 3, 4, 5}}};

  net::RpcClient rpc(&network, "umn.coordinator");
  psd::SimulationCoordinator coordinator(config, &rpc, &clock);
  const psd::RunReport report = coordinator.Run();
  ASSERT_TRUE(report.completed) << report.failure.ToString();
  // Stiffer DOFs respond less (k scales with index, mass constant).
  EXPECT_GT(report.history.PeakDisplacement(0),
            report.history.PeakDisplacement(5));
  EXPECT_GT(report.history.PeakDisplacement(5), 0.0);
}

}  // namespace
}  // namespace nees
