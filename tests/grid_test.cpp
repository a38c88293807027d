// Tests for the OGSI-like substrate: SDEs, inspection, soft-state
// lifetimes, remote subscriptions, and the soft-state service registry.
#include <gtest/gtest.h>

#include <algorithm>

#include "grid/container.h"
#include "grid/registry.h"
#include "grid/service.h"
#include "net/network.h"
#include "util/clock.h"
#include "util/strings.h"

namespace nees::grid {
namespace {

using util::ErrorCode;

SdeValue MakeSde(std::initializer_list<std::pair<std::string, std::string>>
                     fields) {
  SdeValue value;
  for (const auto& [key, field] : fields) value.Set(key, field);
  return value;
}

// --- GridService / SDEs ------------------------------------------------------

TEST(GridServiceTest, SetGetServiceData) {
  GridService service("svc");
  service.SetServiceData("txn.1", MakeSde({{"state", "proposed"}}));
  auto value = service.GetServiceData("txn.1");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->Get("state"), "proposed");
  EXPECT_EQ(value->Get("missing"), "");
}

TEST(GridServiceTest, RemoveServiceData) {
  GridService service("svc");
  service.SetServiceData("x", MakeSde({{"a", "1"}}));
  service.RemoveServiceData("x");
  EXPECT_FALSE(service.GetServiceData("x").has_value());
}

TEST(GridServiceTest, FindByPrefix) {
  GridService service("svc");
  service.SetServiceData("txn.1", MakeSde({{"state", "executing"}}));
  service.SetServiceData("txn.2", MakeSde({{"state", "completed"}}));
  service.SetServiceData("meta", MakeSde({{"version", "1"}}));
  const auto matches = service.FindServiceData("txn.");
  EXPECT_EQ(matches.size(), 2u);
  EXPECT_EQ(service.FindServiceData("").size(), 3u);
  EXPECT_EQ(service.ListServiceData().size(), 3u);
}

TEST(GridServiceTest, OverwriteUpdatesValue) {
  GridService service("svc");
  service.SetServiceData("txn.1", MakeSde({{"state", "proposed"}}));
  service.SetServiceData("txn.1", MakeSde({{"state", "accepted"}}));
  EXPECT_EQ(service.GetServiceData("txn.1")->Get("state"), "accepted");
}

TEST(GridServiceTest, LocalSubscriptionFiresOnMatchingPrefix) {
  GridService service("svc");
  std::vector<std::string> seen;
  const int id = service.SubscribeSde(
      "txn.", [&](const std::string& key, const SdeValue& value) {
        seen.push_back(key + "=" + value.Get("state"));
      });
  service.SetServiceData("txn.1", MakeSde({{"state", "proposed"}}));
  service.SetServiceData("other", MakeSde({{"state", "x"}}));  // no match
  service.SetServiceData("txn.1", MakeSde({{"state", "accepted"}}));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "txn.1=proposed");
  EXPECT_EQ(seen[1], "txn.1=accepted");
  service.UnsubscribeSde(id);
  service.SetServiceData("txn.2", MakeSde({{"state", "proposed"}}));
  EXPECT_EQ(seen.size(), 2u);
}

TEST(GridServiceTest, SoftStateLifetime) {
  util::SimClock clock(1000);
  GridService service("svc");
  EXPECT_FALSE(service.Expired(1'000'000'000));  // default: never
  service.SetTerminationTimeMicros(5000);
  EXPECT_FALSE(service.Expired(4999));
  EXPECT_TRUE(service.Expired(5000));
  service.ExtendLease(10'000, clock);  // now 1000 + 10000
  EXPECT_FALSE(service.Expired(10'000));
  EXPECT_TRUE(service.Expired(11'000));
}

TEST(SdeValueTest, EncodeDecodeRoundTrip) {
  const SdeValue original =
      MakeSde({{"state", "completed"}, {"result", "3.14"}, {"t", "1500"}});
  util::ByteWriter writer;
  EncodeSdeValue(original, writer);
  util::ByteReader reader(writer.data());
  auto decoded = DecodeSdeValue(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, original);
}

// --- ServiceContainer --------------------------------------------------------

class ContainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_.SetClock(&clock_);
    container_ =
        std::make_unique<ServiceContainer>(&network_, "container", &clock_);
    ASSERT_TRUE(container_->Start().ok());
    client_ = std::make_unique<ContainerClient>(&network_, "client");
  }

  net::Network network_;
  util::SimClock clock_;
  std::unique_ptr<ServiceContainer> container_;
  std::unique_ptr<ContainerClient> client_;
};

TEST_F(ContainerTest, AddListLookup) {
  auto handle = container_->AddService(std::make_shared<GridService>("a"));
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(*handle, "container/a");
  EXPECT_NE(container_->Lookup("a"), nullptr);
  EXPECT_EQ(container_->Lookup("nope"), nullptr);

  auto duplicate = container_->AddService(std::make_shared<GridService>("a"));
  EXPECT_EQ(duplicate.status().code(), ErrorCode::kAlreadyExists);

  auto names = client_->ListServices("container");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{"a"});
}

TEST_F(ContainerTest, RemoteFindServiceData) {
  auto service = std::make_shared<GridService>("ntcp");
  service->SetServiceData("txn.5", MakeSde({{"state", "executing"}}));
  ASSERT_TRUE(container_->AddService(service).ok());

  auto matches = client_->FindServiceData("container", "ntcp", "txn.");
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ((*matches)[0].first, "txn.5");
  EXPECT_EQ((*matches)[0].second.Get("state"), "executing");

  auto missing = client_->FindServiceData("container", "ghost", "");
  EXPECT_EQ(missing.status().code(), ErrorCode::kNotFound);
}

TEST_F(ContainerTest, RemoteDestroyCallsOnDestroy) {
  class TrackedService : public GridService {
   public:
    TrackedService(bool* flag) : GridService("tracked"), flag_(flag) {}
    void OnDestroy() override { *flag_ = true; }

   private:
    bool* flag_;
  };
  bool destroyed = false;
  ASSERT_TRUE(
      container_->AddService(std::make_shared<TrackedService>(&destroyed))
          .ok());
  ASSERT_TRUE(client_->DestroyService("container", "tracked").ok());
  EXPECT_TRUE(destroyed);
  EXPECT_EQ(container_->Lookup("tracked"), nullptr);
}

TEST_F(ContainerTest, SoftStateSweepDestroysExpired) {
  auto service = std::make_shared<GridService>("ephemeral");
  ASSERT_TRUE(container_->AddService(service).ok());
  ASSERT_TRUE(
      client_->SetTerminationTime("container", "ephemeral", 5000).ok());

  clock_.SetMicros(4000);
  EXPECT_EQ(container_->SweepExpired(), 0);
  clock_.SetMicros(6000);
  EXPECT_EQ(container_->SweepExpired(), 1);
  EXPECT_EQ(container_->Lookup("ephemeral"), nullptr);
}

TEST_F(ContainerTest, LeaseRenewalKeepsServiceAlive) {
  auto service = std::make_shared<GridService>("renewed");
  ASSERT_TRUE(container_->AddService(service).ok());
  service->SetTerminationTimeMicros(5000);

  clock_.SetMicros(4000);
  // Renew: push termination to 4000 + 10000.
  ASSERT_TRUE(client_->SetTerminationTime("container", "renewed", 14'000).ok());
  clock_.SetMicros(6000);
  EXPECT_EQ(container_->SweepExpired(), 0);
  clock_.SetMicros(15'000);
  EXPECT_EQ(container_->SweepExpired(), 1);
}

TEST_F(ContainerTest, RemoteSubscriptionPushesChanges) {
  auto service = std::make_shared<GridService>("ntcp");
  ASSERT_TRUE(container_->AddService(service).ok());

  std::vector<std::string> events;
  ASSERT_TRUE(client_
                  ->Subscribe("container", "ntcp", "txn.",
                              [&](const std::string& svc,
                                  const std::string& key,
                                  const SdeValue& value) {
                                events.push_back(svc + ":" + key + "=" +
                                                 value.Get("state"));
                              })
                  .ok());
  service->SetServiceData("txn.9", MakeSde({{"state", "proposed"}}));
  service->SetServiceData("unrelated", MakeSde({{"state", "x"}}));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], "ntcp:txn.9=proposed");
}

TEST_F(ContainerTest, SubscriptionNotificationsSurviveDrops) {
  auto service = std::make_shared<GridService>("ntcp");
  ASSERT_TRUE(container_->AddService(service).ok());
  int count = 0;
  ASSERT_TRUE(client_
                  ->Subscribe("container", "ntcp", "",
                              [&](const std::string&, const std::string&,
                                  const SdeValue&) { ++count; })
                  .ok());
  // Drop one notification; the service keeps publishing (best effort).
  network_.DropNext("container", "client.notify", 1);
  service->SetServiceData("a", MakeSde({{"v", "1"}}));  // lost
  service->SetServiceData("b", MakeSde({{"v", "2"}}));  // delivered
  EXPECT_EQ(count, 1);
}

// --- Registry ----------------------------------------------------------------

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_.SetClock(&clock_);
    container_ =
        std::make_unique<ServiceContainer>(&network_, "index", &clock_);
    ASSERT_TRUE(container_->Start().ok());
    registry_ = std::make_shared<RegistryService>(&clock_);
    ASSERT_TRUE(container_->AddService(registry_).ok());
    registry_->BindRpc(*container_);
    rpc_client_ = std::make_unique<net::RpcClient>(&network_, "rc");
    client_ = std::make_unique<RegistryClient>(rpc_client_.get(), "index");
  }

  Registration MakeReg(const std::string& name, const std::string& type,
                       const std::string& site) {
    Registration registration;
    registration.service_name = name;
    registration.endpoint = name + ".endpoint";
    registration.type = type;
    registration.site = site;
    return registration;
  }

  net::Network network_;
  util::SimClock clock_;
  std::unique_ptr<ServiceContainer> container_;
  std::shared_ptr<RegistryService> registry_;
  std::unique_ptr<net::RpcClient> rpc_client_;
  std::unique_ptr<RegistryClient> client_;
};

TEST_F(RegistryTest, RegisterAndQueryByType) {
  ASSERT_TRUE(client_->Register(MakeReg("ntcp.uiuc", "ntcp", "UIUC"), 0).ok());
  ASSERT_TRUE(client_->Register(MakeReg("ntcp.cu", "ntcp", "CU"), 0).ok());
  ASSERT_TRUE(client_->Register(MakeReg("repo.ncsa", "repository", "NCSA"), 0)
                  .ok());

  auto ntcp = client_->Query("ntcp");
  ASSERT_TRUE(ntcp.ok());
  EXPECT_EQ(ntcp->size(), 2u);

  auto all = client_->Query("");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);
}

TEST_F(RegistryTest, LeaseExpiryHidesEntry) {
  ASSERT_TRUE(
      client_->Register(MakeReg("ntcp.uiuc", "ntcp", "UIUC"), 10'000).ok());
  EXPECT_EQ(client_->Query("ntcp")->size(), 1u);
  clock_.Advance(20'000);
  EXPECT_EQ(client_->Query("ntcp")->size(), 0u);
  EXPECT_EQ(registry_->SweepExpired(), 1);
}

TEST_F(RegistryTest, ReRegistrationRenewsLease) {
  ASSERT_TRUE(
      client_->Register(MakeReg("ntcp.uiuc", "ntcp", "UIUC"), 10'000).ok());
  clock_.Advance(8'000);
  ASSERT_TRUE(
      client_->Register(MakeReg("ntcp.uiuc", "ntcp", "UIUC"), 10'000).ok());
  clock_.Advance(8'000);  // 16ms after first registration, 8 after renewal
  EXPECT_EQ(client_->Query("ntcp")->size(), 1u);
}

TEST_F(RegistryTest, UnregisterRemoves) {
  ASSERT_TRUE(client_->Register(MakeReg("x", "ntcp", "UIUC"), 0).ok());
  ASSERT_TRUE(client_->Unregister("x").ok());
  EXPECT_EQ(client_->Query("")->size(), 0u);
  EXPECT_EQ(client_->Unregister("x").code(), ErrorCode::kNotFound);
}

TEST_F(RegistryTest, LookupEntryRespectsExpiry) {
  ASSERT_TRUE(client_->Register(MakeReg("x", "ntcp", "UIUC"), 10'000).ok());
  auto entry = registry_->LookupEntry("x");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->site, "UIUC");
  EXPECT_EQ(entry->endpoint, "x.endpoint");
  clock_.Advance(20'000);
  EXPECT_FALSE(registry_->LookupEntry("x").has_value());
}

// Full round trip of one lease: register -> visible (table and lazily
// refreshed SDE mirror) -> expire -> swept from both -> re-register ->
// visible again with the renewed expiry.
TEST_F(RegistryTest, LeaseExpiryReRegistrationRoundTrip) {
  ContainerClient ogsi(&network_, "inspector");
  ASSERT_TRUE(
      client_->Register(MakeReg("t0007/ntcp.uiuc", "ntcp", "UIUC"), 10'000)
          .ok());
  EXPECT_TRUE(registry_->LookupEntry("t0007/ntcp.uiuc").has_value());
  auto sdes = ogsi.FindServiceData("index", "registry", "reg.");
  ASSERT_TRUE(sdes.ok());
  ASSERT_EQ(sdes->size(), 1u);
  EXPECT_EQ((*sdes)[0].first, "reg.t0007/ntcp.uiuc");
  EXPECT_EQ((*sdes)[0].second.Get("expires"), "10000");

  clock_.Advance(20'000);
  EXPECT_FALSE(registry_->LookupEntry("t0007/ntcp.uiuc").has_value());
  EXPECT_EQ(registry_->SweepExpired(), 1);
  EXPECT_EQ(registry_->entry_count(), 0u);
  sdes = ogsi.FindServiceData("index", "registry", "reg.");
  ASSERT_TRUE(sdes.ok());
  EXPECT_TRUE(sdes->empty());

  ASSERT_TRUE(
      client_->Register(MakeReg("t0007/ntcp.uiuc", "ntcp", "UIUC"), 10'000)
          .ok());
  auto entry = registry_->LookupEntry("t0007/ntcp.uiuc");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->expires_micros, 30'000);
  sdes = ogsi.FindServiceData("index", "registry", "reg.");
  ASSERT_TRUE(sdes.ok());
  ASSERT_EQ(sdes->size(), 1u);
  EXPECT_EQ((*sdes)[0].second.Get("expires"), "30000");
}

TEST_F(RegistryTest, UnregisterTenantReapsOnlyThatNamespace) {
  ASSERT_TRUE(
      client_->Register(MakeReg("t0001/ntcp.uiuc", "ntcp", "UIUC"), 0).ok());
  ASSERT_TRUE(
      client_->Register(MakeReg("t0001/nsds", "nsds", "NCSA"), 0).ok());
  ASSERT_TRUE(
      client_->Register(MakeReg("t0002/ntcp.uiuc", "ntcp", "UIUC"), 0).ok());
  EXPECT_EQ(registry_->UnregisterTenant("t0001"), 2);
  EXPECT_EQ(registry_->entry_count(), 1u);
  EXPECT_FALSE(registry_->LookupEntry("t0001/ntcp.uiuc").has_value());
  EXPECT_TRUE(registry_->LookupEntry("t0002/ntcp.uiuc").has_value());
  EXPECT_EQ(registry_->UnregisterTenant("t0001"), 0);
}

// A farm host churns tenant registrations and never reads registry SDEs:
// names whose mirror SDE was never published must not queue removals.
TEST_F(RegistryTest, UnreadChurnQueuesNoSdeRemovals) {
  for (int i = 0; i < 10'000; ++i) {
    const std::string name = util::Format("t%04d/ntcp.uiuc", i % 100);
    registry_->Register(MakeReg(name, "ntcp", "UIUC"), 0);
    ASSERT_TRUE(registry_->Unregister(name).ok());
  }
  EXPECT_EQ(registry_->entry_count(), 0u);
  EXPECT_EQ(registry_->pending_sde_removals(), 0u);
}

// Published-then-removed names (through the flush and through the eager
// subscriber path) leave the mirror at the next read; never-published
// names were never in it. The read shows exactly the live entries.
TEST_F(RegistryTest, SdeReadShowsExactlyLiveEntriesAfterMixedChurn) {
  ContainerClient ogsi(&network_, "inspector");
  registry_->Register(MakeReg("flushed.gone", "ntcp", "UIUC"), 0);
  registry_->Register(MakeReg("flushed.kept", "ntcp", "UIUC"), 0);
  ASSERT_TRUE(ogsi.FindServiceData("index", "registry", "reg.").ok());

  const int watch = registry_->SubscribeSde("reg.", [](const std::string&,
                                                       const SdeValue&) {});
  registry_->Register(MakeReg("eager.gone", "ntcp", "UIUC"), 0);
  registry_->UnsubscribeSde(watch);

  ASSERT_TRUE(registry_->Unregister("flushed.gone").ok());
  ASSERT_TRUE(registry_->Unregister("eager.gone").ok());
  registry_->Register(MakeReg("never.published", "ntcp", "UIUC"), 0);
  ASSERT_TRUE(registry_->Unregister("never.published").ok());
  registry_->Register(MakeReg("fresh.kept", "ntcp", "UIUC"), 0);
  EXPECT_EQ(registry_->pending_sde_removals(), 2u);

  auto sdes = ogsi.FindServiceData("index", "registry", "reg.");
  ASSERT_TRUE(sdes.ok());
  std::vector<std::string> keys;
  for (const auto& [key, value] : *sdes) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys,
            (std::vector<std::string>{"reg.flushed.kept", "reg.fresh.kept"}));
  EXPECT_EQ(registry_->pending_sde_removals(), 0u);
}

// --- Multi-tenant container under virtual time -------------------------------

// Many tenants' soft state on one container, on a DeliveryMode::kVirtual
// network: per-tenant sweeps only touch their namespace, the global sweep
// reaps every expired lease, and subscription churn across the surviving
// tenants keeps notifying after their neighbors are destroyed.
TEST(MultiTenantContainerTest, VirtualTimeSweepAndSubscriptionChurn) {
  net::Network network(net::DeliveryMode::kVirtual, 7);
  ServiceContainer container(&network, "container.farm", network.clock());
  ASSERT_TRUE(container.Start().ok());

  constexpr int kTenants = 24;
  std::vector<std::shared_ptr<GridService>> services;
  std::vector<std::unique_ptr<ContainerClient>> viewers;
  std::vector<int> notified(kTenants, 0);
  for (int t = 0; t < kTenants; ++t) {
    char ns[8];
    std::snprintf(ns, sizeof ns, "t%04d", t);
    auto service =
        std::make_shared<GridService>(std::string(ns) + "/ntcp.minimost");
    ASSERT_TRUE(container.AddService(service).ok());
    // Odd tenants hold a 10ms lease; even tenants never expire.
    if (t % 2 == 1) service->SetTerminationTimeMicros(10'000);
    auto viewer = std::make_unique<ContainerClient>(
        &network, std::string("viewer-") + ns);
    ASSERT_TRUE(viewer
                    ->Subscribe("container.farm",
                                std::string(ns) + "/ntcp.minimost", "txn.",
                                [&notified, t](const std::string&,
                                               const std::string&,
                                               const SdeValue&) {
                                  ++notified[t];
                                })
                    .ok());
    service->SetServiceData("txn.0", MakeSde({{"state", "proposed"}}));
    services.push_back(std::move(service));
    viewers.push_back(std::move(viewer));
  }
  network.RunUntilQuiescent();
  EXPECT_EQ(container.service_count(), static_cast<std::size_t>(kTenants));
  for (int t = 0; t < kTenants; ++t) EXPECT_EQ(notified[t], 1);

  network.AdvanceTo(20'000);
  // A tenant-scoped sweep reaps only its own expired lease...
  EXPECT_EQ(container.SweepExpired("t0001"), 1);
  EXPECT_EQ(container.SweepExpired("t0001"), 0);
  // ...leaving every other tenant (expired or not) alone.
  EXPECT_EQ(container.ListServices("t0003").size(), 1u);
  EXPECT_EQ(container.ListServices("t0002").size(), 1u);
  // The global sweep reaps the remaining expired (odd) tenants.
  EXPECT_EQ(container.SweepExpired(), kTenants / 2 - 1);
  EXPECT_EQ(container.service_count(), static_cast<std::size_t>(kTenants / 2));

  // Churn: destroy one live tenant outright; the others keep notifying.
  EXPECT_EQ(container.DestroyTenant("t0000"), 1);
  EXPECT_TRUE(container.ListServices("t0000").empty());
  services[2]->SetServiceData("txn.1", MakeSde({{"state", "executing"}}));
  network.RunUntilQuiescent();
  EXPECT_EQ(notified[2], 2);
  EXPECT_EQ(notified[1], 1);  // swept tenants saw no further events
  EXPECT_EQ(container.service_count(),
            static_cast<std::size_t>(kTenants / 2 - 1));
}

}  // namespace
}  // namespace nees::grid
