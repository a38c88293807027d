// Tests for the streaming data service (best-effort semantics, gap
// detection, decimation) and the DAQ pipeline (ring buffers, file drops,
// harvesting).
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "daq/daq.h"
#include "net/network.h"
#include "nsds/nsds.h"
#include "nsds/referral.h"

namespace nees {
namespace {

using util::ErrorCode;

std::vector<nsds::DataSample> MakeSamples(const std::string& prefix,
                                          std::int64_t t, int count) {
  std::vector<nsds::DataSample> samples;
  for (int i = 0; i < count; ++i) {
    samples.push_back({prefix + std::to_string(i), t, 0.1 * i});
  }
  return samples;
}

// --- NSDS ----------------------------------------------------------------------

class NsdsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<nsds::NsdsServer>(&network_, "nsds.uiuc");
    ASSERT_TRUE(server_->Start().ok());
  }

  net::Network network_;
  std::unique_ptr<nsds::NsdsServer> server_;
};

TEST_F(NsdsTest, FrameEncodingRoundTrip) {
  nsds::DataFrame frame;
  frame.sequence = 42;
  frame.samples = {{"a", 100, 1.5}, {"b", 200, -2.5}};
  util::ByteWriter writer;
  nsds::EncodeFrame(frame, writer);
  util::ByteReader reader(writer.data());
  auto decoded = nsds::DecodeFrame(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->sequence, 42u);
  EXPECT_EQ(decoded->samples, frame.samples);
}

TEST_F(NsdsTest, SubscriberReceivesMatchingChannels) {
  nsds::NsdsSubscriber subscriber(&network_, "viewer");
  ASSERT_TRUE(subscriber.SubscribeTo("nsds.uiuc", "uiuc.").ok());
  EXPECT_EQ(server_->subscriber_count(), 1u);

  server_->Publish({{"uiuc.lvdt", 100, 0.01}, {"cu.lvdt", 100, 0.02}});
  const auto latest = subscriber.Latest();
  ASSERT_EQ(latest.size(), 1u);
  EXPECT_TRUE(latest.contains("uiuc.lvdt"));
  EXPECT_EQ(subscriber.stats().frames_received, 1u);
}

TEST_F(NsdsTest, SubscriberDropsChannelsByPrefix) {
  // A farm reaps a tenant's "<tenant>/" channels so the next holder of
  // the recycled name starts empty; other tenants' channels stay.
  nsds::NsdsSubscriber subscriber(&network_, "viewer");
  ASSERT_TRUE(subscriber.SubscribeTo("nsds.uiuc", "").ok());
  server_->Publish({{"t0000/most.displacement", 1, 0.1},
                    {"t0001/most.displacement", 1, 0.2}});
  ASSERT_EQ(subscriber.Latest().size(), 2u);
  subscriber.DropChannels("t0000/");
  const auto latest = subscriber.Latest();
  ASSERT_EQ(latest.size(), 1u);
  EXPECT_TRUE(latest.contains("t0001/most.displacement"));
}

TEST_F(NsdsTest, MultipleSubscribersWithDifferentFilters) {
  nsds::NsdsSubscriber all(&network_, "viewer.all");
  nsds::NsdsSubscriber cu_only(&network_, "viewer.cu");
  ASSERT_TRUE(all.SubscribeTo("nsds.uiuc", "").ok());
  ASSERT_TRUE(cu_only.SubscribeTo("nsds.uiuc", "cu.").ok());

  server_->Publish({{"uiuc.load", 1, 1.0}, {"cu.load", 1, 2.0}});
  EXPECT_EQ(all.Latest().size(), 2u);
  EXPECT_EQ(cu_only.Latest().size(), 1u);
}

TEST_F(NsdsTest, LostFramesDetectedAsGaps) {
  nsds::NsdsSubscriber subscriber(&network_, "viewer");
  ASSERT_TRUE(subscriber.SubscribeTo("nsds.uiuc", "").ok());

  server_->Publish(MakeSamples("ch", 1, 1));
  network_.DropNext("nsds.uiuc", "viewer", 2);  // lose the next two frames
  server_->Publish(MakeSamples("ch", 2, 1));
  server_->Publish(MakeSamples("ch", 3, 1));
  server_->Publish(MakeSamples("ch", 4, 1));

  const auto stats = subscriber.stats();
  EXPECT_EQ(stats.frames_received, 2u);
  EXPECT_EQ(stats.gaps_detected, 1u);
  EXPECT_EQ(stats.frames_lost, 2u);
}

TEST_F(NsdsTest, BestEffortServerUnaffectedBySubscriberLoss) {
  nsds::NsdsSubscriber subscriber(&network_, "viewer");
  ASSERT_TRUE(subscriber.SubscribeTo("nsds.uiuc", "").ok());
  network_.SetLinkUp("nsds.uiuc", "viewer", false);
  for (int i = 0; i < 100; ++i) server_->Publish(MakeSamples("ch", i, 3));
  EXPECT_EQ(server_->stats().frames_published, 100u);
  EXPECT_EQ(server_->stats().frames_sent, 100u);  // sent, silently lost
  EXPECT_EQ(subscriber.stats().frames_received, 0u);
}

TEST_F(NsdsTest, DecimationShedsLoad) {
  nsds::NsdsSubscriber subscriber(&network_, "slow.viewer");
  ASSERT_TRUE(subscriber.SubscribeTo("nsds.uiuc", "", /*decimation=*/5).ok());
  for (int i = 0; i < 50; ++i) server_->Publish(MakeSamples("ch", i, 1));
  EXPECT_EQ(subscriber.stats().frames_received, 10u);
  EXPECT_EQ(server_->stats().frames_decimated, 40u);
  // Decimated frames are not sequence gaps.
  EXPECT_EQ(subscriber.stats().gaps_detected, 0u);
}

TEST_F(NsdsTest, UnsubscribeStopsDelivery) {
  nsds::NsdsSubscriber subscriber(&network_, "viewer");
  ASSERT_TRUE(subscriber.SubscribeTo("nsds.uiuc", "").ok());
  server_->Publish(MakeSamples("ch", 1, 1));
  server_->RemoveSubscriber("viewer");
  server_->Publish(MakeSamples("ch", 2, 1));
  EXPECT_EQ(subscriber.stats().frames_received, 1u);
}

TEST_F(NsdsTest, FrameCallbackInvoked) {
  nsds::NsdsSubscriber subscriber(&network_, "viewer");
  int frames = 0;
  subscriber.SetFrameCallback([&](const nsds::DataFrame&) { ++frames; });
  ASSERT_TRUE(subscriber.SubscribeTo("nsds.uiuc", "").ok());
  server_->Publish(MakeSamples("ch", 1, 2));
  EXPECT_EQ(frames, 1);
}

// --- referral service (TR-2003-09) ------------------------------------------------

class ReferralTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<nsds::ReferralService>(&network_,
                                                       "referral.nees");
    ASSERT_TRUE(service_->Start().ok());
    rpc_ = std::make_unique<net::RpcClient>(&network_, "participant");
    client_ = std::make_unique<nsds::ReferralClient>(rpc_.get(),
                                                     "referral.nees");
  }

  net::Network network_;
  std::unique_ptr<nsds::ReferralService> service_;
  std::unique_ptr<net::RpcClient> rpc_;
  std::unique_ptr<nsds::ReferralClient> client_;
};

TEST_F(ReferralTest, LookupByExperimentAndKind) {
  ASSERT_TRUE(client_->Register({"most", "stream", "nsds.nees", "most."}).ok());
  ASSERT_TRUE(client_->Register({"most", "camera", "cam.uiuc", "uiuc-lab"}).ok());
  ASSERT_TRUE(client_->Register({"most", "camera", "cam.cu", "cu-lab"}).ok());
  ASSERT_TRUE(client_->Register({"minimost", "stream", "nsds.mini", ""}).ok());

  auto cameras = client_->Lookup("most", "camera");
  ASSERT_TRUE(cameras.ok());
  EXPECT_EQ(cameras->size(), 2u);

  auto everything = client_->Lookup("most");
  ASSERT_TRUE(everything.ok());
  EXPECT_EQ(everything->size(), 3u);

  auto other = client_->Lookup("minimost", "camera");
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other->empty());
}

TEST_F(ReferralTest, ReRegistrationReplacesAndUnregisterRemoves) {
  ASSERT_TRUE(client_->Register({"most", "stream", "nsds.a", "v1"}).ok());
  ASSERT_TRUE(client_->Register({"most", "stream", "nsds.a", "v2"}).ok());
  auto streams = client_->Lookup("most", "stream");
  ASSERT_EQ(streams->size(), 1u);
  EXPECT_EQ((*streams)[0].detail, "v2");

  ASSERT_TRUE(client_->Unregister("most", "nsds.a").ok());
  EXPECT_TRUE(client_->Lookup("most")->empty());
}

TEST_F(ReferralTest, ReferralsAreActionable) {
  // End to end: look up the experiment's stream referral and subscribe to
  // what it points at.
  nsds::NsdsServer stream(&network_, "nsds.most");
  ASSERT_TRUE(stream.Start().ok());
  ASSERT_TRUE(
      client_->Register({"most", "stream", "nsds.most", "most."}).ok());

  auto referrals = client_->Lookup("most", "stream");
  ASSERT_TRUE(referrals.ok());
  ASSERT_EQ(referrals->size(), 1u);

  nsds::NsdsSubscriber viewer(&network_, "referred.viewer");
  ASSERT_TRUE(viewer
                  .SubscribeTo((*referrals)[0].endpoint,
                               (*referrals)[0].detail)
                  .ok());
  stream.Publish({{"most.displacement", 1, 0.5}});
  EXPECT_EQ(viewer.stats().frames_received, 1u);
}

// --- DAQ -----------------------------------------------------------------------

class DaqTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("neesdaq-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(DaqTest, RecordAndBuffer) {
  daq::DaqSystem daq;
  daq.AddChannel({"uiuc.lvdt", "m", 100.0});
  ASSERT_TRUE(daq.Record("uiuc.lvdt", 1000, 0.01).ok());
  ASSERT_TRUE(daq.Record("uiuc.lvdt", 2000, 0.02).ok());
  EXPECT_EQ(daq.Record("nope", 0, 0.0).code(), ErrorCode::kNotFound);

  const auto buffered = daq.Buffered("uiuc.lvdt");
  ASSERT_EQ(buffered.size(), 2u);
  EXPECT_EQ(buffered[0].time_micros, 1000);
  EXPECT_EQ(daq.recorded(), 2u);
}

TEST_F(DaqTest, RingOverflowDropsOldest) {
  daq::DaqSystem daq(/*ring_capacity=*/3);
  daq.AddChannel({"ch", "m", 100.0});
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(daq.Record("ch", i, i).ok());
  const auto buffered = daq.Buffered("ch");
  ASSERT_EQ(buffered.size(), 3u);
  EXPECT_EQ(buffered[0].time_micros, 2);  // 0 and 1 overwritten
  EXPECT_EQ(daq.overwritten(), 2u);
}

TEST_F(DaqTest, FlushWritesCsvAndClearsBuffers) {
  daq::DaqSystem daq;
  daq.AddChannel({"a", "m", 100.0});
  daq.AddChannel({"b", "N", 100.0});
  ASSERT_TRUE(daq.Record("a", 10, 1.5).ok());
  ASSERT_TRUE(daq.Record("b", 20, -2.5).ok());

  auto file = daq.Flush(dir_, "run1");
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(std::filesystem::exists(*file));
  EXPECT_TRUE(daq.Buffered("a").empty());

  auto samples = daq::ParseDropFile(*file);
  ASSERT_TRUE(samples.ok());
  ASSERT_EQ(samples->size(), 2u);
  EXPECT_EQ((*samples)[0].channel, "a");
  EXPECT_DOUBLE_EQ((*samples)[1].value, -2.5);

  // Empty flush reports nothing to do.
  EXPECT_EQ(daq.Flush(dir_, "run1").status().code(), ErrorCode::kNotFound);
}

TEST_F(DaqTest, ParseRejectsMalformedRows) {
  std::filesystem::create_directories(dir_);
  const auto bad = dir_ / "bad.csv";
  std::ofstream(bad) << "ch,notanumber,1.5\n";
  EXPECT_EQ(daq::ParseDropFile(bad).status().code(), ErrorCode::kDataLoss);
}

TEST_F(DaqTest, HarvesterProcessesAndRenames) {
  daq::DaqSystem daq;
  daq.AddChannel({"ch", "m", 100.0});
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(daq.Record("ch", i, i).ok());
  ASSERT_TRUE(daq.Flush(dir_, "run1").ok());
  ASSERT_TRUE(daq.Record("ch", 10, 10).ok());
  ASSERT_TRUE(daq.Flush(dir_, "run1").ok());

  std::size_t sunk_samples = 0;
  daq::Harvester harvester(
      dir_, [&](const std::filesystem::path&,
                const std::vector<nsds::DataSample>& samples) {
        sunk_samples += samples.size();
        return util::OkStatus();
      });
  auto processed = harvester.ScanOnce();
  ASSERT_TRUE(processed.ok());
  EXPECT_EQ(*processed, 2);
  EXPECT_EQ(sunk_samples, 11u);
  EXPECT_EQ(harvester.files_processed(), 2u);

  // Second scan: nothing left (files were renamed .done).
  EXPECT_EQ(*harvester.ScanOnce(), 0);
}

TEST_F(DaqTest, HarvesterRetriesFailedSink) {
  daq::DaqSystem daq;
  daq.AddChannel({"ch", "m", 100.0});
  ASSERT_TRUE(daq.Record("ch", 1, 1).ok());
  ASSERT_TRUE(daq.Flush(dir_, "run1").ok());

  bool fail = true;
  daq::Harvester harvester(
      dir_, [&](const std::filesystem::path&,
                const std::vector<nsds::DataSample>&) -> util::Status {
        if (fail) return util::Unavailable("repo down");
        return util::OkStatus();
      });
  EXPECT_EQ(*harvester.ScanOnce(), 0);
  EXPECT_EQ(harvester.files_failed(), 1u);
  fail = false;
  EXPECT_EQ(*harvester.ScanOnce(), 1);  // retried on next pass
}

TEST_F(DaqTest, HarvesterEmptyDirIsFine) {
  daq::Harvester harvester(dir_ / "missing",
                           [](const std::filesystem::path&,
                              const std::vector<nsds::DataSample>&) {
                             return util::OkStatus();
                           });
  EXPECT_EQ(*harvester.ScanOnce(), 0);
}

// --- DAQ -> NSDS live path --------------------------------------------------------

TEST(DaqNsdsTest, HarvestedSamplesStreamToViewers) {
  net::Network network;
  nsds::NsdsServer stream(&network, "nsds.site");
  ASSERT_TRUE(stream.Start().ok());
  nsds::NsdsSubscriber viewer(&network, "viewer");
  ASSERT_TRUE(viewer.SubscribeTo("nsds.site", "").ok());

  const auto dir = std::filesystem::temp_directory_path() / "neesdaq-live";
  std::filesystem::remove_all(dir);
  daq::DaqSystem daq;
  daq.AddChannel({"site.load", "N", 100.0});
  ASSERT_TRUE(daq.Record("site.load", 1, 123.0).ok());
  ASSERT_TRUE(daq.Flush(dir, "run").ok());

  daq::Harvester harvester(
      dir, [&](const std::filesystem::path&,
               const std::vector<nsds::DataSample>& samples) {
        stream.Publish(samples);
        return util::OkStatus();
      });
  ASSERT_TRUE(harvester.ScanOnce().ok());
  const auto latest = viewer.Latest();
  ASSERT_TRUE(latest.contains("site.load"));
  EXPECT_DOUBLE_EQ(latest.at("site.load").value, 123.0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nees
