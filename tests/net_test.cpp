// Tests for the simulated network and RPC layers: routing, fault injection,
// latency accounting, partitions, and loss-as-timeout semantics.
#include <atomic>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/endpoint.h"
#include "net/message.h"
#include "net/network.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/strings.h"

namespace nees::net {
namespace {

using util::ErrorCode;

Bytes AsBytes(const std::string& text) {
  return Bytes(text.begin(), text.end());
}

Message MakeMessage(const std::string& from, const std::string& to,
                    const std::string& method = "") {
  Message message;
  message.from = from;
  message.to = to;
  message.method = method;
  return message;
}
std::string AsString(const Bytes& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

/// Recomputes and rewrites the trailing CRC so a deliberately mutated frame
/// is sealed again — for tests that target the *semantic* validation behind
/// the checksum (unknown ids, bad kinds).
void ResealFrame(std::vector<std::uint8_t>& frame) {
  ASSERT_GE(frame.size(), 4u);
  const std::uint32_t crc = util::Crc32(frame.data(), frame.size() - 4);
  for (int i = 0; i < 4; ++i) {
    frame[frame.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

// --- endpoint interning ------------------------------------------------------

TEST(EndpointTableTest, InternIsIdempotentAndLookupRoundTrips) {
  EndpointTable& table = EndpointTable::Instance();
  const std::uint32_t id = table.Intern("etbl.test.alpha");
  EXPECT_NE(id, 0u);
  EXPECT_EQ(table.Intern("etbl.test.alpha"), id);
  EXPECT_EQ(table.Lookup(id), "etbl.test.alpha");
  EXPECT_TRUE(table.Known(id));
  const std::uint32_t other = table.Intern("etbl.test.beta");
  EXPECT_NE(other, id);
}

TEST(EndpointTableTest, EmptyNameIsIdZeroAndUnknownIdsAreEmpty) {
  EndpointTable& table = EndpointTable::Instance();
  EXPECT_EQ(table.Intern(""), 0u);
  EXPECT_EQ(table.Lookup(0), "");
  EXPECT_TRUE(table.Known(0));
  EXPECT_FALSE(table.Known(0x7FFFFFF0));
  EXPECT_EQ(table.Lookup(0x7FFFFFF0), "");
}

TEST(EndpointTableTest, IdTypesCarryLazyNameViews) {
  const EndpointId endpoint("etbl.test.site");
  EXPECT_TRUE(endpoint.valid());
  EXPECT_EQ(endpoint.name(), "etbl.test.site");
  EXPECT_EQ(EndpointId("etbl.test.site"), endpoint);
  const MethodId method("etbl.test.method");
  EXPECT_EQ(method.name(), "etbl.test.method");
}

TEST(EndpointTableTest, GrowthCountersTrackDistinctNames) {
  EndpointTable& table = EndpointTable::Instance();
  const std::size_t count_before = table.size();
  const std::size_t bytes_before = table.interned_bytes();
  const std::string fresh = "etbl.test.growth.tenant/ntcp.uiuc";
  (void)table.Intern(fresh);
  EXPECT_EQ(table.size(), count_before + 1);
  EXPECT_EQ(table.interned_bytes(), bytes_before + fresh.size());
  // Re-interning is free: the counters only track distinct names.
  (void)table.Intern(fresh);
  EXPECT_EQ(table.size(), count_before + 1);
  EXPECT_EQ(table.interned_bytes(), bytes_before + fresh.size());
}

TEST(EndpointTableTest, PublishGaugesExportsInternedFootprint) {
  EndpointTable& table = EndpointTable::Instance();
  (void)table.Intern("etbl.test.gauge");
  obs::MetricsRegistry metrics;
  table.PublishGauges(metrics);
  EXPECT_EQ(metrics.GaugeValue("net.endpoints.interned"),
            static_cast<double>(table.size()));
  EXPECT_EQ(metrics.GaugeValue("net.endpoints.interned_bytes"),
            static_cast<double>(table.interned_bytes()));
}

// --- wire frame layout -------------------------------------------------------

TEST(MessageWireTest, EncodeDecodeRoundTrip) {
  Message message;
  message.from = "wire.src";
  message.to = "wire.dst";
  message.kind = MessageKind::kRequest;
  message.correlation_id = 0x1122334455667788ULL;
  message.method = MethodId("wire.method");
  message.payload = AsBytes("body bytes");

  util::ByteWriter writer;
  message.EncodeTo(writer);
  EXPECT_EQ(writer.size(), message.WireSize());
  EXPECT_EQ(writer.size(), Message::kHeaderBytes + message.payload.size());

  util::ByteReader reader(writer.data());
  auto decoded = Message::Decode(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->from, message.from);
  EXPECT_EQ(decoded->to, message.to);
  EXPECT_EQ(decoded->kind, MessageKind::kRequest);
  EXPECT_EQ(decoded->correlation_id, message.correlation_id);
  EXPECT_EQ(decoded->method, message.method);
  EXPECT_EQ(decoded->payload, message.payload);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(MessageWireTest, BackToBackFramesDecodeSequentially) {
  Message first = MakeMessage("wire.a", "wire.b", "m1");
  first.payload = AsBytes("one");
  Message second = MakeMessage("wire.b", "wire.a", "m2");
  second.kind = MessageKind::kResponse;
  second.payload = AsBytes("two");
  util::ByteWriter writer;
  first.EncodeTo(writer);
  second.EncodeTo(writer);
  util::ByteReader reader(writer.data());
  auto one = Message::Decode(reader);
  auto two = Message::Decode(reader);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(AsString(one->payload), "one");
  EXPECT_EQ(AsString(two->payload), "two");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(MessageWireTest, EveryTruncationIsAnErrorNeverACrash) {
  Message message = MakeMessage("wire.src", "wire.dst", "wire.method");
  message.kind = MessageKind::kRequest;
  message.correlation_id = 42;
  message.payload = AsBytes("payload-under-test");
  util::ByteWriter writer;
  message.EncodeTo(writer);
  const std::vector<std::uint8_t>& frame = writer.data();
  for (std::size_t len = 0; len < frame.size(); ++len) {
    util::ByteReader reader(frame.data(), len);
    auto decoded = Message::Decode(reader);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(MessageWireTest, UnknownInternedIdsAreProtocolErrors) {
  // A peer (or fuzzer) can put any u32 in the id fields; ids never handed
  // out by this process's EndpointTable must decode to an error.
  const std::uint32_t bogus = 0x7FFFFFF5;
  ASSERT_FALSE(EndpointTable::Instance().Known(bogus));
  Message valid = MakeMessage("wire.src", "wire.dst", "wire.method");
  valid.kind = MessageKind::kRequest;
  // from at [0,4), to at [4,8), method at [17,21) in the canonical layout.
  for (const std::size_t offset : {0u, 4u, 17u}) {
    util::ByteWriter writer;
    valid.EncodeTo(writer);
    std::vector<std::uint8_t> frame = writer.Take();
    std::memcpy(frame.data() + offset, &bogus, sizeof bogus);
    // Reseal the checksum: this test targets the id validation itself, not
    // the CRC's ability to notice the overwrite.
    ResealFrame(frame);
    util::ByteReader reader(frame);
    auto decoded = Message::Decode(reader);
    EXPECT_FALSE(decoded.ok()) << "bogus id accepted at offset " << offset;
  }
}

TEST(MessageWireTest, ChecksumCatchesEverySingleByteCorruption) {
  Message message = MakeMessage("wire.src", "wire.dst", "wire.method");
  message.kind = MessageKind::kRequest;
  message.correlation_id = 7;
  message.payload = AsBytes("crc-covered-payload");
  util::ByteWriter writer;
  message.EncodeTo(writer);
  const std::vector<std::uint8_t> frame = writer.data();
  // CRC-32 detects all single-byte errors, including ones that land in the
  // payload or the CRC field itself — the corruption class that used to
  // decode cleanly and poison downstream protocol state.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::vector<std::uint8_t> mutant = frame;
    mutant[i] ^= 0x5A;
    util::ByteReader reader(mutant);
    auto decoded = Message::Decode(reader);
    EXPECT_FALSE(decoded.ok()) << "byte " << i << " flip decoded";
  }
}

TEST(MessageWireTest, RandomByteFlipFuzzNeverCrashesAlwaysOkOrError) {
  // Seeded mutation fuzz over the Decode boundary — the in-process version
  // of nees_fuzz's kFrameCorrupt fault class. Every mutant (1–3 byte flips,
  // sometimes truncated too) must come back Ok or an error; decoding may
  // never crash, and a frame whose bytes actually changed must be rejected
  // by the checksum.
  util::Rng rng(20260808);
  Message message = MakeMessage("wire.src", "wire.dst", "wire.method");
  message.kind = MessageKind::kRequest;
  for (int round = 0; round < 2000; ++round) {
    message.correlation_id = rng.NextU64();
    message.payload.resize(static_cast<std::size_t>(rng.UniformInt(0, 64)));
    for (auto& byte : message.payload) {
      byte = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
    }
    util::ByteWriter writer;
    message.EncodeTo(writer);
    std::vector<std::uint8_t> mutant = writer.Take();

    bool changed = false;
    const int flips = rng.UniformInt(1, 3);
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(mutant.size()) - 1));
      const std::uint8_t mask =
          static_cast<std::uint8_t>(rng.UniformInt(1, 255));
      mutant[at] ^= mask;
      changed = true;
    }
    if (rng.Bernoulli(0.25)) {
      mutant.resize(static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(mutant.size()))));
      changed = true;
    }

    util::ByteReader reader(mutant);
    auto decoded = Message::Decode(reader);  // must not crash
    if (changed) {
      EXPECT_FALSE(decoded.ok())
          << "round " << round << ": corrupted frame decoded cleanly";
    }
  }
}

// --- raw network routing -----------------------------------------------------

TEST(NetworkTest, DeliversToRegisteredEndpoint) {
  Network network;
  std::string received;
  ASSERT_TRUE(network
                  .RegisterEndpoint("sink",
                                    [&](const Message& message) {
                                      received = AsString(message.payload);
                                    })
                  .ok());
  Message message;
  message.from = "src";
  message.to = "sink";
  message.payload = AsBytes("hello");
  ASSERT_TRUE(network.Send(message).ok());
  EXPECT_EQ(received, "hello");
}

TEST(NetworkTest, UnknownDestinationIsNotFound) {
  Network network;
  Message message;
  message.from = "src";
  message.to = "ghost";
  EXPECT_EQ(network.Send(message).code(), ErrorCode::kNotFound);
}

TEST(NetworkTest, DuplicateRegistrationRejected) {
  Network network;
  ASSERT_TRUE(network.RegisterEndpoint("a", [](const Message&) {}).ok());
  EXPECT_EQ(network.RegisterEndpoint("a", [](const Message&) {}).code(),
            ErrorCode::kAlreadyExists);
}

TEST(NetworkTest, UnregisterRemovesEndpoint) {
  Network network;
  ASSERT_TRUE(network.RegisterEndpoint("a", [](const Message&) {}).ok());
  network.UnregisterEndpoint("a");
  EXPECT_FALSE(network.HasEndpoint("a"));
}

TEST(NetworkTest, HandlerMaySendNestedMessages) {
  Network network;
  int bounces = 0;
  ASSERT_TRUE(network
                  .RegisterEndpoint("ping",
                                    [&](const Message& message) {
                                      ++bounces;
                                      if (bounces < 3) {
                                        Message next = message;
                                        next.from = "ping";
                                        next.to = "ping";
                                        (void)network.Send(next);
                                      }
                                    })
                  .ok());
  Message message;
  message.from = "x";
  message.to = "ping";
  ASSERT_TRUE(network.Send(message).ok());
  EXPECT_EQ(bounces, 3);
}

// --- fault injection ---------------------------------------------------------

TEST(NetworkFaultTest, LinkDownDropsSilently) {
  Network network;
  int received = 0;
  ASSERT_TRUE(
      network.RegisterEndpoint("sink", [&](const Message&) { ++received; })
          .ok());
  network.SetLinkUp("src", "sink", false);
  Message message;
  message.from = "src";
  message.to = "sink";
  EXPECT_TRUE(network.Send(message).ok());  // accepted, silently lost
  EXPECT_EQ(received, 0);
  network.SetLinkUp("src", "sink", true);
  EXPECT_TRUE(network.Send(message).ok());
  EXPECT_EQ(received, 1);
  const auto metrics = network.LinkMetricsFor("src", "sink");
  EXPECT_EQ(metrics.sent, 2u);
  EXPECT_EQ(metrics.delivered, 1u);
  EXPECT_EQ(metrics.dropped_forced, 1u);
}

TEST(NetworkFaultTest, DropNextIsDeterministic) {
  Network network;
  int received = 0;
  ASSERT_TRUE(
      network.RegisterEndpoint("sink", [&](const Message&) { ++received; })
          .ok());
  network.DropNext("src", "sink", 2);
  Message message;
  message.from = "src";
  message.to = "sink";
  for (int i = 0; i < 5; ++i) (void)network.Send(message);
  EXPECT_EQ(received, 3);
}

TEST(NetworkFaultTest, OutageWindowUsesClock) {
  Network network;
  util::SimClock clock(0);
  network.SetClock(&clock);
  int received = 0;
  ASSERT_TRUE(
      network.RegisterEndpoint("sink", [&](const Message&) { ++received; })
          .ok());
  network.AddOutage("src", "sink", {100, 200});
  Message message;
  message.from = "src";
  message.to = "sink";

  clock.SetMicros(50);
  (void)network.Send(message);  // before outage
  clock.SetMicros(150);
  (void)network.Send(message);  // during outage: dropped
  clock.SetMicros(250);
  (void)network.Send(message);  // after outage
  EXPECT_EQ(received, 2);
  EXPECT_EQ(network.LinkMetricsFor("src", "sink").dropped_outage, 1u);
}

TEST(NetworkFaultTest, RandomDropRateApproximatesProbability) {
  Network network(DeliveryMode::kImmediate, /*fault_seed=*/7);
  std::atomic<int> received{0};
  ASSERT_TRUE(
      network.RegisterEndpoint("sink", [&](const Message&) { ++received; })
          .ok());
  LinkModel model;
  model.drop_probability = 0.25;
  network.SetLink("src", "sink", model);
  Message message;
  message.from = "src";
  message.to = "sink";
  const int kTrials = 4000;
  for (int i = 0; i < kTrials; ++i) (void)network.Send(message);
  const double delivered_rate = static_cast<double>(received) / kTrials;
  EXPECT_NEAR(delivered_rate, 0.75, 0.03);
}

TEST(NetworkFaultTest, PartitionSeversBothDirectionsAndHeals) {
  Network network;
  int to_b = 0, to_a = 0;
  ASSERT_TRUE(
      network.RegisterEndpoint("a", [&](const Message&) { ++to_a; }).ok());
  ASSERT_TRUE(
      network.RegisterEndpoint("b", [&](const Message&) { ++to_b; }).ok());
  network.Partition({"a"}, {"b"});

  Message ab = MakeMessage("a", "b");
  Message ba = MakeMessage("b", "a");
  (void)network.Send(ab);
  (void)network.Send(ba);
  EXPECT_EQ(to_a + to_b, 0);

  network.HealPartition();
  (void)network.Send(ab);
  (void)network.Send(ba);
  EXPECT_EQ(to_a, 1);
  EXPECT_EQ(to_b, 1);
}

TEST(NetworkFaultTest, PartitionLeavesThirdPartiesConnected) {
  Network network;
  int received = 0;
  ASSERT_TRUE(
      network.RegisterEndpoint("c", [&](const Message&) { ++received; }).ok());
  ASSERT_TRUE(network.RegisterEndpoint("a", [](const Message&) {}).ok());
  network.Partition({"a"}, {"b"});
  Message message = MakeMessage("a", "c");
  (void)network.Send(message);
  EXPECT_EQ(received, 1);
}

// --- link reclamation --------------------------------------------------------

TEST(NetworkLinkReclaimTest, UnregisterDropsDefaultMaterializedLinks) {
  Network network;
  for (const char* name : {"reclaim.a", "reclaim.b", "reclaim.c"}) {
    ASSERT_TRUE(network.RegisterEndpoint(name, [](const Message&) {}).ok());
  }
  ASSERT_TRUE(network.Send(MakeMessage("reclaim.a", "reclaim.b")).ok());
  ASSERT_TRUE(network.Send(MakeMessage("reclaim.b", "reclaim.a")).ok());
  ASSERT_TRUE(network.Send(MakeMessage("reclaim.a", "reclaim.c")).ok());
  ASSERT_EQ(network.LinkMetricsFor("reclaim.a", "reclaim.b").delivered, 1u);
  const LinkMetrics before = network.TotalMetrics();

  network.UnregisterEndpoint("reclaim.b");
  // Both directions touching the departed endpoint are gone...
  EXPECT_EQ(network.LinkMetricsFor("reclaim.a", "reclaim.b").sent, 0u);
  EXPECT_EQ(network.LinkMetricsFor("reclaim.b", "reclaim.a").sent, 0u);
  // ...a link between two live endpoints is not...
  EXPECT_EQ(network.LinkMetricsFor("reclaim.a", "reclaim.c").delivered, 1u);
  // ...and the network-wide totals still count the reclaimed traffic.
  const LinkMetrics after = network.TotalMetrics();
  EXPECT_EQ(after.sent, before.sent);
  EXPECT_EQ(after.delivered, before.delivered);
  EXPECT_EQ(after.bytes_delivered, before.bytes_delivered);
  EXPECT_EQ(after.dropped_total(), before.dropped_total());
}

TEST(NetworkLinkReclaimTest, ConfiguredLinksSurviveUnregisterAndReregister) {
  Network network;
  util::SimClock clock(0);
  network.SetClock(&clock);
  int received = 0;
  const auto sink = [&](const Message&) { ++received; };
  ASSERT_TRUE(network.RegisterEndpoint("cfg.sink", sink).ok());
  // One link carries traffic before its fault is injected: configuring a
  // materialized link must pin it too.
  ASSERT_TRUE(network.Send(MakeMessage("cfg.drop", "cfg.sink")).ok());
  ASSERT_EQ(received, 1);
  LinkModel lossy;
  lossy.drop_probability = 1.0;
  network.SetLink("cfg.lossy", "cfg.sink", lossy);
  network.AddOutage("cfg.outage", "cfg.sink", {100, 200});
  network.DropNext("cfg.drop", "cfg.sink", 1);
  network.SetLinkUp("cfg.down", "cfg.sink", false);

  // A crash-restart: the process goes away and comes back under its name.
  network.UnregisterEndpoint("cfg.sink");
  ASSERT_TRUE(network.RegisterEndpoint("cfg.sink", sink).ok());

  clock.SetMicros(150);
  for (const char* from : {"cfg.lossy", "cfg.outage", "cfg.drop", "cfg.down"}) {
    ASSERT_TRUE(network.Send(MakeMessage(from, "cfg.sink")).ok());
  }
  EXPECT_EQ(received, 1);  // every fault still applied to the next send
  EXPECT_EQ(network.LinkMetricsFor("cfg.lossy", "cfg.sink").dropped_random,
            1u);
  EXPECT_EQ(network.LinkMetricsFor("cfg.outage", "cfg.sink").dropped_outage,
            1u);
  EXPECT_EQ(network.LinkMetricsFor("cfg.drop", "cfg.sink").dropped_forced, 1u);
  EXPECT_EQ(network.LinkMetricsFor("cfg.drop", "cfg.sink").sent, 2u);
  EXPECT_EQ(network.LinkMetricsFor("cfg.down", "cfg.sink").dropped_forced, 1u);
}

// --- transmission delay model --------------------------------------------------

// --- sharded routing -----------------------------------------------------------

TEST(NetworkShardTest, ConcurrentSendersKeepTotalsExact) {
  // Eight senders on their own endpoint pairs, spread over the shards,
  // while a ninth thread churns throwaway endpoints through registration,
  // traffic and reclamation. The per-shard totals must sum exactly and no
  // throwaway link may survive its endpoints, including a link into a
  // long-lived endpoint, which lives in that endpoint's shard.
  Network network;
  ASSERT_TRUE(network.RegisterEndpoint("shard.sink", [](const Message&) {})
                  .ok());
  constexpr int kSenders = 8;
  constexpr int kMessages = 2000;
  constexpr int kChurn = 300;
  for (int i = 0; i < kSenders; ++i) {
    ASSERT_TRUE(network
                    .RegisterEndpoint(util::Format("shard.dst%d", i),
                                      [](const Message&) {})
                    .ok());
  }
  const std::size_t wire = MakeMessage("shard.src0", "shard.dst0").WireSize();
  std::atomic<bool> churn_ok{true};
  std::vector<std::thread> threads;
  for (int i = 0; i < kSenders; ++i) {
    threads.emplace_back([&network, i] {
      const std::string from = util::Format("shard.src%d", i);
      const std::string to = util::Format("shard.dst%d", i);
      for (int n = 0; n < kMessages; ++n) {
        (void)network.Send(MakeMessage(from, to));
      }
    });
  }
  threads.emplace_back([&] {
    for (int n = 0; n < kChurn; ++n) {
      const std::string a = util::Format("shard.tmp%d.a", n);
      const std::string b = util::Format("shard.tmp%d.b", n);
      bool ok = network.RegisterEndpoint(a, [](const Message&) {}).ok() &&
                network.RegisterEndpoint(b, [](const Message&) {}).ok() &&
                network.Send(MakeMessage(a, b)).ok() &&
                network.Send(MakeMessage(b, a)).ok() &&
                network.Send(MakeMessage(a, "shard.sink")).ok();
      network.UnregisterEndpoint(a);
      network.UnregisterEndpoint(b);
      if (!ok) churn_ok = false;
    }
  });
  for (std::thread& thread : threads) thread.join();
  ASSERT_TRUE(churn_ok);

  constexpr std::uint64_t kTotal = kSenders * kMessages + 3 * kChurn;
  const LinkMetrics total = network.TotalMetrics();
  EXPECT_EQ(total.sent, kTotal);
  EXPECT_EQ(total.delivered, kTotal);
  EXPECT_EQ(total.bytes_delivered, kTotal * wire);
  EXPECT_EQ(total.dropped_total(), 0u);
  for (int n = 0; n < kChurn; ++n) {
    const std::string a = util::Format("shard.tmp%d.a", n);
    const std::string b = util::Format("shard.tmp%d.b", n);
    EXPECT_EQ(network.LinkMetricsFor(a, b).sent, 0u) << a;
    EXPECT_EQ(network.LinkMetricsFor(b, a).sent, 0u) << b;
    EXPECT_EQ(network.LinkMetricsFor(a, "shard.sink").sent, 0u) << a;
  }
  for (int i = 0; i < kSenders; ++i) {
    EXPECT_EQ(network
                  .LinkMetricsFor(util::Format("shard.src%d", i),
                                  util::Format("shard.dst%d", i))
                  .delivered,
              static_cast<std::uint64_t>(kMessages));
  }
}

TEST(LinkModelTest, DelayIncludesBandwidthTerm) {
  util::Rng rng(1);
  LinkModel model;
  model.latency_micros = 1000;
  model.bytes_per_second = 1e6;  // 1 MB/s
  // 1 MB payload => 1 second transmission + 1 ms propagation.
  const auto delay = TransmissionDelayMicros(model, 1'000'000, rng);
  EXPECT_NEAR(static_cast<double>(delay), 1'001'000.0, 1.0);
}

TEST(LinkModelTest, JitterStaysWithinBounds) {
  util::Rng rng(1);
  LinkModel model;
  model.latency_micros = 500;
  model.jitter_micros = 100;
  for (int i = 0; i < 200; ++i) {
    const auto delay = TransmissionDelayMicros(model, 10, rng);
    EXPECT_GE(delay, 400);
    EXPECT_LE(delay, 600);
  }
}

TEST(LinkModelTest, DelayNeverNegative) {
  util::Rng rng(1);
  LinkModel model;
  model.latency_micros = 10;
  model.jitter_micros = 50;  // jitter larger than latency
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(TransmissionDelayMicros(model, 0, rng), 0);
  }
}

// --- RPC ----------------------------------------------------------------------

class RpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<RpcServer>(&network_, "server");
    ASSERT_TRUE(server_->Start().ok());
    server_->RegisterMethod(
        "echo", [](const CallContext&, const Bytes& body) -> util::Result<Bytes> {
          return body;
        });
    server_->RegisterMethod(
        "fail", [](const CallContext&, const Bytes&) -> util::Result<Bytes> {
          return util::PolicyViolation("force limit exceeded");
        });
    client_ = std::make_unique<RpcClient>(&network_, "client");
  }

  Network network_;
  std::unique_ptr<RpcServer> server_;
  std::unique_ptr<RpcClient> client_;
};

TEST_F(RpcTest, EchoRoundTrip) {
  auto result = client_->Call("server", "echo", AsBytes("payload"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(AsString(*result), "payload");
}

TEST_F(RpcTest, ApplicationErrorPassesThrough) {
  auto result = client_->Call("server", "fail", {});
  EXPECT_EQ(result.status().code(), ErrorCode::kPolicyViolation);
  EXPECT_EQ(result.status().message(), "force limit exceeded");
}

TEST_F(RpcTest, UnknownMethodIsUnimplemented) {
  auto result = client_->Call("server", "nope", {});
  EXPECT_EQ(result.status().code(), ErrorCode::kUnimplemented);
}

TEST_F(RpcTest, MissingServerIsUnavailable) {
  auto result = client_->Call("ghost", "echo", {});
  EXPECT_EQ(result.status().code(), ErrorCode::kUnavailable);
}

TEST_F(RpcTest, DroppedRequestSurfacesAsTimeout) {
  network_.DropNext("client", "server", 1);
  auto result = client_->Call("server", "echo", AsBytes("x"));
  EXPECT_EQ(result.status().code(), ErrorCode::kTimeout);
  // Retry succeeds once the fault clears.
  auto retry = client_->Call("server", "echo", AsBytes("x"));
  EXPECT_TRUE(retry.ok());
}

TEST_F(RpcTest, DroppedResponseSurfacesAsTimeout) {
  network_.DropNext("server", "client", 1);
  auto result = client_->Call("server", "echo", AsBytes("x"));
  EXPECT_EQ(result.status().code(), ErrorCode::kTimeout);
}

TEST_F(RpcTest, AuthenticatorRejectsBadToken) {
  server_->SetAuthenticator(
      [](const std::string& token,
         const std::string&) -> util::Result<std::string> {
        if (token == "good") return std::string("subject-x");
        return util::Unauthenticated("bad token");
      });
  auto anonymous = client_->Call("server", "echo", AsBytes("x"));
  EXPECT_EQ(anonymous.status().code(), ErrorCode::kUnauthenticated);

  client_->SetAuthToken("good");
  auto authed = client_->Call("server", "echo", AsBytes("x"));
  EXPECT_TRUE(authed.ok());
}

TEST_F(RpcTest, AuthenticatedSubjectVisibleToMethod) {
  std::string seen_subject;
  server_->RegisterMethod(
      "whoami",
      [&](const CallContext& context, const Bytes&) -> util::Result<Bytes> {
        seen_subject = context.subject;
        return Bytes{};
      });
  server_->SetAuthenticator(
      [](const std::string&, const std::string&) -> util::Result<std::string> {
        return std::string("C=US/O=NEES/CN=coordinator");
      });
  ASSERT_TRUE(client_->Call("server", "whoami", {}).ok());
  EXPECT_EQ(seen_subject, "C=US/O=NEES/CN=coordinator");
}

TEST_F(RpcTest, OneWayDelivery) {
  std::string received;
  server_->RegisterOneWay("notify",
                          [&](const CallContext&, const Bytes& body) {
                            received = AsString(body);
                          });
  ASSERT_TRUE(client_->OneWay("server", "notify", AsBytes("event")).ok());
  EXPECT_EQ(received, "event");
}

TEST_F(RpcTest, EnvelopeRoundTrip) {
  const Bytes body = AsBytes("abc");
  const Bytes envelope = EncodeRequestEnvelope("token", body);
  std::string token;
  Bytes decoded;
  ASSERT_TRUE(DecodeRequestEnvelope(envelope, &token, &decoded).ok());
  EXPECT_EQ(token, "token");
  EXPECT_EQ(decoded, body);

  const Bytes response =
      EncodeResponseEnvelope(util::TimeoutError("slow"), AsBytes("r"));
  util::Status status;
  Bytes response_body;
  ASSERT_TRUE(DecodeResponseEnvelope(response, &status, &response_body).ok());
  EXPECT_EQ(status.code(), ErrorCode::kTimeout);
  EXPECT_EQ(AsString(response_body), "r");
}

TEST_F(RpcTest, CorruptEnvelopeRejected) {
  std::string token;
  Bytes body;
  EXPECT_FALSE(DecodeRequestEnvelope(AsBytes("zz"), &token, &body).ok());
  util::Status status;
  EXPECT_FALSE(DecodeResponseEnvelope(AsBytes("z"), &status, &body).ok());
}

TEST_F(RpcTest, ConsumingEnvelopeDecodesMoveTheBody) {
  const Bytes body = AsBytes("zero-copy body");
  Bytes request = EncodeRequestEnvelope("token", body);
  std::string token;
  Bytes request_body;
  ASSERT_TRUE(ConsumeRequestEnvelope(&request, &token, &request_body).ok());
  EXPECT_EQ(token, "token");
  EXPECT_EQ(request_body, body);

  Bytes response = EncodeResponseEnvelope(util::OkStatus(), body);
  util::Status status;
  Bytes response_body;
  ASSERT_TRUE(
      ConsumeResponseEnvelope(&response, &status, &response_body).ok());
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(response_body, body);
}

TEST_F(RpcTest, ConsumingEnvelopeRejectsTrailingGarbage) {
  // Strict framing: the body's length prefix must account for the entire
  // remainder of the frame. A truncated or padded frame is data loss, not
  // a silently shortened body.
  Bytes padded = EncodeRequestEnvelope("t", AsBytes("abc"));
  padded.push_back(0x7f);
  std::string token;
  Bytes body;
  EXPECT_EQ(ConsumeRequestEnvelope(&padded, &token, &body).code(),
            ErrorCode::kDataLoss);

  Bytes truncated = EncodeResponseEnvelope(util::OkStatus(), AsBytes("abc"));
  truncated.pop_back();
  util::Status status;
  EXPECT_EQ(ConsumeResponseEnvelope(&truncated, &status, &body).code(),
            ErrorCode::kDataLoss);
}

// --- asynchronous calls -------------------------------------------------------

TEST_F(RpcTest, AsyncCallResolvesInlineInImmediateMode) {
  RpcClient::AsyncCall call =
      client_->CallAsync("server", "echo", AsBytes("now"));
  util::Result<Bytes> result = util::Internal("unset");
  ASSERT_TRUE(call.TryResolve(&result));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(AsString(*result), "now");
}

TEST_F(RpcTest, UnansweredAsyncCallResolvesAsTimeoutImmediately) {
  // kImmediate has no delivery thread: a reply that did not arrive during
  // Send() never will, so the handle must not park its caller.
  network_.DropNext("client", "server", 1);
  RpcClient::AsyncCall call =
      client_->CallAsync("server", "echo", AsBytes("x"));
  util::Result<Bytes> result = util::Internal("unset");
  ASSERT_TRUE(call.TryResolve(&result));
  EXPECT_EQ(result.status().code(), ErrorCode::kTimeout);
}

TEST_F(RpcTest, AsyncDeadlineUsesInjectedClock) {
  // The deadline must be stamped from the network's util::Clock, not the
  // wall clock — SimClock-driven tests otherwise silently wait real time.
  // Only kVirtual waits for a deadline: a kImmediate call resolves without
  // one, so issuing it stamps none.
  util::SimClock clock(500'000);
  network_.SetClock(&clock);
  RpcClient::AsyncCall immediate =
      client_->CallAsync("server", "echo", AsBytes("x"), 250'000);
  EXPECT_EQ(immediate.deadline_micros(),
            std::numeric_limits<std::int64_t>::max());
  network_.SetClock(&util::SystemClock::Instance());

  Network network(DeliveryMode::kVirtual);
  util::SimClock timeline(500'000);
  network.SetClock(&timeline);
  RpcServer server(&network, "server");
  ASSERT_TRUE(server.Start().ok());
  server.RegisterMethod(
      "echo", [](const CallContext&, const Bytes& body) -> util::Result<Bytes> {
        return body;
      });
  RpcClient client(&network, "client");
  RpcClient::AsyncCall call =
      client.CallAsync("server", "echo", AsBytes("x"), 250'000);
  EXPECT_EQ(call.deadline_micros(), 750'000);
  EXPECT_TRUE(call.Wait().ok());
}

TEST_F(RpcTest, OverlappedCallsRoundTripInImmediateMode) {
  // Several calls in flight on one client before any wait: each goes on
  // the wire when issued and, under kImmediate, is answered inline, so the
  // waits find every reply already in its own slot.
  RpcClient::AsyncCall a = client_->CallAsync("server", "echo", AsBytes("a"));
  RpcClient::AsyncCall b = client_->CallAsync("server", "echo", AsBytes("b"));
  RpcClient::AsyncCall c = client_->CallAsync("server", "echo", AsBytes("c"));
  auto rc = c.Wait();
  auto ra = a.Wait();
  auto rb = b.Wait();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_TRUE(rc.ok());
  EXPECT_EQ(AsString(*ra), "a");
  EXPECT_EQ(AsString(*rb), "b");
  EXPECT_EQ(AsString(*rc), "c");
}

// --- overlapped calls: CallAsync + Wait / WaitAnyUntil -----------------------
//
// Latency-scheduled delivery under kVirtual: every message lands at its
// modeled arrival time on the network's virtual clock, so the cost of an
// overlapped round trip is asserted exactly, in modeled microseconds.

TEST(ScheduledRpcTest, PerCallWaitsCollectOverlappedCalls) {
  Network network(DeliveryMode::kVirtual);
  LinkModel model;
  model.latency_micros = 3'000;
  network.SetDefaultLink(model);
  RpcServer server(&network, "server");
  ASSERT_TRUE(server.Start().ok());
  server.RegisterMethod(
      "echo", [](const CallContext&, const Bytes& body) -> util::Result<Bytes> {
        return body;
      });
  RpcClient client(&network, "client");

  // N overlapped calls cost exactly 1 RTT, not N.
  constexpr int kCalls = 8;
  const std::int64_t t0 = network.clock()->NowMicros();
  std::vector<RpcClient::AsyncCall> calls;
  for (int i = 0; i < kCalls; ++i) {
    calls.push_back(client.CallAsync("server", "echo",
                                     AsBytes(util::Format("c%d", i)),
                                     1'000'000));
  }
  // Waiting on each handle in turn: the first wait's pumping delivers
  // every reply, so the later waits find theirs already resolved.
  for (int i = 0; i < kCalls; ++i) {
    util::Result<Bytes> result = calls[i].Wait();
    ASSERT_TRUE(result.ok()) << i;
    EXPECT_EQ(AsString(*result), util::Format("c%d", i));
  }
  // 1 RTT = 6 ms; the serialized cost would be 48 ms.
  EXPECT_EQ(network.clock()->NowMicros() - t0, 6'000);
}

TEST(ScheduledRpcTest, WaitAnyUntilReturnsOnFirstCompletion) {
  Network network(DeliveryMode::kVirtual);
  LinkModel fast;
  fast.latency_micros = 1'000;
  LinkModel slow;
  slow.latency_micros = 40'000;
  RpcServer fast_server(&network, "fast");
  RpcServer slow_server(&network, "slow");
  ASSERT_TRUE(fast_server.Start().ok());
  ASSERT_TRUE(slow_server.Start().ok());
  auto echo = [](const CallContext&,
                 const Bytes& body) -> util::Result<Bytes> { return body; };
  fast_server.RegisterMethod("echo", echo);
  slow_server.RegisterMethod("echo", echo);
  network.SetLink("client", "fast", fast);
  network.SetLink("fast", "client", fast);
  network.SetLink("client", "slow", slow);
  network.SetLink("slow", "client", slow);
  RpcClient client(&network, "client");

  RpcClient::AsyncCall a = client.CallAsync("fast", "echo", AsBytes("a"));
  RpcClient::AsyncCall b = client.CallAsync("slow", "echo", AsBytes("b"));
  const std::vector<RpcClient::AsyncCall*> both = {&a, &b};
  // A wake time before any arrival ends the wait there, nothing resolved.
  client.WaitAnyUntil(both, 500);
  EXPECT_EQ(network.clock()->NowMicros(), 500);
  util::Result<Bytes> first = util::Internal("unset");
  EXPECT_FALSE(a.TryResolve(&first));
  // The wait then returns at the fast call's arrival: 1 fast RTT.
  client.WaitAnyUntil(both, 1'000'000);
  EXPECT_EQ(network.clock()->NowMicros(), 2'000);
  EXPECT_TRUE(a.TryResolve(&first));  // fast call resolved the wait
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(AsString(*first), "a");
  util::Result<Bytes> second = util::Internal("unset");
  EXPECT_FALSE(b.TryResolve(&second));  // slow call still in flight
  EXPECT_TRUE(b.Wait().ok());
  EXPECT_EQ(network.clock()->NowMicros(), 80'000);
}

TEST(ScheduledRpcTest, AsyncCallWaitHonorsDeadline) {
  Network network(DeliveryMode::kVirtual);
  RpcServer server(&network, "server");
  ASSERT_TRUE(server.Start().ok());
  server.RegisterMethod(
      "echo", [](const CallContext&, const Bytes& body) -> util::Result<Bytes> {
        return body;
      });
  RpcClient client(&network, "client");
  network.SetLinkUp("client", "server", false);
  RpcClient::AsyncCall call =
      client.CallAsync("server", "echo", AsBytes("x"), 15'000);
  EXPECT_EQ(call.Wait().status().code(), ErrorCode::kTimeout);
  EXPECT_EQ(network.clock()->NowMicros(), 15'000);
}

// --- latency-bearing links, in virtual time -----------------------------------

TEST(ScheduledNetworkTest, RpcOverRealLatency) {
  // "Real" latency: unlike kImmediate, which only records the link delay,
  // the modeled delay elapses on the virtual timeline.
  Network network(DeliveryMode::kVirtual);
  LinkModel model;
  model.latency_micros = 2000;  // 2 ms each way
  network.SetDefaultLink(model);

  RpcServer server(&network, "server");
  ASSERT_TRUE(server.Start().ok());
  server.RegisterMethod(
      "echo", [](const CallContext&, const Bytes& body) -> util::Result<Bytes> {
        return body;
      });
  RpcClient client(&network, "client");

  auto result = client.Call("server", "echo", AsBytes("hi"), 1'000'000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(AsString(*result), "hi");
  EXPECT_EQ(network.clock()->NowMicros(), 4'000);  // exactly one RTT
}

TEST(ScheduledNetworkTest, CallTimesOutInRealTime) {
  Network network(DeliveryMode::kVirtual);
  RpcServer server(&network, "server");
  ASSERT_TRUE(server.Start().ok());
  server.RegisterMethod(
      "echo", [](const CallContext&, const Bytes& body) -> util::Result<Bytes> {
        return body;
      });
  RpcClient client(&network, "client");
  network.SetLinkUp("client", "server", false);
  auto result = client.Call("server", "echo", AsBytes("x"), 20'000);
  EXPECT_EQ(result.status().code(), ErrorCode::kTimeout);
  EXPECT_EQ(network.clock()->NowMicros(), 20'000);  // at the deadline
}

TEST(ScheduledNetworkTest, QuiesceWaitsForInFlight) {
  Network network(DeliveryMode::kVirtual);
  int received = 0;
  ASSERT_TRUE(
      network.RegisterEndpoint("sink", [&](const Message&) { ++received; })
          .ok());
  LinkModel model;
  model.latency_micros = 5000;
  network.SetDefaultLink(model);
  for (int i = 0; i < 10; ++i) {
    (void)network.Send(MakeMessage("src", "sink"));
  }
  EXPECT_EQ(received, 0);  // all ten still in flight
  EXPECT_EQ(network.RunUntilQuiescent(), 10u);
  EXPECT_EQ(received, 10);
  EXPECT_EQ(network.clock()->NowMicros(), 5'000);
}

TEST(ScheduledNetworkTest, MessagesArriveInLatencyOrder) {
  Network network(DeliveryMode::kVirtual);
  std::vector<std::pair<std::string, std::int64_t>> arrivals;
  ASSERT_TRUE(network
                  .RegisterEndpoint("sink",
                                    [&](const Message& message) {
                                      arrivals.emplace_back(
                                          message.method.str(),
                                          network.clock()->NowMicros());
                                    })
                  .ok());
  LinkModel slow;
  slow.latency_micros = 20'000;
  LinkModel fast;
  fast.latency_micros = 1'000;
  network.SetLink("slow_src", "sink", slow);
  network.SetLink("fast_src", "sink", fast);

  (void)network.Send(
      MakeMessage("slow_src", "sink", "slow"));
  (void)network.Send(
      MakeMessage("fast_src", "sink", "fast"));
  network.RunUntilQuiescent();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], std::make_pair(std::string("fast"),
                                        std::int64_t{1'000}));
  EXPECT_EQ(arrivals[1], std::make_pair(std::string("slow"),
                                        std::int64_t{20'000}));
}

// --- virtual-time delivery (DeliveryMode::kVirtual) --------------------------

TEST(VirtualNetworkTest, DeliversInTimestampOrderAndAdvancesClock) {
  Network network(DeliveryMode::kVirtual);
  std::vector<std::string> order;
  ASSERT_TRUE(network
                  .RegisterEndpoint("sink",
                                    [&](const Message& message) {
                                      order.push_back(message.method.str());
                                    })
                  .ok());
  LinkModel slow;
  slow.latency_micros = 20'000;
  LinkModel fast;
  fast.latency_micros = 1'000;
  network.SetLink("slow_src", "sink", slow);
  network.SetLink("fast_src", "sink", fast);

  ASSERT_TRUE(network.Send(MakeMessage("slow_src", "sink", "slow")).ok());
  ASSERT_TRUE(network.Send(MakeMessage("fast_src", "sink", "fast")).ok());
  EXPECT_TRUE(order.empty());  // nothing delivered until the loop runs

  EXPECT_EQ(network.RunUntilQuiescent(), 2u);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "fast");
  EXPECT_EQ(order[1], "slow");
  // The loop advanced virtual time to the last delivery, without sleeping.
  EXPECT_EQ(network.clock()->NowMicros(), 20'000);
  EXPECT_EQ(network.virtual_stats().messages_delivered, 2u);
}

TEST(VirtualNetworkTest, SimultaneousArrivalTieBreakIsSeedDeterministic) {
  // Five messages due at the same instant: the delivery order is random
  // (seeded tie-break) but identical for identical seeds.
  auto run = [](std::uint64_t seed) {
    Network network(DeliveryMode::kVirtual, seed);
    std::vector<std::string> order;
    (void)network.RegisterEndpoint(
        "sink", [&](const Message& message) { order.push_back(message.method.str()); });
    LinkModel link;
    link.latency_micros = 5'000;
    for (int i = 0; i < 5; ++i) {
      network.SetLink(util::Format("src%d", i), "sink", link);
    }
    for (int i = 0; i < 5; ++i) {
      (void)network.Send(MakeMessage(util::Format("src%d", i), "sink",
                                     util::Format("m%d", i)));
    }
    network.RunUntilQuiescent();
    return order;
  };
  EXPECT_EQ(run(7), run(7));
  // Across a handful of seeds at least one ordering must differ (5! = 120
  // possible orders; identical results for all would mean the tie-break
  // ignores the seed).
  const std::vector<std::string> base = run(7);
  bool any_differs = false;
  for (std::uint64_t seed = 8; seed <= 15 && !any_differs; ++seed) {
    any_differs = run(seed) != base;
  }
  EXPECT_TRUE(any_differs);
}

TEST(VirtualNetworkTest, TimersInterleaveWithMessagesInTimestampOrder) {
  Network network(DeliveryMode::kVirtual);
  std::vector<std::string> order;
  (void)network.RegisterEndpoint(
      "sink", [&](const Message& message) { order.push_back(message.method.str()); });
  LinkModel link;
  link.latency_micros = 10'000;
  network.SetLink("src", "sink", link);

  network.ScheduleAt(5'000, [&] { order.push_back("t5"); });
  network.ScheduleAt(15'000, [&] { order.push_back("t15"); });
  (void)network.Send(MakeMessage("src", "sink", "m10"));

  network.RunUntilQuiescent();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "t5");
  EXPECT_EQ(order[1], "m10");
  EXPECT_EQ(order[2], "t15");
  EXPECT_EQ(network.virtual_stats().timers_fired, 2u);
  EXPECT_EQ(network.virtual_stats().messages_delivered, 1u);
}

/// A capture that counts how often the callable holding it is moved.
struct MoveCounter {
  explicit MoveCounter(int* moves) : moves(moves) {}
  MoveCounter(MoveCounter&& other) noexcept : moves(other.moves) { ++*moves; }
  MoveCounter& operator=(MoveCounter&&) = delete;
  int* moves;
};

/// Moves of one timer's callable from ScheduleAt until it fires, with
/// `depth` timers due before it and `depth` after it in the queue.
int TrackedTimerMoves(int depth) {
  Network network(DeliveryMode::kVirtual);
  int fired = 0;
  for (int i = 0; i < depth; ++i) {
    network.ScheduleAt(2 * i, [&fired] { ++fired; });
  }
  int moves = 0;
  bool ran = false;
  network.ScheduleAt(2 * depth - 1,
                     [counter = MoveCounter(&moves), &ran] { ran = true; });
  for (int i = 0; i < depth; ++i) {
    network.ScheduleAt(2 * (depth + i), [&fired] { ++fired; });
  }
  network.RunUntilQuiescent();
  EXPECT_TRUE(ran);
  EXPECT_EQ(fired, 2 * depth);
  return moves;
}

TEST(VirtualNetworkTest, TimerCallableMovesDoNotGrowWithQueueDepth) {
  // The queue sifts keys; a callable stays in its slot until it fires.
  const int shallow = TrackedTimerMoves(1);
  EXPECT_LE(shallow, 3);
  EXPECT_EQ(TrackedTimerMoves(2'000), shallow);
}

TEST(VirtualNetworkTest, ScheduleAfterIsRelativeToVirtualNow) {
  Network network(DeliveryMode::kVirtual);
  EXPECT_EQ(network.AdvanceTo(10'000), 0u);
  EXPECT_EQ(network.clock()->NowMicros(), 10'000);

  std::int64_t fired_at = -1;
  network.ScheduleAfter(5'000, [&] { fired_at = network.clock()->NowMicros(); });
  network.RunUntilQuiescent();
  EXPECT_EQ(fired_at, 15'000);
}

TEST(VirtualNetworkTest, DropNextDropsAtSendUnderVirtual) {
  Network network(DeliveryMode::kVirtual);
  std::vector<std::string> order;
  (void)network.RegisterEndpoint(
      "sink", [&](const Message& message) { order.push_back(message.method.str()); });
  network.DropNext("src", "sink", 1);
  (void)network.Send(MakeMessage("src", "sink", "first"));
  (void)network.Send(MakeMessage("src", "sink", "second"));
  network.RunUntilQuiescent();
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], "second");
  EXPECT_EQ(network.LinkMetricsFor("src", "sink").dropped_forced, 1u);
}

TEST(VirtualNetworkTest, MessageInFlightWhenOutageOpensIsDropped) {
  // Satellite coverage: scheduled before an outage opens, arriving inside
  // it. Outage checks re-run at the *arrival* timestamp under kVirtual.
  Network network(DeliveryMode::kVirtual);
  std::vector<std::string> order;
  (void)network.RegisterEndpoint(
      "sink", [&](const Message& message) { order.push_back(message.method.str()); });
  LinkModel link;
  link.latency_micros = 15'000;
  network.SetLink("src", "sink", link);
  network.AddOutage("src", "sink", OutageWindow{10'000, 30'000});

  // Sent at t=0 (outage not yet open), arrives at t=15'000 (inside).
  ASSERT_TRUE(network.Send(MakeMessage("src", "sink", "m")).ok());
  network.RunUntilQuiescent();
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(network.LinkMetricsFor("src", "sink").dropped_outage, 1u);
  EXPECT_EQ(network.virtual_stats().messages_dropped_in_flight, 1u);
}

TEST(VirtualNetworkTest, ArrivalExactlyAtOutageCloseIsDelivered) {
  // OutageWindow.end_micros is exclusive: an arrival stamped exactly at the
  // close must get through.
  Network network(DeliveryMode::kVirtual);
  std::vector<std::string> order;
  (void)network.RegisterEndpoint(
      "sink", [&](const Message& message) { order.push_back(message.method.str()); });
  LinkModel link;
  link.latency_micros = 15'000;
  network.SetLink("src", "sink", link);
  network.AddOutage("src", "sink", OutageWindow{5'000, 15'000});

  ASSERT_TRUE(network.Send(MakeMessage("src", "sink", "m")).ok());
  network.RunUntilQuiescent();
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(network.LinkMetricsFor("src", "sink").delivered, 1u);
  EXPECT_EQ(network.LinkMetricsFor("src", "sink").dropped_outage, 0u);
}

TEST(VirtualNetworkTest, RpcTimesOutInVirtualTimeWithoutWallWait) {
  Network network(DeliveryMode::kVirtual);
  // A sink that swallows requests: the call can only end by timeout.
  (void)network.RegisterEndpoint("blackhole", [](const Message&) {});
  RpcClient client(&network, "cli");

  util::Stopwatch watch;
  util::Result<Bytes> result =
      client.Call("blackhole", "noop", {}, /*timeout_micros=*/2'000'000);
  EXPECT_EQ(result.status().code(), ErrorCode::kTimeout);
  // Two virtual seconds elapsed; wall time stayed far below that.
  EXPECT_GE(network.clock()->NowMicros(), 2'000'000);
  EXPECT_LT(watch.ElapsedSeconds(), 1.0);
}

TEST(VirtualNetworkTest, HandlerMayScheduleAndSendRecursively) {
  Network network(DeliveryMode::kVirtual);
  std::vector<std::string> order;
  LinkModel link;
  link.latency_micros = 1'000;
  network.SetDefaultLink(link);
  (void)network.RegisterEndpoint("b", [&](const Message& message) {
    order.push_back("b:" + message.method.str());
  });
  (void)network.RegisterEndpoint("a", [&](const Message& message) {
    order.push_back("a:" + message.method.str());
    // Re-entrant sends and timers from inside a delivery.
    (void)network.Send(MakeMessage("a", "b", "fwd"));
    network.ScheduleAfter(500, [&] { order.push_back("timer"); });
  });
  (void)network.Send(MakeMessage("x", "a", "start"));
  network.RunUntilQuiescent();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "a:start");
  EXPECT_EQ(order[1], "timer");   // due t=1'500
  EXPECT_EQ(order[2], "b:fwd");   // due t=2'000
}

}  // namespace
}  // namespace nees::net
