// NEESgrid Streaming Data Service (NSDS, §2.2 and TR-2003-09): "a
// best-effort stream of real-time data from the data acquisition system".
//
// Publishers push sample frames into the server; every subscriber whose
// channel filter matches receives the frame as a one-way message with a
// per-subscriber sequence number. Frames lost in the network are simply
// gone — subscribers detect gaps from sequence jumps, and the complete data
// set is available later from the repository (the paper's two-path design).
// Optional per-subscriber decimation sheds load for slow observers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"

#include "net/rpc.h"
#include "util/result.h"

namespace nees::obs {
class Tracer;
}  // namespace nees::obs

namespace nees::nsds {

struct DataSample {
  std::string channel;       // e.g. "uiuc.lvdt1"
  std::int64_t time_micros = 0;
  double value = 0.0;

  bool operator==(const DataSample&) const = default;
};

struct DataFrame {
  std::uint64_t sequence = 0;  // per-subscriber sequence number
  std::vector<DataSample> samples;
};

void EncodeFrame(const DataFrame& frame, util::ByteWriter& writer);
util::Result<DataFrame> DecodeFrame(util::ByteReader& reader);

struct PublisherStats {
  std::uint64_t frames_published = 0;
  std::uint64_t samples_published = 0;
  std::uint64_t frames_sent = 0;      // across all subscribers
  std::uint64_t frames_decimated = 0; // skipped by decimation policy
};

class NsdsServer {
 public:
  NsdsServer(net::Network* network, std::string endpoint);

  util::Status Start();
  void Stop();

  /// Publishes a frame of samples to all matching subscribers.
  void Publish(const std::vector<DataSample>& samples);

  /// Local subscription management (also reachable via RPC below).
  /// `decimation` N>1 delivers every Nth matching frame to this subscriber.
  void AddSubscriber(const std::string& subscriber_endpoint,
                     const std::string& channel_prefix, int decimation = 1);
  void RemoveSubscriber(const std::string& subscriber_endpoint);
  std::size_t subscriber_count() const;

  PublisherStats stats() const;
  const std::string& endpoint() const { return rpc_server_.endpoint(); }

  /// Optional: records one "stream" event per published frame.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct Subscriber {
    std::string endpoint;
    std::string channel_prefix;
    int decimation = 1;
    std::uint64_t next_sequence = 0;
    std::uint64_t matching_frames = 0;
  };

  net::Network* network_;
  net::RpcServer rpc_server_;
  obs::Tracer* tracer_ = nullptr;
  mutable util::Mutex mu_{"nsds.NsdsServer"};
  std::vector<Subscriber> subscribers_ NEES_GUARDED_BY(mu_);
  PublisherStats stats_ NEES_GUARDED_BY(mu_);
};

struct SubscriberStats {
  std::uint64_t frames_received = 0;
  std::uint64_t samples_received = 0;
  std::uint64_t gaps_detected = 0;     // sequence discontinuities
  std::uint64_t frames_lost = 0;       // total missing sequence numbers
};

/// Receives frames at its own endpoint; keeps the latest value per channel
/// and loss statistics (the CHEF data viewer reads from one of these).
class NsdsSubscriber {
 public:
  using FrameCallback = std::function<void(const DataFrame&)>;

  NsdsSubscriber(net::Network* network, std::string endpoint);

  /// Subscribes to a (possibly remote) NSDS server via RPC.
  util::Status SubscribeTo(const std::string& server_endpoint,
                           const std::string& channel_prefix,
                           int decimation = 1);

  /// Optional hook invoked per received frame.
  void SetFrameCallback(FrameCallback callback);

  /// Latest value per channel seen so far.
  std::map<std::string, DataSample> Latest() const;
  /// Forgets the latest value of every channel whose name starts with
  /// `prefix`.
  void DropChannels(std::string_view prefix);
  SubscriberStats stats() const;
  const std::string& endpoint() const { return rpc_server_.endpoint(); }

 private:
  void HandleFrame(const net::Bytes& body);

  net::RpcClient rpc_client_;
  net::RpcServer rpc_server_;
  mutable util::Mutex mu_{"nsds.NsdsSubscriber"};
  std::map<std::string, DataSample> latest_ NEES_GUARDED_BY(mu_);
  SubscriberStats stats_ NEES_GUARDED_BY(mu_);
  std::uint64_t expected_sequence_ NEES_GUARDED_BY(mu_) = 0;
  bool saw_any_ NEES_GUARDED_BY(mu_) = false;
  FrameCallback callback_ NEES_GUARDED_BY(mu_);
};

}  // namespace nees::nsds
