#include "nsds/nsds.h"

#include "obs/trace.h"
#include "util/strings.h"

namespace nees::nsds {

void EncodeFrame(const DataFrame& frame, util::ByteWriter& writer) {
  writer.WriteU64(frame.sequence);
  writer.WriteU32(static_cast<std::uint32_t>(frame.samples.size()));
  for (const DataSample& sample : frame.samples) {
    writer.WriteString(sample.channel);
    writer.WriteI64(sample.time_micros);
    writer.WriteDouble(sample.value);
  }
}

util::Result<DataFrame> DecodeFrame(util::ByteReader& reader) {
  DataFrame frame;
  NEES_ASSIGN_OR_RETURN(frame.sequence, reader.ReadU64());
  NEES_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadU32());
  for (std::uint32_t i = 0; i < count; ++i) {
    DataSample sample;
    NEES_ASSIGN_OR_RETURN(sample.channel, reader.ReadString());
    NEES_ASSIGN_OR_RETURN(sample.time_micros, reader.ReadI64());
    NEES_ASSIGN_OR_RETURN(sample.value, reader.ReadDouble());
    frame.samples.push_back(std::move(sample));
  }
  return frame;
}

NsdsServer::NsdsServer(net::Network* network, std::string endpoint)
    : network_(network), rpc_server_(network, std::move(endpoint)) {}

util::Status NsdsServer::Start() {
  NEES_RETURN_IF_ERROR(rpc_server_.Start());
  rpc_server_.RegisterMethod(
      "nsds.subscribe",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string endpoint, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(std::string prefix, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(std::uint32_t decimation, reader.ReadU32());
        AddSubscriber(endpoint, prefix,
                      std::max<std::uint32_t>(decimation, 1));
        return net::Bytes{};
      });
  rpc_server_.RegisterMethod(
      "nsds.unsubscribe",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string endpoint, reader.ReadString());
        RemoveSubscriber(endpoint);
        return net::Bytes{};
      });
  return util::OkStatus();
}

void NsdsServer::Stop() { rpc_server_.Stop(); }

void NsdsServer::AddSubscriber(const std::string& subscriber_endpoint,
                               const std::string& channel_prefix,
                               int decimation) {
  util::MutexLock lock(mu_);
  // Re-subscription replaces the filter but keeps the sequence counter.
  for (Subscriber& subscriber : subscribers_) {
    if (subscriber.endpoint == subscriber_endpoint) {
      subscriber.channel_prefix = channel_prefix;
      subscriber.decimation = decimation;
      return;
    }
  }
  subscribers_.push_back(
      {subscriber_endpoint, channel_prefix, decimation, 0, 0});
}

void NsdsServer::RemoveSubscriber(const std::string& subscriber_endpoint) {
  util::MutexLock lock(mu_);
  std::erase_if(subscribers_, [&](const Subscriber& subscriber) {
    return subscriber.endpoint == subscriber_endpoint;
  });
}

std::size_t NsdsServer::subscriber_count() const {
  util::MutexLock lock(mu_);
  return subscribers_.size();
}

void NsdsServer::Publish(const std::vector<DataSample>& samples) {
  struct Delivery {
    std::string endpoint;
    DataFrame frame;
  };
  std::vector<Delivery> deliveries;
  {
    util::MutexLock lock(mu_);
    ++stats_.frames_published;
    stats_.samples_published += samples.size();
    for (Subscriber& subscriber : subscribers_) {
      DataFrame frame;
      for (const DataSample& sample : samples) {
        if (util::StartsWith(sample.channel, subscriber.channel_prefix)) {
          frame.samples.push_back(sample);
        }
      }
      if (frame.samples.empty()) continue;
      ++subscriber.matching_frames;
      if (subscriber.decimation > 1 &&
          (subscriber.matching_frames - 1) %
                  static_cast<std::uint64_t>(subscriber.decimation) !=
              0) {
        ++stats_.frames_decimated;
        continue;
      }
      frame.sequence = subscriber.next_sequence++;
      ++stats_.frames_sent;
      deliveries.push_back({subscriber.endpoint, std::move(frame)});
    }
  }
  if (tracer_ != nullptr) {
    tracer_->RecordEvent(
        "nsds.publish", "stream", 0,
        {{"samples", samples.size()}, {"deliveries", deliveries.size()}});
    tracer_->metrics().Increment("nsds.frames_published");
    tracer_->metrics().Increment(
        "nsds.frames_sent", static_cast<std::int64_t>(deliveries.size()));
  }
  // Best effort: send outside the lock; losses are invisible to the server.
  for (const Delivery& delivery : deliveries) {
    util::ByteWriter writer;
    EncodeFrame(delivery.frame, writer);
    net::Message message;
    message.from = rpc_server_.endpoint();
    message.to = delivery.endpoint;
    message.kind = net::MessageKind::kOneWay;
    message.method = "nsds.data";
    message.payload = net::EncodeRequestEnvelope("", writer.Take());
    (void)network_->Send(std::move(message));
  }
}

PublisherStats NsdsServer::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// NsdsSubscriber

NsdsSubscriber::NsdsSubscriber(net::Network* network, std::string endpoint)
    : rpc_client_(network, endpoint + ".ctl"),
      rpc_server_(network, endpoint) {
  (void)rpc_server_.Start();
  rpc_server_.RegisterOneWay(
      "nsds.data", [this](const net::CallContext&, const net::Bytes& body) {
        HandleFrame(body);
      });
}

util::Status NsdsSubscriber::SubscribeTo(const std::string& server_endpoint,
                                         const std::string& channel_prefix,
                                         int decimation) {
  util::ByteWriter writer;
  writer.WriteString(rpc_server_.endpoint());
  writer.WriteString(channel_prefix);
  writer.WriteU32(static_cast<std::uint32_t>(decimation));
  return rpc_client_.Call(server_endpoint, "nsds.subscribe", writer.Take())
      .status();
}

void NsdsSubscriber::SetFrameCallback(FrameCallback callback) {
  util::MutexLock lock(mu_);
  callback_ = std::move(callback);
}

void NsdsSubscriber::HandleFrame(const net::Bytes& body) {
  util::ByteReader reader(body);
  auto frame = DecodeFrame(reader);
  if (!frame.ok()) return;

  FrameCallback callback;
  {
    util::MutexLock lock(mu_);
    ++stats_.frames_received;
    stats_.samples_received += frame->samples.size();
    if (saw_any_ && frame->sequence != expected_sequence_) {
      ++stats_.gaps_detected;
      if (frame->sequence > expected_sequence_) {
        stats_.frames_lost += frame->sequence - expected_sequence_;
      }
    }
    saw_any_ = true;
    expected_sequence_ = frame->sequence + 1;
    for (const DataSample& sample : frame->samples) {
      latest_[sample.channel] = sample;
    }
    callback = callback_;
  }
  if (callback) callback(*frame);
}

std::map<std::string, DataSample> NsdsSubscriber::Latest() const {
  util::MutexLock lock(mu_);
  return latest_;
}

void NsdsSubscriber::DropChannels(std::string_view prefix) {
  util::MutexLock lock(mu_);
  std::erase_if(latest_, [&](const auto& entry) {
    return util::StartsWith(entry.first, prefix);
  });
}

SubscriberStats NsdsSubscriber::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

}  // namespace nees::nsds
