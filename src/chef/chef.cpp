#include "chef/chef.h"

#include <algorithm>

#include "daq/daq.h"
#include "repo/facade.h"
#include "util/strings.h"
#include "util/uuid.h"

namespace nees::chef {

// ---------------------------------------------------------------------------
// DataViewerStore

void DataViewerStore::Feed(const nsds::DataSample& sample) {
  util::MutexLock lock(mu_);
  series_[sample.channel].push_back({sample.time_micros, sample.value});
}

void DataViewerStore::FeedFrame(const nsds::DataFrame& frame) {
  util::MutexLock lock(mu_);
  for (const nsds::DataSample& sample : frame.samples) {
    series_[sample.channel].push_back({sample.time_micros, sample.value});
  }
}

std::vector<TimePoint> DataViewerStore::Series(const std::string& channel,
                                               std::size_t max_points) const {
  util::MutexLock lock(mu_);
  auto it = series_.find(channel);
  if (it == series_.end()) return {};
  const auto& points = it->second;
  if (points.size() <= max_points) return points;
  return {points.end() - static_cast<std::ptrdiff_t>(max_points),
          points.end()};
}

std::vector<std::pair<double, double>> DataViewerStore::Hysteresis(
    const std::string& displacement_channel, const std::string& force_channel,
    std::size_t max_points) const {
  util::MutexLock lock(mu_);
  auto d_it = series_.find(displacement_channel);
  auto f_it = series_.find(force_channel);
  if (d_it == series_.end() || f_it == series_.end()) return {};

  // Pair samples with identical timestamps (both channels are produced by
  // the same step observer, so timestamps align exactly).
  std::vector<std::pair<double, double>> loop;
  std::size_t fi = 0;
  for (const TimePoint& d : d_it->second) {
    while (fi < f_it->second.size() &&
           f_it->second[fi].time_micros < d.time_micros) {
      ++fi;
    }
    if (fi < f_it->second.size() &&
        f_it->second[fi].time_micros == d.time_micros) {
      loop.emplace_back(d.value, f_it->second[fi].value);
    }
  }
  if (loop.size() > max_points) {
    loop.erase(loop.begin(),
               loop.end() - static_cast<std::ptrdiff_t>(max_points));
  }
  return loop;
}

std::size_t DataViewerStore::SampleCount(const std::string& channel) const {
  util::MutexLock lock(mu_);
  auto it = series_.find(channel);
  return it == series_.end() ? 0 : it->second.size();
}

std::vector<std::string> DataViewerStore::Channels() const {
  util::MutexLock lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, points] : series_) {
    (void)points;
    names.push_back(name);
  }
  return names;
}

void DataViewerStore::DropChannels(std::string_view prefix) {
  util::MutexLock lock(mu_);
  std::erase_if(series_, [&](const auto& entry) {
    return util::StartsWith(entry.first, prefix);
  });
}

// ---------------------------------------------------------------------------
// ChefServer

ChefServer::ChefServer(net::Network* network, std::string endpoint,
                       util::Clock* clock)
    : rpc_server_(network, std::move(endpoint)), clock_(clock) {}

void ChefServer::ConnectStream(nsds::NsdsSubscriber& subscriber) {
  subscriber.SetFrameCallback(
      [this](const nsds::DataFrame& frame) { viewer_.FeedFrame(frame); });
}

util::Result<std::size_t> ChefServer::LoadArchivedData(
    net::RpcClient* rpc, const std::string& https_bridge,
    const std::string& logical_name) {
  NEES_ASSIGN_OR_RETURN(repo::Bytes content,
                        repo::HttpsGet(rpc, https_bridge, logical_name));
  NEES_ASSIGN_OR_RETURN(
      std::vector<nsds::DataSample> samples,
      daq::ParseDropCsv(std::string_view(
          reinterpret_cast<const char*>(content.data()), content.size())));
  for (const nsds::DataSample& sample : samples) viewer_.Feed(sample);
  return samples.size();
}

util::Result<ChefServer::Session*> ChefServer::FindSessionLocked(
    const std::string& session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return util::Unauthenticated("no such CHEF session");
  }
  return &it->second;
}

std::vector<std::string> ChefServer::ActiveUsers() const {
  util::MutexLock lock(mu_);
  std::vector<std::string> users;
  users.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    (void)id;
    users.push_back(session.user);
  }
  std::sort(users.begin(), users.end());
  return users;
}

ChefStats ChefServer::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

util::Status ChefServer::Start() {
  NEES_RETURN_IF_ERROR(rpc_server_.Start());

  rpc_server_.RegisterMethod(
      "chef.login",
      [this](const net::CallContext& context,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string user, reader.ReadString());
        // A GSI-authenticated subject overrides the claimed user name.
        if (!context.subject.empty()) user = context.subject;
        if (user.empty()) return util::InvalidArgument("user required");
        util::MutexLock lock(mu_);
        const std::string session_id =
            "chef-" + std::to_string(next_session_++) + "-" + util::NewUuid();
        sessions_[session_id] = Session{user, 0, false};
        ++stats_.logins;
        stats_.peak_concurrent =
            std::max<std::uint64_t>(stats_.peak_concurrent, sessions_.size());
        util::ByteWriter writer;
        writer.WriteString(session_id);
        return writer.Take();
      });

  rpc_server_.RegisterMethod(
      "chef.logout",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string session, reader.ReadString());
        util::MutexLock lock(mu_);
        if (sessions_.erase(session) == 0) {
          return util::Unauthenticated("no such CHEF session");
        }
        return net::Bytes{};
      });

  rpc_server_.RegisterMethod(
      "chef.presence",
      [this](const net::CallContext&,
             const net::Bytes&) -> util::Result<net::Bytes> {
        const auto users = ActiveUsers();
        util::ByteWriter writer;
        writer.WriteU32(static_cast<std::uint32_t>(users.size()));
        for (const std::string& user : users) writer.WriteString(user);
        return writer.Take();
      });

  rpc_server_.RegisterMethod(
      "chef.chat.post",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string session, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(std::string room, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(std::string text, reader.ReadString());
        util::MutexLock lock(mu_);
        NEES_ASSIGN_OR_RETURN(Session * session_ptr,
                              FindSessionLocked(session));
        chat_.push_back(
            {room, session_ptr->user, text, clock_->NowMicros()});
        ++stats_.chat_messages;
        return net::Bytes{};
      });

  rpc_server_.RegisterMethod(
      "chef.chat.history",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string room, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(std::uint32_t from, reader.ReadU32());
        util::MutexLock lock(mu_);
        util::ByteWriter writer;
        std::vector<const ChatMessage*> matching;
        for (const ChatMessage& message : chat_) {
          if (message.room == room) matching.push_back(&message);
        }
        const std::size_t start = std::min<std::size_t>(from, matching.size());
        writer.WriteU32(static_cast<std::uint32_t>(matching.size() - start));
        for (std::size_t i = start; i < matching.size(); ++i) {
          writer.WriteString(matching[i]->user);
          writer.WriteString(matching[i]->text);
          writer.WriteI64(matching[i]->time_micros);
        }
        return writer.Take();
      });

  rpc_server_.RegisterMethod(
      "chef.board.post",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string session, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(std::string topic, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(std::string text, reader.ReadString());
        util::MutexLock lock(mu_);
        NEES_ASSIGN_OR_RETURN(Session * session_ptr,
                              FindSessionLocked(session));
        board_.push_back(
            {topic, session_ptr->user, text, clock_->NowMicros()});
        return net::Bytes{};
      });

  rpc_server_.RegisterMethod(
      "chef.board.read",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string topic, reader.ReadString());
        util::MutexLock lock(mu_);
        util::ByteWriter writer;
        std::vector<const BoardPost*> matching;
        for (const BoardPost& post : board_) {
          if (post.topic == topic) matching.push_back(&post);
        }
        writer.WriteU32(static_cast<std::uint32_t>(matching.size()));
        for (const BoardPost* post : matching) {
          writer.WriteString(post->user);
          writer.WriteString(post->text);
          writer.WriteI64(post->time_micros);
        }
        return writer.Take();
      });

  rpc_server_.RegisterMethod(
      "chef.notebook.append",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string session, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(std::string text, reader.ReadString());
        util::MutexLock lock(mu_);
        NEES_ASSIGN_OR_RETURN(Session * session_ptr,
                              FindSessionLocked(session));
        notebook_.push_back({session_ptr->user, text, clock_->NowMicros()});
        return net::Bytes{};
      });

  rpc_server_.RegisterMethod(
      "chef.notebook.read",
      [this](const net::CallContext&,
             const net::Bytes&) -> util::Result<net::Bytes> {
        util::MutexLock lock(mu_);
        util::ByteWriter writer;
        writer.WriteU32(static_cast<std::uint32_t>(notebook_.size()));
        for (const NotebookEntry& entry : notebook_) {
          writer.WriteString(entry.user);
          writer.WriteString(entry.text);
          writer.WriteI64(entry.time_micros);
        }
        return writer.Take();
      });

  rpc_server_.RegisterMethod(
      "chef.viewer.series",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string channel, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(std::uint32_t max_points, reader.ReadU32());
        const auto points = viewer_.Series(channel, max_points);
        {
          util::MutexLock lock(mu_);
          ++stats_.viewer_reads;
        }
        util::ByteWriter writer;
        writer.WriteU32(static_cast<std::uint32_t>(points.size()));
        for (const TimePoint& point : points) {
          writer.WriteI64(point.time_micros);
          writer.WriteDouble(point.value);
        }
        return writer.Take();
      });

  rpc_server_.RegisterMethod(
      "chef.viewer.hysteresis",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string d_channel, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(std::string f_channel, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(std::uint32_t max_points, reader.ReadU32());
        const auto loop = viewer_.Hysteresis(d_channel, f_channel, max_points);
        {
          util::MutexLock lock(mu_);
          ++stats_.viewer_reads;
        }
        util::ByteWriter writer;
        writer.WriteU32(static_cast<std::uint32_t>(loop.size()));
        for (const auto& [d, f] : loop) {
          writer.WriteDouble(d);
          writer.WriteDouble(f);
        }
        return writer.Take();
      });

  rpc_server_.RegisterMethod(
      "chef.viewer.vcr",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string session, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(std::uint8_t raw_command, reader.ReadU8());
        NEES_ASSIGN_OR_RETURN(std::string channel, reader.ReadString());
        if (raw_command > static_cast<std::uint8_t>(VcrCommand::kSeekEnd)) {
          return util::InvalidArgument("bad VCR command");
        }
        const auto command = static_cast<VcrCommand>(raw_command);
        const std::size_t total = viewer_.SampleCount(channel);

        util::MutexLock lock(mu_);
        NEES_ASSIGN_OR_RETURN(Session * session_ptr,
                              FindSessionLocked(session));
        switch (command) {
          case VcrCommand::kPlay:
            session_ptr->playing = true;
            break;
          case VcrCommand::kPause:
            session_ptr->playing = false;
            break;
          case VcrCommand::kRewind:
            session_ptr->vcr_cursor =
                session_ptr->vcr_cursor >= 10 ? session_ptr->vcr_cursor - 10
                                              : 0;
            break;
          case VcrCommand::kFastForward:
            session_ptr->vcr_cursor =
                std::min(session_ptr->vcr_cursor + 10,
                         total == 0 ? 0 : total - 1);
            break;
          case VcrCommand::kStep:
            if (session_ptr->playing && total > 0) {
              session_ptr->vcr_cursor =
                  std::min(session_ptr->vcr_cursor + 1, total - 1);
            }
            break;
          case VcrCommand::kSeekStart:
            session_ptr->vcr_cursor = 0;
            break;
          case VcrCommand::kSeekEnd:
            session_ptr->vcr_cursor = total == 0 ? 0 : total - 1;
            break;
        }
        util::ByteWriter writer;
        writer.WriteU64(session_ptr->vcr_cursor);
        return writer.Take();
      });

  rpc_server_.RegisterMethod(
      "chef.viewer.at",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string session, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(std::string channel, reader.ReadString());
        std::size_t cursor = 0;
        {
          util::MutexLock lock(mu_);
          NEES_ASSIGN_OR_RETURN(Session * session_ptr,
                                FindSessionLocked(session));
          cursor = session_ptr->vcr_cursor;
        }
        const auto points =
            viewer_.Series(channel, std::numeric_limits<std::size_t>::max());
        if (points.empty()) return util::NotFound("no data for " + channel);
        const TimePoint& point = points[std::min(cursor, points.size() - 1)];
        util::ByteWriter writer;
        writer.WriteI64(point.time_micros);
        writer.WriteDouble(point.value);
        return writer.Take();
      });

  rpc_server_.RegisterMethod(
      "chef.viewer.saveArrangement",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string session, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadU32());
        ViewArrangement arrangement;
        arrangement.name = name;
        for (std::uint32_t i = 0; i < count; ++i) {
          NEES_ASSIGN_OR_RETURN(std::string channel, reader.ReadString());
          arrangement.channels.push_back(std::move(channel));
        }
        if (arrangement.channels.empty()) {
          return util::InvalidArgument("arrangement needs >= 1 view");
        }
        util::MutexLock lock(mu_);
        NEES_ASSIGN_OR_RETURN(Session * session_ptr,
                              FindSessionLocked(session));
        arrangement.creator = session_ptr->user;
        arrangements_[name] = std::move(arrangement);
        return net::Bytes{};
      });

  rpc_server_.RegisterMethod(
      "chef.viewer.listArrangements",
      [this](const net::CallContext&,
             const net::Bytes&) -> util::Result<net::Bytes> {
        util::MutexLock lock(mu_);
        util::ByteWriter writer;
        writer.WriteU32(static_cast<std::uint32_t>(arrangements_.size()));
        for (const auto& [name, arrangement] : arrangements_) {
          (void)arrangement;
          writer.WriteString(name);
        }
        return writer.Take();
      });

  rpc_server_.RegisterMethod(
      "chef.viewer.openArrangement",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
        ViewArrangement arrangement;
        {
          util::MutexLock lock(mu_);
          auto it = arrangements_.find(name);
          if (it == arrangements_.end()) {
            return util::NotFound("no arrangement named " + name);
          }
          arrangement = it->second;
        }
        // "The Data Viewer automatically organizes a given arrangement":
        // return each view with its freshest sample.
        util::ByteWriter writer;
        writer.WriteU32(
            static_cast<std::uint32_t>(arrangement.channels.size()));
        for (const std::string& channel : arrangement.channels) {
          writer.WriteString(channel);
          const auto points = viewer_.Series(channel, 1);
          writer.WriteBool(!points.empty());
          if (!points.empty()) {
            writer.WriteI64(points.back().time_micros);
            writer.WriteDouble(points.back().value);
          }
        }
        return writer.Take();
      });

  return util::OkStatus();
}

// ---------------------------------------------------------------------------
// ChefClient

ChefClient::ChefClient(net::Network* network, std::string endpoint,
                       std::string chef_server)
    : rpc_(network, std::move(endpoint)), server_(std::move(chef_server)) {}

util::Status ChefClient::Login(const std::string& user) {
  util::ByteWriter writer;
  writer.WriteString(user);
  NEES_ASSIGN_OR_RETURN(net::Bytes reply,
                        rpc_.Call(server_, "chef.login", writer.Take()));
  util::ByteReader reader(reply);
  NEES_ASSIGN_OR_RETURN(session_, reader.ReadString());
  return util::OkStatus();
}

util::Status ChefClient::Logout() {
  util::ByteWriter writer;
  writer.WriteString(session_);
  NEES_RETURN_IF_ERROR(rpc_.Call(server_, "chef.logout", writer.Take())
                           .status());
  session_.clear();
  return util::OkStatus();
}

util::Status ChefClient::PostChat(const std::string& room,
                                  const std::string& text) {
  util::ByteWriter writer;
  writer.WriteString(session_);
  writer.WriteString(room);
  writer.WriteString(text);
  return rpc_.Call(server_, "chef.chat.post", writer.Take()).status();
}

util::Result<std::vector<ChatMessage>> ChefClient::ChatHistory(
    const std::string& room, std::size_t from) {
  util::ByteWriter writer;
  writer.WriteString(room);
  writer.WriteU32(static_cast<std::uint32_t>(from));
  NEES_ASSIGN_OR_RETURN(
      net::Bytes reply,
      rpc_.Call(server_, "chef.chat.history", writer.Take()));
  util::ByteReader reader(reply);
  NEES_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadU32());
  std::vector<ChatMessage> messages;
  for (std::uint32_t i = 0; i < count; ++i) {
    ChatMessage message;
    message.room = room;
    NEES_ASSIGN_OR_RETURN(message.user, reader.ReadString());
    NEES_ASSIGN_OR_RETURN(message.text, reader.ReadString());
    NEES_ASSIGN_OR_RETURN(message.time_micros, reader.ReadI64());
    messages.push_back(std::move(message));
  }
  return messages;
}

util::Status ChefClient::PostBoard(const std::string& topic,
                                   const std::string& text) {
  util::ByteWriter writer;
  writer.WriteString(session_);
  writer.WriteString(topic);
  writer.WriteString(text);
  return rpc_.Call(server_, "chef.board.post", writer.Take()).status();
}

util::Result<std::vector<BoardPost>> ChefClient::ReadBoard(
    const std::string& topic) {
  util::ByteWriter writer;
  writer.WriteString(topic);
  NEES_ASSIGN_OR_RETURN(net::Bytes reply,
                        rpc_.Call(server_, "chef.board.read", writer.Take()));
  util::ByteReader reader(reply);
  NEES_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadU32());
  std::vector<BoardPost> posts;
  for (std::uint32_t i = 0; i < count; ++i) {
    BoardPost post;
    post.topic = topic;
    NEES_ASSIGN_OR_RETURN(post.user, reader.ReadString());
    NEES_ASSIGN_OR_RETURN(post.text, reader.ReadString());
    NEES_ASSIGN_OR_RETURN(post.time_micros, reader.ReadI64());
    posts.push_back(std::move(post));
  }
  return posts;
}

util::Status ChefClient::AppendNotebook(const std::string& text) {
  util::ByteWriter writer;
  writer.WriteString(session_);
  writer.WriteString(text);
  return rpc_.Call(server_, "chef.notebook.append", writer.Take()).status();
}

util::Result<std::vector<NotebookEntry>> ChefClient::ReadNotebook() {
  NEES_ASSIGN_OR_RETURN(net::Bytes reply,
                        rpc_.Call(server_, "chef.notebook.read", {}));
  util::ByteReader reader(reply);
  NEES_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadU32());
  std::vector<NotebookEntry> entries;
  for (std::uint32_t i = 0; i < count; ++i) {
    NotebookEntry entry;
    NEES_ASSIGN_OR_RETURN(entry.user, reader.ReadString());
    NEES_ASSIGN_OR_RETURN(entry.text, reader.ReadString());
    NEES_ASSIGN_OR_RETURN(entry.time_micros, reader.ReadI64());
    entries.push_back(std::move(entry));
  }
  return entries;
}

util::Result<std::vector<std::string>> ChefClient::Presence() {
  NEES_ASSIGN_OR_RETURN(net::Bytes reply,
                        rpc_.Call(server_, "chef.presence", {}));
  util::ByteReader reader(reply);
  NEES_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadU32());
  std::vector<std::string> users;
  for (std::uint32_t i = 0; i < count; ++i) {
    NEES_ASSIGN_OR_RETURN(std::string user, reader.ReadString());
    users.push_back(std::move(user));
  }
  return users;
}

util::Result<std::vector<TimePoint>> ChefClient::ViewerSeries(
    const std::string& channel, std::size_t max) {
  util::ByteWriter writer;
  writer.WriteString(channel);
  writer.WriteU32(static_cast<std::uint32_t>(max));
  NEES_ASSIGN_OR_RETURN(
      net::Bytes reply,
      rpc_.Call(server_, "chef.viewer.series", writer.Take()));
  util::ByteReader reader(reply);
  NEES_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadU32());
  std::vector<TimePoint> points;
  for (std::uint32_t i = 0; i < count; ++i) {
    TimePoint point;
    NEES_ASSIGN_OR_RETURN(point.time_micros, reader.ReadI64());
    NEES_ASSIGN_OR_RETURN(point.value, reader.ReadDouble());
    points.push_back(point);
  }
  return points;
}

util::Result<std::vector<std::pair<double, double>>>
ChefClient::ViewerHysteresis(const std::string& displacement_channel,
                             const std::string& force_channel,
                             std::size_t max) {
  util::ByteWriter writer;
  writer.WriteString(displacement_channel);
  writer.WriteString(force_channel);
  writer.WriteU32(static_cast<std::uint32_t>(max));
  NEES_ASSIGN_OR_RETURN(
      net::Bytes reply,
      rpc_.Call(server_, "chef.viewer.hysteresis", writer.Take()));
  util::ByteReader reader(reply);
  NEES_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadU32());
  std::vector<std::pair<double, double>> loop;
  for (std::uint32_t i = 0; i < count; ++i) {
    NEES_ASSIGN_OR_RETURN(double d, reader.ReadDouble());
    NEES_ASSIGN_OR_RETURN(double f, reader.ReadDouble());
    loop.emplace_back(d, f);
  }
  return loop;
}

util::Result<std::size_t> ChefClient::Vcr(VcrCommand command) {
  util::ByteWriter writer;
  writer.WriteString(session_);
  writer.WriteU8(static_cast<std::uint8_t>(command));
  writer.WriteString("most.displacement");
  NEES_ASSIGN_OR_RETURN(net::Bytes reply,
                        rpc_.Call(server_, "chef.viewer.vcr", writer.Take()));
  util::ByteReader reader(reply);
  NEES_ASSIGN_OR_RETURN(std::uint64_t cursor, reader.ReadU64());
  return static_cast<std::size_t>(cursor);
}

util::Result<TimePoint> ChefClient::ViewAt(const std::string& channel) {
  util::ByteWriter writer;
  writer.WriteString(session_);
  writer.WriteString(channel);
  NEES_ASSIGN_OR_RETURN(net::Bytes reply,
                        rpc_.Call(server_, "chef.viewer.at", writer.Take()));
  util::ByteReader reader(reply);
  TimePoint point;
  NEES_ASSIGN_OR_RETURN(point.time_micros, reader.ReadI64());
  NEES_ASSIGN_OR_RETURN(point.value, reader.ReadDouble());
  return point;
}

util::Status ChefClient::SaveArrangement(
    const std::string& name, const std::vector<std::string>& channels) {
  util::ByteWriter writer;
  writer.WriteString(session_);
  writer.WriteString(name);
  writer.WriteU32(static_cast<std::uint32_t>(channels.size()));
  for (const std::string& channel : channels) writer.WriteString(channel);
  return rpc_.Call(server_, "chef.viewer.saveArrangement", writer.Take())
      .status();
}

util::Result<std::vector<std::string>> ChefClient::ListArrangements() {
  NEES_ASSIGN_OR_RETURN(
      net::Bytes reply,
      rpc_.Call(server_, "chef.viewer.listArrangements", {}));
  util::ByteReader reader(reply);
  NEES_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadU32());
  std::vector<std::string> names;
  for (std::uint32_t i = 0; i < count; ++i) {
    NEES_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    names.push_back(std::move(name));
  }
  return names;
}

util::Result<std::vector<std::pair<std::string, TimePoint>>>
ChefClient::OpenArrangement(const std::string& name) {
  util::ByteWriter writer;
  writer.WriteString(name);
  NEES_ASSIGN_OR_RETURN(
      net::Bytes reply,
      rpc_.Call(server_, "chef.viewer.openArrangement", writer.Take()));
  util::ByteReader reader(reply);
  NEES_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadU32());
  std::vector<std::pair<std::string, TimePoint>> views;
  for (std::uint32_t i = 0; i < count; ++i) {
    NEES_ASSIGN_OR_RETURN(std::string channel, reader.ReadString());
    NEES_ASSIGN_OR_RETURN(bool has_data, reader.ReadBool());
    TimePoint point;
    if (has_data) {
      NEES_ASSIGN_OR_RETURN(point.time_micros, reader.ReadI64());
      NEES_ASSIGN_OR_RETURN(point.value, reader.ReadDouble());
    }
    views.emplace_back(std::move(channel), point);
  }
  return views;
}

// ---------------------------------------------------------------------------
// ParticipantSwarm

SwarmReport RunParticipantSwarm(net::Network* network,
                                const std::string& chef_server,
                                int participants, int actions_per_user) {
  SwarmReport report;
  report.participants = participants;
  std::vector<std::unique_ptr<ChefClient>> clients;
  for (int i = 0; i < participants; ++i) {
    auto client = std::make_unique<ChefClient>(
        network, "participant." + std::to_string(i), chef_server);
    if (!client->Login("user" + std::to_string(i)).ok()) {
      ++report.failures;
      continue;
    }
    for (int action = 0; action < actions_per_user; ++action) {
      if (action % 3 == 0) {
        if (client->PostChat("most", "observing step data").ok()) {
          ++report.chat_posts;
        } else {
          ++report.failures;
        }
      } else {
        if (client->ViewerSeries("most.displacement", 100).ok()) {
          ++report.viewer_reads;
        } else {
          ++report.failures;
        }
      }
    }
    clients.push_back(std::move(client));  // stay logged in (presence)
  }
  return report;
}

}  // namespace nees::chef
