// CHEF-based collaboration environment (§3, Fig. 8): remote participants
// log in, chat, keep an electronic notebook and message board, and watch
// near-real-time data viewers — time series, hysteresis plots, and a
// VCR-style playback cursor (play/pause/rewind/fast-forward over the
// recorded response). During MOST "over 130 remote participants logged on";
// ParticipantSwarm reproduces that load.
//
// RPC surface (all session-scoped calls carry the session id):
//   chef.login {user}                  -> {session}
//   chef.logout {session}
//   chef.presence {}                   -> {active users}
//   chef.chat.post {session, room, text}
//   chef.chat.history {room, from}     -> [messages]
//   chef.board.post {session, topic, text}
//   chef.board.read {topic}            -> [posts]
//   chef.notebook.append {session, text}
//   chef.notebook.read {}              -> [entries]
//   chef.viewer.series {channel, max}  -> [(t, v)]
//   chef.viewer.hysteresis {d, f, max} -> [(d, f)]
//   chef.viewer.vcr {session, command} -> {cursor}
//   chef.viewer.at {session, channel}  -> {t, v}
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"

#include "net/rpc.h"
#include "nsds/nsds.h"
#include "util/clock.h"
#include "util/result.h"

namespace nees::chef {

struct ChatMessage {
  std::string room;
  std::string user;
  std::string text;
  std::int64_t time_micros = 0;
};

struct BoardPost {
  std::string topic;
  std::string user;
  std::string text;
  std::int64_t time_micros = 0;
};

struct NotebookEntry {
  std::string user;
  std::string text;
  std::int64_t time_micros = 0;
};

struct TimePoint {
  std::int64_t time_micros = 0;
  double value = 0.0;
};

/// A saved set of views (Fig. 8: "Arrangements of one or more views can be
/// saved or viewed, and the Data Viewer automatically organizes a given
/// arrangement").
struct ViewArrangement {
  std::string name;
  std::string creator;
  std::vector<std::string> channels;
};

enum class VcrCommand : std::uint8_t {
  kPlay = 0,
  kPause = 1,
  kRewind = 2,
  kFastForward = 3,
  kStep = 4,       // advance one sample (play mode ticks)
  kSeekStart = 5,
  kSeekEnd = 6,
};

/// Aggregated time-series store behind the viewers.
class DataViewerStore {
 public:
  void Feed(const nsds::DataSample& sample);
  void FeedFrame(const nsds::DataFrame& frame);

  std::vector<TimePoint> Series(const std::string& channel,
                                std::size_t max_points) const;
  /// Pairs displacement/force samples by timestamp for hysteresis plots.
  std::vector<std::pair<double, double>> Hysteresis(
      const std::string& displacement_channel,
      const std::string& force_channel, std::size_t max_points) const;
  std::size_t SampleCount(const std::string& channel) const;
  std::vector<std::string> Channels() const;
  /// Forgets every channel whose name starts with `prefix` (a reaped farm
  /// tenant's "<tenant>/" series).
  void DropChannels(std::string_view prefix);

 private:
  mutable util::Mutex mu_{"chef.DataViewerStore"};
  std::map<std::string, std::vector<TimePoint>> series_;
};

struct ChefStats {
  std::uint64_t logins = 0;
  std::uint64_t peak_concurrent = 0;
  std::uint64_t chat_messages = 0;
  std::uint64_t viewer_reads = 0;
};

class ChefServer {
 public:
  ChefServer(net::Network* network, std::string endpoint,
             util::Clock* clock = &util::SystemClock::Instance());

  util::Status Start();

  /// Wires the viewer store to a live NSDS subscription.
  void ConnectStream(nsds::NsdsSubscriber& subscriber);

  /// Downloads an archived DAQ file from the repository through the https
  /// bridge and loads its samples into the viewers (§3: "access the
  /// metadata catalog and download experimental data so that it could be
  /// viewed immediately by remote participants"). Returns samples loaded.
  util::Result<std::size_t> LoadArchivedData(net::RpcClient* rpc,
                                             const std::string& https_bridge,
                                             const std::string& logical_name);

  DataViewerStore& viewer() { return viewer_; }
  const std::string& endpoint() const { return rpc_server_.endpoint(); }

  std::vector<std::string> ActiveUsers() const;
  ChefStats stats() const;
  net::RpcServer& rpc() { return rpc_server_; }

 private:
  struct Session {
    std::string user;
    std::size_t vcr_cursor = 0;
    bool playing = false;
  };

  util::Result<Session*> FindSessionLocked(const std::string& session_id);

  net::RpcServer rpc_server_;
  util::Clock* clock_;
  DataViewerStore viewer_;
  mutable util::Mutex mu_{"chef.ChefServer"};
  std::map<std::string, Session> sessions_;
  std::map<std::string, ViewArrangement> arrangements_;
  std::vector<ChatMessage> chat_;
  std::vector<BoardPost> board_;
  std::vector<NotebookEntry> notebook_;
  ChefStats stats_;
  std::uint64_t next_session_ = 1;
};

class ChefClient {
 public:
  ChefClient(net::Network* network, std::string endpoint,
             std::string chef_server);

  util::Status Login(const std::string& user);
  util::Status Logout();
  bool logged_in() const { return !session_.empty(); }

  util::Status PostChat(const std::string& room, const std::string& text);
  util::Result<std::vector<ChatMessage>> ChatHistory(const std::string& room,
                                                     std::size_t from = 0);
  util::Status PostBoard(const std::string& topic, const std::string& text);
  util::Result<std::vector<BoardPost>> ReadBoard(const std::string& topic);
  util::Status AppendNotebook(const std::string& text);
  util::Result<std::vector<NotebookEntry>> ReadNotebook();
  util::Result<std::vector<std::string>> Presence();

  util::Result<std::vector<TimePoint>> ViewerSeries(const std::string& channel,
                                                    std::size_t max = 10000);
  util::Result<std::vector<std::pair<double, double>>> ViewerHysteresis(
      const std::string& displacement_channel,
      const std::string& force_channel, std::size_t max = 10000);
  /// Issues a VCR command; returns the new cursor position.
  util::Result<std::size_t> Vcr(VcrCommand command);
  /// Sample at the current VCR cursor of `channel`.
  util::Result<TimePoint> ViewAt(const std::string& channel);

  /// Saves a named arrangement of views, shared with all participants.
  util::Status SaveArrangement(const std::string& name,
                               const std::vector<std::string>& channels);
  util::Result<std::vector<std::string>> ListArrangements();
  /// Opens an arrangement: each channel with its most recent sample.
  util::Result<std::vector<std::pair<std::string, TimePoint>>>
  OpenArrangement(const std::string& name);

 private:
  net::RpcClient rpc_;
  std::string server_;
  std::string session_;
};

/// Scripted remote-participation load: N users log in, chat, read the
/// viewers, and stay connected (the 130-participant story).
struct SwarmReport {
  int participants = 0;
  int chat_posts = 0;
  int viewer_reads = 0;
  int failures = 0;
};

SwarmReport RunParticipantSwarm(net::Network* network,
                                const std::string& chef_server,
                                int participants, int actions_per_user = 3);

}  // namespace nees::chef
