// The experiment farm: one grid host running hundreds of concurrent NEES
// experiments. The paper runs MOST as the lone tenant of the grid; the farm
// inverts that — a single process hosts shared fabric (one network, one
// OGSI container, one registry, one NSDS stream server, one CHEF
// collaboration server) and schedules many namespaced experiment sessions
// over it:
//
//   Admit(spec)  assign a tenant namespace slot ("t0042")
//   RunAll()     place every session's services on the shared fabric,
//                then drive the sessions on a worker pool; the worker
//                that ran a session reaps its soft state (container
//                services, registry leases, endpoints and their links,
//                streamed channels), so the join leaves the host at its
//                baseline
//
// Concurrent tenants never share names: every endpoint, registry entry,
// and data channel is "<tenant>/<base>" (grid/tenant.h), so one
// EndpointTable id space and one container table carry the whole farm.
// Because the reap leaves nothing behind, the next wave reuses the slot
// names, and a host running waves indefinitely interns no more names than
// its largest wave needs. RunScaledSwarm fans thousands of scripted CHEF
// participants over the shared NSDS stream — the "over 130 remote
// participants" story at two orders of magnitude.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "chef/chef.h"
#include "grid/container.h"
#include "grid/registry.h"
#include "nsds/nsds.h"
#include "obs/trace.h"
#include "psd/coordinator.h"
#include "structural/integrator.h"

namespace nees::farm {

enum class SessionKind : std::uint8_t {
  kMiniMost = 0,   // kinetic-sim Mini-MOST: the density workhorse
  kMost = 1,       // the full three-site MOST assembly
  kCentrifuge = 2, // teleoperated centrifuge campaign
};

std::string_view SessionKindName(SessionKind kind);

struct SessionSpec {
  SessionKind kind = SessionKind::kMiniMost;
  /// PSD steps (MOST/Mini-MOST) or piles (centrifuge); 0 = farm default.
  std::size_t steps = 0;
  std::uint64_t seed = 0;  // 0 = derived from the lifetime admission count
};

struct SessionResult {
  std::string tenant;
  SessionKind kind = SessionKind::kMiniMost;
  bool ok = false;
  std::string error;
  std::size_t steps_completed = 0;
  /// FNV-1a digest of the session's history (displacement record for the
  /// PSD shapes, measured control points for the centrifuge) — the
  /// determinism handle for farm-vs-standalone comparisons.
  std::uint64_t history_digest = 0;
  /// Full displacement record, kept only when FarmOptions::keep_histories
  /// is set (bit-identity tests); empty otherwise.
  structural::TimeHistory history;
};

struct FarmOptions {
  /// Worker threads driving admitted sessions.
  std::size_t workers = 4;
  /// Defaults for SessionSpec::steps == 0.
  std::size_t mini_steps = 80;
  std::size_t most_steps = 200;
  std::size_t centrifuge_piles = 2;
  /// Registry lease for tenant registrations; 0 = no expiry.
  std::int64_t registry_lease_micros = 0;
  /// Keep each session's full TimeHistory in its result.
  bool keep_histories = false;
  /// Installed once on the shared network at Start(); tenants run with a
  /// null tracer so they cannot stomp it. Must outlive the farm.
  obs::Tracer* tracer = nullptr;
};

struct FarmReport {
  std::size_t admitted = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  double wall_seconds = 0.0;
  double experiments_per_sec = 0.0;
  /// Container services / registry entries with every tenant placed, and
  /// after the reap (the latter should equal the host baseline).
  std::size_t peak_services = 0;
  std::size_t peak_registrations = 0;
  std::size_t services_after_reap = 0;
  std::size_t registrations_after_reap = 0;
  /// Process-wide interned endpoint names after the run (endpoint-identity
  /// footprint of the tenancy level).
  std::size_t endpoints_interned = 0;
  std::vector<SessionResult> sessions;
};

class ExperimentFarm {
 public:
  // Host fabric endpoints (un-namespaced: the farm is the host, not a
  // tenant).
  static constexpr const char* kContainer = "container.farm";
  static constexpr const char* kNsds = "nsds.farm";
  static constexpr const char* kChef = "chef.farm";
  static constexpr const char* kViewer = "viewer.farm";

  ExperimentFarm(net::Network* network, util::Clock* clock,
                 FarmOptions options);
  ~ExperimentFarm();

  /// Brings up the shared fabric: container + registry, NSDS server, CHEF
  /// server with its viewer store wired to the shared stream.
  util::Status Start();
  void Stop();

  /// Admits a session and returns its tenant namespace. Names are slots
  /// in the pending wave: "t0000" for the first admission after RunAll,
  /// then "t0001", ..., so successive waves reuse the same names. Default
  /// seeds still come from the lifetime admission count, so the n-th
  /// session this farm ever admitted gets the same seed whatever the wave
  /// boundaries.
  std::string Admit(SessionSpec spec);
  std::size_t admitted() const { return specs_.size(); }

  /// Places, runs, and reaps every admitted session; clears the admission
  /// queue. Callable repeatedly for successive waves.
  util::Result<FarmReport> RunAll();

  grid::ServiceContainer* container() { return container_.get(); }
  grid::RegistryService* registry() { return registry_.get(); }
  nsds::NsdsServer* nsds() { return nsds_.get(); }
  chef::ChefServer* chef() { return chef_.get(); }
  net::Network* network() { return network_; }

  /// Host-fabric service/registration counts (the reap baseline).
  std::size_t baseline_services() const;
  std::size_t baseline_registrations() const;

 private:
  struct Tenant;

  util::Status PlaceSession(Tenant& tenant);
  void RunSession(Tenant& tenant);
  /// Stops and destroys the session and drops its "<tenant>/" channels
  /// from the shared viewers. Runs on the worker that ran the session.
  void ReapSession(Tenant& tenant);

  net::Network* network_;
  util::Clock* clock_;
  FarmOptions options_;

  std::unique_ptr<grid::ServiceContainer> container_;
  std::shared_ptr<grid::RegistryService> registry_;
  std::unique_ptr<nsds::NsdsServer> nsds_;
  std::unique_ptr<chef::ChefServer> chef_;
  std::unique_ptr<nsds::NsdsSubscriber> viewer_sub_;

  std::vector<SessionSpec> specs_;
  std::size_t next_tenant_ = 0;  // lifetime admissions (default seeds)
  bool started_ = false;
};

/// Scaled CHEF participation: `participants` scripted viewers, each with a
/// unique endpoint ("swarm.<i>"), sharded over `shards` threads against one
/// CHEF server. The action mix matches chef::RunParticipantSwarm (chat
/// posts + viewer series reads); reports are summed across shards.
struct SwarmOptions {
  int participants = 1000;
  int actions_per_user = 3;
  std::size_t shards = 8;
  /// Channel the viewer reads target (under a farm, a tenant-qualified
  /// channel such as "t0000/most.displacement").
  std::string channel = "most.displacement";
};

chef::SwarmReport RunScaledSwarm(net::Network* network,
                                 const std::string& chef_server,
                                 const SwarmOptions& options);

}  // namespace nees::farm
