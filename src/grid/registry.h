// Service registry with soft-state registrations: NEESgrid resources
// (NTCP servers, repositories, DAQ bridges) register themselves with a
// lease; entries that are not renewed disappear. This is the index-service
// analog the virtual-organization story (§1) relies on for discovery.
//
// Storage: registrations live in an open-addressed table keyed by the
// interned service name — the farm host resolves every per-tenant endpoint
// through here, so lookups must cost a probe, not a tree walk plus SDE
// decode. The OGSI inspection path still sees one "reg.<name>" SDE per
// entry; with no SDE subscribers the mirror is materialised lazily via the
// publish-on-read refresh hook instead of on every (re-)registration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "grid/container.h"
#include "grid/service.h"
#include "util/open_hash.h"

namespace nees::grid {

struct Registration {
  std::string service_name;  // e.g. "ntcp.uiuc" or "t0042/ntcp.uiuc"
  std::string endpoint;      // network endpoint of the resource
  std::string type;          // e.g. "ntcp", "repository", "nsds"
  std::string site;          // e.g. "UIUC", "CU", "NCSA"
  std::int64_t expires_micros = 0;  // 0 = never
};

/// GridService that stores registrations as SDEs ("reg.<name>") so the
/// standard OGSI inspection path doubles as a discovery query.
class RegistryService final : public GridService {
 public:
  explicit RegistryService(util::Clock* clock);

  /// Adds/renews an entry; lease 0 means no expiry.
  void Register(const Registration& registration, std::int64_t lease_micros);
  util::Status Unregister(const std::string& service_name);

  std::optional<Registration> LookupEntry(const std::string& service_name);
  /// Entries of a given type (all if empty), skipping expired ones,
  /// sorted by service name.
  std::vector<Registration> Query(const std::string& type);

  /// Removes expired entries; returns count removed.
  int SweepExpired();

  /// Removes every entry of one experiment namespace (farm reap);
  /// returns count removed.
  int UnregisterTenant(std::string_view tenant);

  std::size_t entry_count() const;
  /// Mirror SDEs queued for removal at the next publish-on-read flush.
  /// Only names whose SDE was published are queued, so a host that never
  /// reads registry service data queues nothing.
  std::size_t pending_sde_removals() const;

  /// Binds registry.* RPC methods on the container hosting this service.
  void BindRpc(ServiceContainer& container);

 private:
  SdeValue ToSde(const Registration& registration) const;

  /// Mirrors the table into the SDE map (publish-on-read flush). No-op
  /// unless a registration changed since the last flush.
  void RefreshSdes();

  util::Clock* clock_;
  mutable util::Mutex table_mu_{"grid.RegistryService"};
  util::OpenHashMap<std::uint32_t, Registration> entries_
      NEES_GUARDED_BY(table_mu_);
  bool sdes_stale_ NEES_GUARDED_BY(table_mu_) = false;
  /// Ids whose "reg.<name>" SDE is published, by a flush or the eager
  /// subscriber path; only these need a removal when unregistered.
  util::OpenHashMap<std::uint32_t, bool> mirrored_ NEES_GUARDED_BY(table_mu_);
  /// Mirrored names unregistered since the last flush (their SDEs must go).
  std::vector<std::string> removed_names_ NEES_GUARDED_BY(table_mu_);
};

/// Remote client for a registry hosted in a container.
class RegistryClient {
 public:
  RegistryClient(net::RpcClient* rpc, std::string registry_endpoint);

  util::Status Register(const Registration& registration,
                        std::int64_t lease_micros);
  util::Status Unregister(const std::string& service_name);
  util::Result<std::vector<Registration>> Query(const std::string& type);

 private:
  net::RpcClient* rpc_;
  std::string registry_endpoint_;
};

}  // namespace nees::grid
