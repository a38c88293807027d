#include "grid/registry.h"

#include <algorithm>

#include "grid/tenant.h"
#include "net/endpoint.h"
#include "util/strings.h"

namespace nees::grid {
namespace {

constexpr std::string_view kSdePrefix = "reg.";

std::uint32_t InternedId(std::string_view name) {
  return net::EndpointTable::Instance().Intern(name);
}

void EncodeRegistration(const Registration& registration,
                        util::ByteWriter& writer) {
  writer.WriteString(registration.service_name);
  writer.WriteString(registration.endpoint);
  writer.WriteString(registration.type);
  writer.WriteString(registration.site);
  writer.WriteI64(registration.expires_micros);
}

util::Result<Registration> DecodeRegistration(util::ByteReader& reader) {
  Registration registration;
  NEES_ASSIGN_OR_RETURN(registration.service_name, reader.ReadString());
  NEES_ASSIGN_OR_RETURN(registration.endpoint, reader.ReadString());
  NEES_ASSIGN_OR_RETURN(registration.type, reader.ReadString());
  NEES_ASSIGN_OR_RETURN(registration.site, reader.ReadString());
  NEES_ASSIGN_OR_RETURN(registration.expires_micros, reader.ReadI64());
  return registration;
}

}  // namespace

RegistryService::RegistryService(util::Clock* clock)
    : GridService("registry"), clock_(clock) {
  // The SDE mirror is flushed lazily just before any OGSI read: remote
  // inspection is rare next to per-tenant (re-)registration traffic, so
  // writes touch only the open-addressed table.
  SetRefreshHook([this] { RefreshSdes(); });
}

SdeValue RegistryService::ToSde(const Registration& registration) const {
  SdeValue value;
  value.Set("endpoint", registration.endpoint);
  value.Set("type", registration.type);
  value.Set("site", registration.site);
  value.Set("expires", std::to_string(registration.expires_micros));
  return value;
}

void RegistryService::RefreshSdes() {
  std::vector<Registration> live;
  std::vector<std::string> removed;
  {
    util::MutexLock lock(table_mu_);
    if (!sdes_stale_) return;
    sdes_stale_ = false;
    live.reserve(entries_.size());
    entries_.ForEach([&](std::uint32_t id, const Registration& entry) {
      live.push_back(entry);
      mirrored_[id] = true;
    });
    removed = std::move(removed_names_);
    removed_names_.clear();
  }
  // SDE writes happen outside table_mu_: subscription callbacks (and, via a
  // hosting container, best-effort notify sends) run under no registry lock.
  for (const std::string& name : removed) {
    RemoveServiceData(std::string(kSdePrefix) + name);
  }
  for (const Registration& entry : live) {
    SetServiceData(std::string(kSdePrefix) + entry.service_name,
                   ToSde(entry));
  }
}

void RegistryService::Register(const Registration& registration,
                               std::int64_t lease_micros) {
  Registration entry = registration;
  entry.expires_micros =
      lease_micros == 0 ? 0 : clock_->NowMicros() + lease_micros;
  const std::uint32_t id = InternedId(entry.service_name);
  // With live SDE subscribers the mirror publishes eagerly so change
  // notifications still fire once per (re-)registration.
  const bool eager = HasSdeSubscribers();
  {
    util::MutexLock lock(table_mu_);
    entries_[id] = entry;
    sdes_stale_ = true;
    if (eager) mirrored_[id] = true;
  }
  if (eager) {
    SetServiceData(std::string(kSdePrefix) + entry.service_name,
                   ToSde(entry));
  }
}

util::Status RegistryService::Unregister(const std::string& service_name) {
  const std::uint32_t id = InternedId(service_name);
  const bool eager = HasSdeSubscribers();
  {
    util::MutexLock lock(table_mu_);
    if (!entries_.Erase(id)) {
      return util::NotFound("not registered: " + service_name);
    }
    sdes_stale_ = true;
    // A never-published name has no SDE to remove; the eager path below
    // removes a published one now.
    if (mirrored_.Erase(id) && !eager) removed_names_.push_back(service_name);
  }
  if (eager) {
    RemoveServiceData(std::string(kSdePrefix) + service_name);
  }
  return util::OkStatus();
}

std::optional<Registration> RegistryService::LookupEntry(
    const std::string& service_name) {
  const std::uint32_t id = InternedId(service_name);
  util::MutexLock lock(table_mu_);
  const Registration* entry = entries_.Find(id);
  if (entry == nullptr) return std::nullopt;
  if (entry->expires_micros != 0 &&
      clock_->NowMicros() >= entry->expires_micros) {
    return std::nullopt;
  }
  return *entry;
}

std::vector<Registration> RegistryService::Query(const std::string& type) {
  const std::int64_t now = clock_->NowMicros();
  std::vector<Registration> results;
  {
    util::MutexLock lock(table_mu_);
    entries_.ForEach([&](std::uint32_t, const Registration& entry) {
      if (entry.expires_micros != 0 && now >= entry.expires_micros) return;
      if (!type.empty() && entry.type != type) return;
      results.push_back(entry);
    });
  }
  std::sort(results.begin(), results.end(),
            [](const Registration& a, const Registration& b) {
              return a.service_name < b.service_name;
            });
  return results;
}

int RegistryService::SweepExpired() {
  const std::int64_t now = clock_->NowMicros();
  std::vector<std::string> doomed;
  {
    util::MutexLock lock(table_mu_);
    entries_.ForEach([&](std::uint32_t, const Registration& entry) {
      if (entry.expires_micros != 0 && now >= entry.expires_micros) {
        doomed.push_back(entry.service_name);
      }
    });
  }
  for (const std::string& name : doomed) (void)Unregister(name);
  return static_cast<int>(doomed.size());
}

int RegistryService::UnregisterTenant(std::string_view tenant) {
  std::vector<std::string> doomed;
  {
    util::MutexLock lock(table_mu_);
    entries_.ForEach([&](std::uint32_t, const Registration& entry) {
      if (TenantOf(entry.service_name) == tenant) {
        doomed.push_back(entry.service_name);
      }
    });
  }
  for (const std::string& name : doomed) (void)Unregister(name);
  return static_cast<int>(doomed.size());
}

std::size_t RegistryService::entry_count() const {
  util::MutexLock lock(table_mu_);
  return entries_.size();
}

std::size_t RegistryService::pending_sde_removals() const {
  util::MutexLock lock(table_mu_);
  return removed_names_.size();
}

void RegistryService::BindRpc(ServiceContainer& container) {
  container.rpc().RegisterMethod(
      "registry.register",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(Registration registration,
                              DecodeRegistration(reader));
        NEES_ASSIGN_OR_RETURN(std::int64_t lease, reader.ReadI64());
        Register(registration, lease);
        return net::Bytes{};
      });
  container.rpc().RegisterMethod(
      "registry.unregister",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
        NEES_RETURN_IF_ERROR(Unregister(name));
        return net::Bytes{};
      });
  container.rpc().RegisterMethod(
      "registry.query",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string type, reader.ReadString());
        const auto results = Query(type);
        util::ByteWriter writer;
        writer.WriteU32(static_cast<std::uint32_t>(results.size()));
        for (const auto& registration : results) {
          EncodeRegistration(registration, writer);
        }
        return writer.Take();
      });
}

RegistryClient::RegistryClient(net::RpcClient* rpc,
                               std::string registry_endpoint)
    : rpc_(rpc), registry_endpoint_(std::move(registry_endpoint)) {}

util::Status RegistryClient::Register(const Registration& registration,
                                      std::int64_t lease_micros) {
  util::ByteWriter writer;
  EncodeRegistration(registration, writer);
  writer.WriteI64(lease_micros);
  return rpc_->Call(registry_endpoint_, "registry.register", writer.Take())
      .status();
}

util::Status RegistryClient::Unregister(const std::string& service_name) {
  util::ByteWriter writer;
  writer.WriteString(service_name);
  return rpc_->Call(registry_endpoint_, "registry.unregister", writer.Take())
      .status();
}

util::Result<std::vector<Registration>> RegistryClient::Query(
    const std::string& type) {
  util::ByteWriter writer;
  writer.WriteString(type);
  NEES_ASSIGN_OR_RETURN(
      net::Bytes response,
      rpc_->Call(registry_endpoint_, "registry.query", writer.Take()));
  util::ByteReader reader(response);
  NEES_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadU32());
  std::vector<Registration> results;
  for (std::uint32_t i = 0; i < count; ++i) {
    NEES_ASSIGN_OR_RETURN(Registration registration,
                          DecodeRegistration(reader));
    results.push_back(std::move(registration));
  }
  return results;
}

}  // namespace nees::grid
