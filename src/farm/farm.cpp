#include "farm/farm.h"

#include <atomic>
#include <thread>

#include "centrifuge/session.h"
#include "grid/tenant.h"
#include "most/mini_most.h"
#include "most/most.h"
#include "net/endpoint.h"
#include "util/logging.h"
#include "util/strings.h"

namespace nees::farm {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void FnvU64(std::uint64_t& h, std::uint64_t value) {
  for (std::size_t i = 0; i < sizeof(value); ++i) {
    h ^= (value >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

void FnvDouble(std::uint64_t& h, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  __builtin_memcpy(&bits, &value, sizeof(bits));
  FnvU64(h, bits);
}

std::uint64_t HistoryDigest(const structural::TimeHistory& history) {
  std::uint64_t h = kFnvOffset;
  FnvDouble(h, history.dt_seconds);
  FnvU64(h, history.displacement.size());
  for (const structural::Vector& step : history.displacement) {
    for (const double v : step) FnvDouble(h, v);
  }
  return h;
}

}  // namespace

std::string_view SessionKindName(SessionKind kind) {
  switch (kind) {
    case SessionKind::kMiniMost:
      return "mini-most";
    case SessionKind::kMost:
      return "most";
    case SessionKind::kCentrifuge:
      return "centrifuge";
  }
  return "unknown";
}

// One admitted session: its spec, tenant namespace, the (kind-specific)
// live session object while placed, and the outcome.
struct ExperimentFarm::Tenant {
  SessionSpec spec;
  std::string name;
  std::string run_id;
  SessionResult result;

  std::unique_ptr<most::MiniMostExperiment> mini;
  std::unique_ptr<most::MostExperiment> most;
  std::unique_ptr<centrifuge::TeleoperationSession> rig;
};

ExperimentFarm::ExperimentFarm(net::Network* network, util::Clock* clock,
                               FarmOptions options)
    : network_(network), clock_(clock), options_(std::move(options)) {}

ExperimentFarm::~ExperimentFarm() { Stop(); }

util::Status ExperimentFarm::Start() {
  if (started_) return util::OkStatus();
  if (options_.tracer != nullptr) network_->set_tracer(options_.tracer);

  container_ =
      std::make_unique<grid::ServiceContainer>(network_, kContainer, clock_);
  NEES_RETURN_IF_ERROR(container_->Start());
  registry_ = std::make_shared<grid::RegistryService>(clock_);
  NEES_RETURN_IF_ERROR(container_->AddService(registry_).status());
  registry_->BindRpc(*container_);

  nsds_ = std::make_unique<nsds::NsdsServer>(network_, kNsds);
  NEES_RETURN_IF_ERROR(nsds_->Start());
  nsds_->set_tracer(options_.tracer);

  chef_ = std::make_unique<chef::ChefServer>(network_, kChef, clock_);
  NEES_RETURN_IF_ERROR(chef_->Start());
  // The shared viewer store watches every tenant's channels: namespaced
  // channel names keep them disjoint under the one subscription.
  viewer_sub_ = std::make_unique<nsds::NsdsSubscriber>(network_, kViewer);
  NEES_RETURN_IF_ERROR(viewer_sub_->SubscribeTo(kNsds, ""));
  chef_->ConnectStream(*viewer_sub_);

  registry_->Register({"nsds", nsds_->endpoint(), "nsds", "FARM", 0}, 0);
  registry_->Register({"chef", chef_->endpoint(), "chef", "FARM", 0}, 0);

  started_ = true;
  return util::OkStatus();
}

void ExperimentFarm::Stop() {
  if (!started_) return;
  if (nsds_) nsds_->Stop();
  if (container_) container_->Stop();
  started_ = false;
}

std::string ExperimentFarm::Admit(SessionSpec spec) {
  const std::string tenant = util::Format("t%04zu", specs_.size());
  ++next_tenant_;
  specs_.push_back(spec);
  return tenant;
}

std::size_t ExperimentFarm::baseline_services() const {
  // registry only; NTCP/NSDS/CHEF host services live outside the container.
  return 1;
}

std::size_t ExperimentFarm::baseline_registrations() const {
  return 2;  // the host's nsds + chef entries
}

util::Status ExperimentFarm::PlaceSession(Tenant& tenant) {
  switch (tenant.spec.kind) {
    case SessionKind::kMiniMost: {
      most::MiniMostOptions opts;
      opts.steps =
          tenant.spec.steps != 0 ? tenant.spec.steps : options_.mini_steps;
      opts.seed = tenant.spec.seed;
      opts.real_hardware = false;  // kinetic sim: the density workhorse
      opts.experiment_ns = tenant.name;
      opts.shared_container = container_.get();
      opts.shared_registry = registry_.get();
      opts.registry_lease_micros = options_.registry_lease_micros;
      tenant.mini = std::make_unique<most::MiniMostExperiment>(
          network_, clock_, std::move(opts));
      return tenant.mini->Start();
    }
    case SessionKind::kMost: {
      most::MostOptions opts;
      opts.steps =
          tenant.spec.steps != 0 ? tenant.spec.steps : options_.most_steps;
      opts.seed = tenant.spec.seed != 0 ? tenant.spec.seed : opts.seed;
      // Farm tenants travel light: no per-tenant repository/DAQ drop dirs;
      // streaming rides the shared NSDS.
      opts.with_repository = false;
      opts.daq_flush_every_steps = 0;
      opts.experiment_ns = tenant.name;
      opts.shared_container = container_.get();
      opts.shared_registry = registry_.get();
      opts.shared_nsds = nsds_.get();
      tenant.most = std::make_unique<most::MostExperiment>(network_, clock_,
                                                           std::move(opts));
      return tenant.most->Start();
    }
    case SessionKind::kCentrifuge: {
      centrifuge::SessionOptions opts;
      opts.piles = tenant.spec.steps != 0 ? tenant.spec.steps
                                          : options_.centrifuge_piles;
      opts.seed = tenant.spec.seed != 0 ? tenant.spec.seed : opts.seed;
      opts.experiment_ns = tenant.name;
      opts.shared_container = container_.get();
      opts.shared_registry = registry_.get();
      opts.registry_lease_micros = options_.registry_lease_micros;
      tenant.rig = std::make_unique<centrifuge::TeleoperationSession>(
          network_, clock_, std::move(opts));
      return tenant.rig->Start();
    }
  }
  return util::InvalidArgument("unknown session kind");
}

void ExperimentFarm::RunSession(Tenant& tenant) {
  SessionResult& result = tenant.result;
  if (tenant.mini) {
    auto report = tenant.mini->Run(tenant.run_id);
    if (!report.ok()) {
      result.error = report.status().ToString();
      return;
    }
    result.ok = report->completed;
    if (!result.ok) result.error = report->failure.ToString();
    result.steps_completed = report->steps_completed;
    result.history_digest = HistoryDigest(report->history);
    if (options_.keep_histories) result.history = std::move(report->history);
  } else if (tenant.most) {
    auto report =
        tenant.most->Run(psd::FaultPolicy::kFaultTolerant, tenant.run_id);
    if (!report.ok()) {
      result.error = report.status().ToString();
      return;
    }
    result.ok = report->completed;
    if (!result.ok) result.error = report->failure.ToString();
    result.steps_completed = report->steps_completed;
    result.history_digest = HistoryDigest(report->history);
    if (options_.keep_histories) result.history = std::move(report->history);
  } else if (tenant.rig) {
    auto report = tenant.rig->Run();
    if (!report.ok()) {
      result.error = report.status().ToString();
      return;
    }
    result.ok = report->completed;
    result.steps_completed = report->transactions;
    result.history_digest = report->measured_digest;
  }
}

void ExperimentFarm::ReapSession(Tenant& tenant) {
  // The next wave reuses the slot name, so nothing keyed by a qualified
  // name may survive: services, registrations and endpoints go with the
  // session, and the tenant's streamed channels leave the shared viewers.
  if (tenant.mini) tenant.mini->Stop();
  if (tenant.most) tenant.most->Stop();
  if (tenant.rig) tenant.rig->Stop();
  tenant.mini.reset();
  tenant.most.reset();
  tenant.rig.reset();
  const std::string channels = grid::QualifiedName(tenant.name, "");
  chef_->viewer().DropChannels(channels);
  viewer_sub_->DropChannels(channels);
}

util::Result<FarmReport> ExperimentFarm::RunAll() {
  NEES_RETURN_IF_ERROR(Start());
  FarmReport report;
  report.admitted = specs_.size();

  std::vector<std::unique_ptr<Tenant>> tenants;
  tenants.reserve(specs_.size());
  const std::size_t first = next_tenant_ - specs_.size();
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    auto tenant = std::make_unique<Tenant>();
    tenant->spec = specs_[i];
    tenant->name = util::Format("t%04zu", i);
    tenant->run_id = tenant->name + "-run";
    if (tenant->spec.seed == 0) {
      // Distinct default seeds keep tenant histories distinguishable while
      // staying reproducible run-to-run. They follow the lifetime admission
      // count, not the recycled slot, so no two waves repeat a seed.
      tenant->spec.seed = 0x6e65'6573ULL + first + i;
    }
    tenant->result.tenant = tenant->name;
    tenant->result.kind = tenant->spec.kind;
    tenants.push_back(std::move(tenant));
  }
  specs_.clear();

  const std::int64_t t0 = util::SystemClock::Instance().NowMicros();

  // --- place: every tenant's services live on the shared fabric at once ---
  for (auto& tenant : tenants) {
    const util::Status placed = PlaceSession(*tenant);
    if (!placed.ok()) {
      tenant->result.error = "placement: " + placed.ToString();
    }
  }
  report.peak_services = container_->service_count();
  report.peak_registrations = registry_->entry_count();

  // --- run and reap: a worker pool drives each session to completion, then
  // destroys its soft state on the same thread: what the run allocated is
  // freed on the thread (and allocator arena) that allocated it, the reap
  // runs as wide as the pool, and the fabric is at baseline by the join.
  std::atomic<std::size_t> next{0};
  const std::size_t worker_count =
      std::max<std::size_t>(1, std::min(options_.workers, tenants.size()));
  auto drain = [&] {
    for (;;) {
      const std::size_t index = next.fetch_add(1);
      if (index >= tenants.size()) return;
      Tenant& tenant = *tenants[index];
      if (tenant.result.error.empty()) RunSession(tenant);
      ReapSession(tenant);
    }
  };
  if (worker_count <= 1) {
    drain();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i) {
      workers.emplace_back(drain);
    }
    for (std::thread& worker : workers) worker.join();
  }

  const std::int64_t t1 = util::SystemClock::Instance().NowMicros();
  report.wall_seconds = static_cast<double>(t1 - t0) / 1e6;

  for (auto& tenant : tenants) {
    if (tenant->result.ok) {
      ++report.completed;
    } else {
      ++report.failed;
      NEES_LOG_INFO("farm") << tenant->result.tenant << " ("
                            << SessionKindName(tenant->result.kind)
                            << ") failed: " << tenant->result.error;
    }
    report.sessions.push_back(std::move(tenant->result));
  }
  if (report.wall_seconds > 0.0) {
    report.experiments_per_sec =
        static_cast<double>(report.completed) / report.wall_seconds;
  }
  report.services_after_reap = container_->service_count();
  report.registrations_after_reap = registry_->entry_count();
  report.endpoints_interned = net::EndpointTable::Instance().size();
  return report;
}

chef::SwarmReport RunScaledSwarm(net::Network* network,
                                 const std::string& chef_server,
                                 const SwarmOptions& options) {
  chef::SwarmReport total;
  total.participants = options.participants;
  if (options.participants <= 0) return total;

  const std::size_t shard_count = std::max<std::size_t>(
      1, std::min<std::size_t>(options.shards,
                               static_cast<std::size_t>(options.participants)));
  std::vector<chef::SwarmReport> shard_reports(shard_count);
  auto run_shard = [&](std::size_t shard) {
    chef::SwarmReport& report = shard_reports[shard];
    // Participants stay logged in until the shard finishes (presence load),
    // like chef::RunParticipantSwarm — then log out so successive waves
    // don't accumulate sessions.
    std::vector<std::unique_ptr<chef::ChefClient>> clients;
    for (int i = static_cast<int>(shard); i < options.participants;
         i += static_cast<int>(shard_count)) {
      auto client = std::make_unique<chef::ChefClient>(
          network, "swarm." + std::to_string(i), chef_server);
      if (!client->Login("swarm-user" + std::to_string(i)).ok()) {
        ++report.failures;
        continue;
      }
      for (int action = 0; action < options.actions_per_user; ++action) {
        if (action % 3 == 0) {
          if (client->PostChat("farm", "observing step data").ok()) {
            ++report.chat_posts;
          } else {
            ++report.failures;
          }
        } else {
          if (client->ViewerSeries(options.channel, 100).ok()) {
            ++report.viewer_reads;
          } else {
            ++report.failures;
          }
        }
      }
      clients.push_back(std::move(client));
    }
    for (auto& client : clients) (void)client->Logout();
  };

  if (shard_count <= 1) {
    run_shard(0);
  } else {
    std::vector<std::thread> shards;
    shards.reserve(shard_count);
    for (std::size_t shard = 0; shard < shard_count; ++shard) {
      shards.emplace_back(run_shard, shard);
    }
    for (std::thread& shard : shards) shard.join();
  }
  for (const chef::SwarmReport& report : shard_reports) {
    total.chat_posts += report.chat_posts;
    total.viewer_reads += report.viewer_reads;
    total.failures += report.failures;
  }
  return total;
}

}  // namespace nees::farm
