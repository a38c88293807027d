#include "most/most.h"

#include "plugins/labview_plugin.h"
#include "plugins/policy_plugin.h"
#include "plugins/shorewestern_plugin.h"
#include "plugins/simulation_plugin.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/uuid.h"

namespace nees::most {
namespace {

std::unique_ptr<structural::SubstructureModel> MakeColumnModel(
    double stiffness, bool hysteretic) {
  if (hysteretic) {
    structural::BoucWenSubstructure::Params params;
    params.elastic_stiffness = stiffness;
    params.yield_displacement = 0.05;
    params.alpha = 0.1;
    return std::make_unique<structural::BoucWenSubstructure>(params);
  }
  structural::Matrix k(1, 1);
  k(0, 0) = stiffness;
  return std::make_unique<structural::ElasticSubstructure>(k);
}

std::unique_ptr<testbed::PhysicalSpecimen> MakeColumnRig(
    const std::string& name, double stiffness, bool hysteretic,
    std::uint64_t seed) {
  testbed::PhysicalSpecimen::Config config;
  config.name = name;
  config.limits.max_displacement_m = 0.15;
  config.limits.max_force_n = 5e5;
  config.sensor_seed = seed;
  auto motion = std::make_unique<testbed::ServoHydraulicActuator>(
      testbed::ServoHydraulicActuator::Params{});
  return std::make_unique<testbed::PhysicalSpecimen>(
      config, std::move(motion), MakeColumnModel(stiffness, hysteretic));
}

}  // namespace

MostOptions::MostOptions() {
  column_section.youngs_modulus = 200e9;
  column_section.area = 0.01;
  column_section.moment_of_inertia = 2e-5;
  column_section.mass_per_length = 78.5;
  beam_section = column_section;
  beam_section.moment_of_inertia = 4e-5;
  daq_drop_dir = std::filesystem::temp_directory_path() /
                 ("nees-most-" + util::NewUuid());
}

structural::FrameModel BuildMostFrame(const MostOptions& options) {
  structural::FrameModel frame;
  const double h = options.column_height_m;
  const double w = options.bay_width_m;
  const std::size_t b0 = frame.AddNode(0, 0);
  const std::size_t b1 = frame.AddNode(w, 0);
  const std::size_t b2 = frame.AddNode(2 * w, 0);
  const std::size_t t0 = frame.AddNode(0, h);
  const std::size_t t1 = frame.AddNode(w, h);
  const std::size_t t2 = frame.AddNode(2 * w, h);
  frame.FixAll(b0);
  frame.FixAll(b1);
  frame.FixAll(b2);
  frame.AddElement(b0, t0, options.column_section);
  frame.AddElement(b1, t1, options.column_section);
  frame.AddElement(b2, t2, options.column_section);
  frame.AddElement(t0, t1, options.beam_section);
  frame.AddElement(t1, t2, options.beam_section);
  for (std::size_t node : {t0, t1, t2}) {
    frame.AddLumpedMass(node, options.story_mass_kg / 3.0);
  }
  return frame;
}

StiffnessBreakdown ComputeStiffnessBreakdown(const MostOptions& options) {
  StiffnessBreakdown breakdown;
  // UIUC column: "a cantilever column because of the beam-column pin
  // connection" (§3) -> free rotation at the story level.
  breakdown.left_n_per_m = structural::CantileverLateralStiffness(
      options.column_section, options.column_height_m);
  // CU column: "rigidly connected ... suppressing all translational and
  // rotational degrees of freedom" -> fixed-fixed lateral stiffness.
  breakdown.right_n_per_m = structural::FixedFixedLateralStiffness(
      options.column_section, options.column_height_m);
  // NCSA center section: the middle column, rotation-restrained at the
  // story level by the beams it connects to.
  breakdown.middle_n_per_m = structural::FixedFixedLateralStiffness(
      options.column_section, options.column_height_m);
  return breakdown;
}

MostExperiment::MostExperiment(net::Network* network, util::Clock* clock,
                               MostOptions options)
    : network_(network), clock_(clock), options_(std::move(options)) {
  stiffness_ = ComputeStiffnessBreakdown(options_);
  structural::SyntheticQuakeParams quake;
  quake.dt_seconds = options_.dt_seconds;
  quake.steps = options_.steps;
  quake.peak_accel = options_.peak_accel;
  quake.seed = options_.seed;
  motion_ = structural::SynthesizeQuake(quake);
  channel_displacement_ = Qualified("most.displacement");
  channel_forces_ = {Qualified("most.force.UIUC"),
                     Qualified("most.force.NCSA"),
                     Qualified("most.force.CU")};
}

MostExperiment::~MostExperiment() { Stop(); }

util::Status MostExperiment::Start() {
  if (started_) return util::OkStatus();

  // Only install a tracer the experiment actually owns: under a shared farm
  // network the host wires the tracer once, and a tenant must not stomp it.
  if (options_.tracer != nullptr) network_->set_tracer(options_.tracer);

  if (options_.shared_container != nullptr) {
    active_container_ = options_.shared_container;
  } else {
    container_ = std::make_unique<grid::ServiceContainer>(
        network_, Qualified("container.nees"), clock_);
    NEES_RETURN_IF_ERROR(container_->Start());
    active_container_ = container_.get();
  }
  if (options_.shared_registry != nullptr) {
    active_registry_ = options_.shared_registry;
  } else {
    registry_ = std::make_shared<grid::RegistryService>(clock_);
    NEES_RETURN_IF_ERROR(active_container_->AddService(registry_).status());
    registry_->BindRpc(*active_container_);
    active_registry_ = registry_.get();
  }

  NEES_RETURN_IF_ERROR(StartSiteServices());

  if (options_.shared_nsds != nullptr) {
    active_nsds_ = options_.shared_nsds;
    active_registry_->Register({Qualified("nsds"), active_nsds_->endpoint(),
                                "nsds", "NCSA", 0},
                               0);
  } else if (options_.with_streaming) {
    nsds_ = std::make_unique<nsds::NsdsServer>(network_, Qualified(kNsds));
    NEES_RETURN_IF_ERROR(nsds_->Start());
    nsds_->set_tracer(options_.tracer);
    active_nsds_ = nsds_.get();
    active_registry_->Register(
        {Qualified("nsds"), nsds_->endpoint(), "nsds", "NCSA", 0}, 0);
  }
  if (options_.with_repository) {
    repository_ = std::make_unique<repo::RepositoryFacade>(
        network_, Qualified(kRepository));
    NEES_RETURN_IF_ERROR(repository_->Start());
    active_registry_->Register({Qualified("repository"),
                                Qualified(kRepository), "repository", "NCSA",
                                0},
                               0);

    daq_ = std::make_unique<daq::DaqSystem>();
    daq_->set_tracer(options_.tracer);
    daq_->AddChannel({channel_displacement_, "m", 50.0});
    for (const std::string& channel : channel_forces_) {
      daq_->AddChannel({channel, "N", 50.0});
    }
    ingest_rpc_ = std::make_unique<net::RpcClient>(network_,
                                                   Qualified("ingest.nees"));
    ingestion_ = std::make_unique<repo::IngestionTool>(
        ingest_rpc_.get(), Qualified(kRepository), "most", "nees");
    harvester_ = std::make_unique<daq::Harvester>(
        options_.daq_drop_dir,
        [this](const std::filesystem::path& file,
               const std::vector<nsds::DataSample>& samples) {
          return ingestion_->IngestDropFile(file, samples);
        });
    harvester_->set_tracer(options_.tracer);
  }

  coordinator_rpc_ = std::make_unique<net::RpcClient>(
      network_, Qualified("most.coordinator"));
  started_ = true;
  return util::OkStatus();
}

util::Status MostExperiment::StartSiteServices() {
  // ---------------- UIUC: Shore-Western path (Fig. 9 left branch) ---------
  std::unique_ptr<ntcp::ControlPlugin> uiuc_plugin;
  if (options_.hybrid) {
    shore_western_ = std::make_unique<testbed::ShoreWesternEmulator>(
        network_, Qualified(kShoreWestern),
        MakeColumnRig("uiuc-left-column", stiffness_.left_n_per_m,
                      options_.hysteretic_columns, options_.seed + 1));
    NEES_RETURN_IF_ERROR(shore_western_->Start());
    uiuc_plugin_rpc_ =
        std::make_unique<net::RpcClient>(network_, Qualified("plugin.uiuc"));
    plugins::ShoreWesternPlugin::Config sw_config;
    sw_config.control_point = "column-top";
    uiuc_plugin = std::make_unique<plugins::ShoreWesternPlugin>(
        sw_config, uiuc_plugin_rpc_.get(), Qualified(kShoreWestern));
  } else {
    auto simulation = std::make_unique<plugins::SimulationPlugin>();
    simulation->AddControlPoint(
        "column-top", MakeColumnModel(stiffness_.left_n_per_m, false));
    uiuc_plugin = std::move(simulation);
  }
  // Site policy wrapper: UIUC retains control over acceptable commands.
  plugins::SitePolicy uiuc_policy;
  uiuc_policy.max_abs_displacement_m = 0.15;
  uiuc_policy.reject_force_control = true;
  ntcp_uiuc_ = std::make_unique<ntcp::NtcpServer>(
      network_, Qualified(kNtcpUiuc),
      std::make_unique<plugins::LimitPolicyPlugin>(uiuc_policy,
                                                   std::move(uiuc_plugin)),
      clock_);
  NEES_RETURN_IF_ERROR(ntcp_uiuc_->Start());
  NEES_RETURN_IF_ERROR(ntcp_uiuc_->PublishTo(*active_container_));
  ntcp_uiuc_->set_tracer(options_.tracer);
  active_registry_->Register(
      {Qualified("ntcp.uiuc"), Qualified(kNtcpUiuc), "ntcp", "UIUC", 0}, 0);

  // ---------------- NCSA: Mplugin + polling simulation backend ------------
  {
    auto mplugin = std::make_unique<plugins::MPlugin>();
    ncsa_mplugin_ = mplugin.get();
    ntcp_ncsa_ = std::make_unique<ntcp::NtcpServer>(
        network_, Qualified(kNtcpNcsa), std::move(mplugin), clock_);
    NEES_RETURN_IF_ERROR(ntcp_ncsa_->Start());
    NEES_RETURN_IF_ERROR(ntcp_ncsa_->PublishTo(*active_container_));
    ntcp_ncsa_->set_tracer(options_.tracer);
    ncsa_mplugin_->BindBackendRpc(ntcp_ncsa_->rpc());

    auto models = std::make_shared<std::map<
        std::string, std::unique_ptr<structural::SubstructureModel>>>();
    (*models)["center-frame"] =
        MakeColumnModel(stiffness_.middle_n_per_m, false);
    ncsa_backend_ = std::make_unique<plugins::PollingBackend>(
        ncsa_mplugin_, plugins::MakeSimulationCompute(models));
    ncsa_backend_->Start();
    active_registry_->Register(
        {Qualified("ntcp.ncsa"), Qualified(kNtcpNcsa), "ntcp", "NCSA", 0}, 0);
  }

  // ---------------- CU: same Mplugin code, xPC-driven rig -----------------
  {
    auto mplugin = std::make_unique<plugins::MPlugin>();
    cu_mplugin_ = mplugin.get();
    ntcp_cu_ = std::make_unique<ntcp::NtcpServer>(
        network_, Qualified(kNtcpCu), std::move(mplugin), clock_);
    NEES_RETURN_IF_ERROR(ntcp_cu_->Start());
    NEES_RETURN_IF_ERROR(ntcp_cu_->PublishTo(*active_container_));
    ntcp_cu_->set_tracer(options_.tracer);
    cu_mplugin_->BindBackendRpc(ntcp_cu_->rpc());

    plugins::PollingBackend::Compute compute;
    if (options_.hybrid) {
      cu_xpc_ = std::make_shared<testbed::XpcTarget>(
          testbed::XpcTarget::Params{},
          MakeColumnRig("cu-right-column", stiffness_.right_n_per_m,
                        options_.hysteretic_columns, options_.seed + 2));
      auto xpc = cu_xpc_;
      obs::Tracer* tracer = options_.tracer;
      compute = [xpc, tracer](const ntcp::Proposal& proposal,
                              ntcp::TransactionResult& out) -> util::Status {
        if (proposal.actions.size() != 1 ||
            proposal.actions[0].target_displacement.size() != 1) {
          return util::InvalidArgument("CU rig takes one 1-DOF action");
        }
        NEES_ASSIGN_OR_RETURN(
            testbed::Measurement measurement,
            xpc->Execute(proposal.actions[0].target_displacement[0]));
        if (tracer != nullptr) {
          tracer->RecordEvent(
              "actuator.settle", "settle",
              static_cast<std::int64_t>(measurement.motion_seconds * 1e6),
              {{"site", "CU"}});
          tracer->metrics().Observe(
              "actuator.settle_micros", measurement.motion_seconds * 1e6);
        }
        out.results.resize(1);
        ntcp::ControlPointResult& cp = out.results[0];
        cp.control_point = proposal.actions[0].control_point;
        cp.measured_displacement.assign(1, measurement.displacement_m);
        cp.measured_force.assign(1, measurement.force_n);
        return util::OkStatus();
      };
    } else {
      auto models = std::make_shared<std::map<
          std::string, std::unique_ptr<structural::SubstructureModel>>>();
      (*models)["column-top"] =
          MakeColumnModel(stiffness_.right_n_per_m, false);
      compute = plugins::MakeSimulationCompute(models);
    }
    cu_backend_ = std::make_unique<plugins::PollingBackend>(
        cu_mplugin_, std::move(compute));
    cu_backend_->Start();
    active_registry_->Register(
        {Qualified("ntcp.cu"), Qualified(kNtcpCu), "ntcp", "CU", 0}, 0);
  }
  return util::OkStatus();
}

void MostExperiment::Stop() {
  if (ncsa_backend_) ncsa_backend_->Stop();
  if (cu_backend_) cu_backend_->Stop();
  // Farm-hosted tenants evict their soft state from the shared fabric; the
  // namespace guard keeps a (mis)configured empty-ns tenant from sweeping
  // neighbors out of a shared host.
  if (!options_.experiment_ns.empty()) {
    if (options_.shared_container != nullptr) {
      (void)options_.shared_container->DestroyTenant(options_.experiment_ns);
    }
    if (options_.shared_registry != nullptr) {
      (void)options_.shared_registry->UnregisterTenant(options_.experiment_ns);
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(options_.daq_drop_dir, ec);
  started_ = false;
}

psd::CoordinatorConfig MostExperiment::MakeCoordinatorConfig(
    psd::FaultPolicy policy, const std::string& run_id) const {
  psd::CoordinatorConfig config;
  config.run_id = run_id;
  config.mass = structural::Matrix::Identity(1) * options_.story_mass_kg;
  const double omega = std::sqrt(stiffness_.total() / options_.story_mass_kg);
  config.damping = structural::Matrix::Identity(1) *
                   (2.0 * options_.damping_ratio * omega *
                    options_.story_mass_kg);
  config.iota = {1.0};
  config.motion = motion_;
  config.sites = {
      {"UIUC", ResolveEndpoint(kNtcpUiuc), "column-top", {0}},
      {"NCSA", ResolveEndpoint(kNtcpNcsa), "center-frame", {0}},
      {"CU", ResolveEndpoint(kNtcpCu), "column-top", {0}},
  };
  config.fault_policy = policy;
  config.step_engine = options_.step_engine;
  config.integrator = options_.integrator;
  config.tracer = options_.tracer;
  if (options_.integrator == psd::PsdIntegrator::kOperatorSplitting) {
    config.initial_stiffness =
        structural::Matrix::Identity(1) * stiffness_.total();
  }
  return config;
}

void MostExperiment::ObserveStep(
    std::size_t step, const structural::Vector& displacement,
    const std::vector<ntcp::TransactionResult>& results) {
  const std::int64_t t_micros =
      static_cast<std::int64_t>(step * options_.dt_seconds * 1e6);
  std::vector<nsds::DataSample> samples;
  samples.push_back({channel_displacement_, t_micros, displacement[0]});
  for (std::size_t i = 0; i < results.size() && i < channel_forces_.size();
       ++i) {
    if (results[i].results.empty() ||
        results[i].results[0].measured_force.empty()) {
      continue;
    }
    samples.push_back({channel_forces_[i], t_micros,
                       results[i].results[0].measured_force[0]});
  }

  if (daq_) {
    for (const nsds::DataSample& sample : samples) {
      (void)daq_->Record(sample.channel, sample.time_micros, sample.value);
    }
    if (options_.daq_flush_every_steps > 0 && step > 0 &&
        step % options_.daq_flush_every_steps == 0) {
      if (daq_->Flush(options_.daq_drop_dir, "most").ok() && harvester_) {
        (void)harvester_->ScanOnce();
      }
    }
  }
  if (active_nsds_ != nullptr) active_nsds_->Publish(samples);
}

util::Result<psd::RunReport> MostExperiment::Run(psd::FaultPolicy policy,
                                                 const std::string& run_id) {
  NEES_RETURN_IF_ERROR(Start());
  psd::SimulationCoordinator coordinator(
      MakeCoordinatorConfig(policy, run_id), coordinator_rpc_.get(), clock_);
  coordinator.SetStepObserver(
      [this](std::size_t step, const structural::Vector& displacement,
             const std::vector<ntcp::TransactionResult>& results) {
        ObserveStep(step, displacement, results);
      });
  psd::RunReport report = coordinator.Run();

  // Final DAQ flush + ingest so the archive holds the complete record.
  if (daq_ && harvester_) {
    if (daq_->Flush(options_.daq_drop_dir, "most").ok()) {
      (void)harvester_->ScanOnce();
    }
  }
  return report;
}

util::Result<structural::TimeHistory> MostExperiment::ReferenceSolution()
    const {
  const structural::Matrix mass =
      structural::Matrix::Identity(1) * options_.story_mass_kg;
  const structural::Matrix stiffness =
      structural::Matrix::Identity(1) * stiffness_.total();
  const double omega = std::sqrt(stiffness_.total() / options_.story_mass_kg);
  const structural::Matrix damping =
      structural::Matrix::Identity(1) *
      (2.0 * options_.damping_ratio * omega * options_.story_mass_kg);
  structural::NewmarkBeta newmark(mass, damping, stiffness, {1.0});
  return newmark.Integrate(motion_);
}

std::string MostExperiment::ResolveEndpoint(std::string_view base) const {
  const std::string qualified = Qualified(base);
  if (active_registry_ != nullptr) {
    if (auto entry = active_registry_->LookupEntry(qualified)) {
      return entry->endpoint;
    }
  }
  return qualified;
}

ntcp::NtcpServerStats MostExperiment::ServerStats(
    const std::string& endpoint) const {
  const auto matches = [&](const char* base) {
    return endpoint == base || endpoint == Qualified(base);
  };
  if (matches(kNtcpUiuc) && ntcp_uiuc_) return ntcp_uiuc_->stats();
  if (matches(kNtcpNcsa) && ntcp_ncsa_) return ntcp_ncsa_->stats();
  if (matches(kNtcpCu) && ntcp_cu_) return ntcp_cu_->stats();
  return {};
}

// ---------------------------------------------------------------------------
// MostFaultSchedule

MostFaultSchedule::MostFaultSchedule(net::Network* network,
                                     std::string coordinator_endpoint,
                                     std::string victim_endpoint)
    : network_(network),
      coordinator_(std::move(coordinator_endpoint)),
      victim_(std::move(victim_endpoint)) {}

void MostFaultSchedule::AddTransientBurst(std::size_t step, int messages) {
  bursts_.emplace_back(step, messages);
}

void MostFaultSchedule::SetFatalOutage(std::size_t step, int messages) {
  bursts_.emplace_back(step, messages);
}

void MostFaultSchedule::OnStep(std::size_t step) {
  for (const auto& [at_step, messages] : bursts_) {
    if (at_step == step + 1) {
      // Arm the fault so it hits the *next* step's first messages.
      network_->DropNext(coordinator_, victim_, messages);
      NEES_LOG_INFO("most.faults")
          << "armed " << messages << "-message loss toward " << victim_
          << " at step " << at_step;
    }
  }
}

}  // namespace nees::most
