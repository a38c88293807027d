// The MOST experiment assembly (§3, Figs. 4/5/9): wires every subsystem
// into the July 30, 2003 topology —
//
//   coordinator (Matlab toolbox -> NTCP API)        [psd::SimulationCoordinator]
//     -> ntcp.uiuc -> ShoreWesternPlugin -> sw.uiuc -> servo-hydraulics
//     -> ntcp.ncsa -> MPlugin <- polling "Matlab" simulation backend
//     -> ntcp.cu   -> MPlugin <- polling backend -> xPC target -> rig
//   DAQ -> drop dir -> harvester -> ingestion -> repository (NCSA)
//   step observer  -> NSDS -> remote viewers
//   containers per site publish NTCP transaction SDEs for inspection
//
// The reduced structural model is the paper's two-bay single-story steel
// frame collapsed to its lateral story DOF; the three substructures carry
// the left column (UIUC, pinned at the beam: 3EI/L^3), the right column
// (CU, rigid connection: 12EI/L^3), and the center section (NCSA).
#pragma once

#include <array>
#include <filesystem>
#include <memory>

#include "daq/daq.h"
#include "grid/container.h"
#include "grid/registry.h"
#include "grid/tenant.h"
#include "nsds/nsds.h"
#include "ntcp/server.h"
#include "obs/trace.h"
#include "plugins/mplugin.h"
#include "psd/coordinator.h"
#include "repo/facade.h"
#include "structural/frame.h"
#include "testbed/shorewestern.h"
#include "testbed/xpc.h"

namespace nees::most {

struct MostOptions {
  std::size_t steps = 1500;     // the MOST step count
  double dt_seconds = 0.02;
  double peak_accel = 3.0;      // ~0.3 g synthetic record
  std::uint64_t seed = 2003'07'30;

  // Structure (Fig. 4): column/beam sections and story mass.
  structural::Section column_section;
  structural::Section beam_section;
  double column_height_m = 3.0;
  double bay_width_m = 4.0;
  double story_mass_kg = 5.0e4;
  double damping_ratio = 0.02;

  /// true: UIUC/CU are emulated physical rigs (the public experiment);
  /// false: all three substructures are simulations (the dry-run phase).
  bool hybrid = true;
  /// PSD scheme; operator splitting uses the derived stiffness breakdown
  /// as its K0 and tolerates arbitrarily coarse dt.
  psd::PsdIntegrator integrator = psd::PsdIntegrator::kCentralDifference;
  /// How the coordinator fans each NTCP phase out to the three sites.
  /// Results are identical across engines (E5/E6 assert this); only the
  /// modeled phase latency under kVirtual differs. No engine starts a
  /// thread.
  psd::StepEngine step_engine = psd::StepEngine::kAsync;
  /// Hysteretic (Bouc–Wen) columns at the physical sites instead of
  /// elastic ones — enables yielding/hysteresis studies.
  bool hysteretic_columns = false;

  bool with_repository = true;
  bool with_streaming = true;
  /// DAQ flush-and-ingest cadence, in PSD steps (0 disables the pipeline).
  std::size_t daq_flush_every_steps = 100;
  std::filesystem::path daq_drop_dir;  // default: temp dir per instance

  /// Optional observability: propagated to the network, NTCP servers and
  /// clients, plugins, DAQ and NSDS at Start(). Must outlive the experiment.
  obs::Tracer* tracer = nullptr;

  /// Experiment namespace (grid/tenant.h). Empty — the default — keeps the
  /// historical canonical names ("ntcp.uiuc", "container.nees", ...), so a
  /// standalone run is bit-identical to the pre-tenancy assembly. Non-empty
  /// prefixes every endpoint, registry entry, and data channel with
  /// "<ns>/", letting many experiments share one network.
  std::string experiment_ns;

  /// Shared farm fabric (all optional, must outlive the experiment). When
  /// set, Start() hosts its services in the shared container, registers its
  /// namespaced endpoints in the shared registry, and streams into the
  /// shared NSDS instead of creating private instances.
  grid::ServiceContainer* shared_container = nullptr;
  grid::RegistryService* shared_registry = nullptr;
  nsds::NsdsServer* shared_nsds = nullptr;

  MostOptions();
};

/// Lateral stiffness split across the three substructures.
struct StiffnessBreakdown {
  double left_n_per_m = 0.0;    // UIUC column (pin top): 3EI/L^3
  double right_n_per_m = 0.0;   // CU column (rigid top): 12EI/L^3
  double middle_n_per_m = 0.0;  // NCSA center section
  double total() const { return left_n_per_m + right_n_per_m + middle_n_per_m; }
};

/// Builds the full two-bay single-story FEM frame (for reference solutions
/// and modal checks).
structural::FrameModel BuildMostFrame(const MostOptions& options);

/// Derives the substructure stiffnesses from the member properties.
StiffnessBreakdown ComputeStiffnessBreakdown(const MostOptions& options);

class MostExperiment {
 public:
  // Canonical *base* endpoint names; the deployed name is
  // grid::QualifiedName(options.experiment_ns, base), which an empty
  // namespace leaves untouched. Discovery goes through the registry:
  // MakeCoordinatorConfig resolves each site's NTCP endpoint from its
  // namespaced registration rather than assuming name == endpoint.
  static constexpr const char* kNtcpUiuc = "ntcp.uiuc";
  static constexpr const char* kNtcpNcsa = "ntcp.ncsa";
  static constexpr const char* kNtcpCu = "ntcp.cu";
  static constexpr const char* kShoreWestern = "sw.uiuc";
  static constexpr const char* kNsds = "nsds.nees";
  static constexpr const char* kRepository = "repo.nees";
  static constexpr const char* kRegistry = "index.nees";

  MostExperiment(net::Network* network, util::Clock* clock,
                 MostOptions options);
  ~MostExperiment();

  /// Brings up all services and installs the NCSA and CU MPlugin backends
  /// on their plugins' work notifiers. Starts no thread.
  util::Status Start();
  void Stop();

  /// Coordinator configuration for this deployment.
  psd::CoordinatorConfig MakeCoordinatorConfig(
      psd::FaultPolicy policy, const std::string& run_id) const;

  /// Runs a full experiment: coordinator + DAQ/streaming/ingestion hooks.
  util::Result<psd::RunReport> Run(psd::FaultPolicy policy,
                                   const std::string& run_id);

  /// All-numerical Newmark reference response (story displacement history).
  util::Result<structural::TimeHistory> ReferenceSolution() const;

  const MostOptions& options() const { return options_; }
  const StiffnessBreakdown& stiffness() const { return stiffness_; }
  const structural::GroundMotion& motion() const { return motion_; }

  nsds::NsdsServer* streaming() { return active_nsds_; }
  repo::RepositoryFacade* repository() { return repository_.get(); }
  grid::RegistryService* registry() { return active_registry_; }
  grid::ServiceContainer* container() { return active_container_; }
  daq::DaqSystem* daq() { return daq_.get(); }
  net::Network* network() { return network_; }

  /// The deployed (namespace-qualified) name for a canonical base name.
  std::string Qualified(std::string_view base) const {
    return grid::QualifiedName(options_.experiment_ns, base);
  }

  /// Per-site NTCP server statistics (executions, duplicates, ...); accepts
  /// the canonical base name or the namespace-qualified endpoint.
  ntcp::NtcpServerStats ServerStats(const std::string& endpoint) const;

 private:
  util::Status StartSiteServices();
  void ObserveStep(std::size_t step, const structural::Vector& displacement,
                   const std::vector<ntcp::TransactionResult>& results);
  /// Registry resolution for a site endpoint: the registered endpoint for
  /// the qualified name, or the qualified name itself pre-registration.
  std::string ResolveEndpoint(std::string_view base) const;

  net::Network* network_;
  util::Clock* clock_;
  MostOptions options_;
  StiffnessBreakdown stiffness_;
  structural::GroundMotion motion_;

  // Data channel names, namespace-qualified once at construction (the step
  // observer publishes them every step).
  std::string channel_displacement_;
  std::array<std::string, 3> channel_forces_;  // UIUC, NCSA, CU

  // Grid fabric: privately owned when standalone, borrowed from the farm
  // host when the shared_* options are set.
  std::unique_ptr<grid::ServiceContainer> container_;
  std::shared_ptr<grid::RegistryService> registry_;
  grid::ServiceContainer* active_container_ = nullptr;
  grid::RegistryService* active_registry_ = nullptr;
  nsds::NsdsServer* active_nsds_ = nullptr;

  // UIUC.
  std::unique_ptr<testbed::ShoreWesternEmulator> shore_western_;
  std::unique_ptr<net::RpcClient> uiuc_plugin_rpc_;
  std::unique_ptr<ntcp::NtcpServer> ntcp_uiuc_;

  // NCSA.
  plugins::MPlugin* ncsa_mplugin_ = nullptr;  // owned by its NtcpServer
  std::unique_ptr<plugins::PollingBackend> ncsa_backend_;
  std::unique_ptr<ntcp::NtcpServer> ntcp_ncsa_;

  // CU.
  plugins::MPlugin* cu_mplugin_ = nullptr;
  std::unique_ptr<plugins::PollingBackend> cu_backend_;
  std::shared_ptr<testbed::XpcTarget> cu_xpc_;
  std::unique_ptr<ntcp::NtcpServer> ntcp_cu_;

  // Data path.
  std::unique_ptr<nsds::NsdsServer> nsds_;
  std::unique_ptr<repo::RepositoryFacade> repository_;
  std::unique_ptr<daq::DaqSystem> daq_;
  std::unique_ptr<net::RpcClient> ingest_rpc_;
  std::unique_ptr<repo::IngestionTool> ingestion_;
  std::unique_ptr<daq::Harvester> harvester_;

  std::unique_ptr<net::RpcClient> coordinator_rpc_;
  bool started_ = false;
};

/// Reproduces the §3.4 fault narrative on a network: small transient bursts
/// at `transient_steps` (recoverable by RPC retry) and a long outage at
/// `fatal_step` sized to exhaust `public_run_attempts` RPC tries but not a
/// fully fault-tolerant coordinator's budget. Install via the coordinator's
/// step observer; returns the observer to chain.
class MostFaultSchedule {
 public:
  MostFaultSchedule(net::Network* network, std::string coordinator_endpoint,
                    std::string victim_endpoint);

  void AddTransientBurst(std::size_t step, int messages);
  void SetFatalOutage(std::size_t step, int messages);

  /// Call once per completed step (from the coordinator's observer).
  void OnStep(std::size_t step);

 private:
  net::Network* network_;
  std::string coordinator_;
  std::string victim_;
  std::vector<std::pair<std::size_t, int>> bursts_;
};

}  // namespace nees::most
