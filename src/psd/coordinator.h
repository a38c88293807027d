// MS-PSDS simulation coordinator (§3, Fig. 5): "repeatedly issues a set of
// NTCP proposals based on current simulation state, collects information
// about the resulting state of all the substructures, and, based on that
// resulting state, computes the next set of NTCP commands".
//
// Per pseudo-dynamic time step:
//   1. PROPOSE to every site (negotiation: all sites must accept the step's
//      targets before anything anywhere moves),
//   2. EXECUTE at every site, collecting measured restoring forces,
//   3. advance the central-difference integration with the measured forces.
//
// Two fault-handling policies reproduce the paper's §3.4 result:
//   * kNaive          — one RPC attempt, no re-proposal: any transient
//                       network failure terminates the experiment (the
//                       public MOST run died at step 1493/1500 this way);
//   * kFaultTolerant  — transparent RPC retries (safe: NTCP is
//                       at-most-once) plus bounded re-proposal under fresh
//                       transaction ids when a transaction is lost to a
//                       definitive error. The dry run completed with this.
//
// The coordinator checkpoints (step, d, d_prev), so a run killed by the
// naive policy can restart where it stopped.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/rpc.h"
#include "ntcp/client.h"
#include "structural/integrator.h"
#include "util/clock.h"
#include "util/stats.h"
#include "wal/wal.h"

namespace nees::obs {
class Tracer;
}  // namespace nees::obs

namespace nees::psd {

/// One substructure's binding: which NTCP server, which control point, and
/// which global DOFs of the reduced model it carries.
struct SubstructureSite {
  std::string name;             // "UIUC", "CU", "NCSA"
  std::string ntcp_endpoint;    // "ntcp.uiuc"
  std::string control_point;    // "column-top"
  std::vector<std::size_t> dofs;  // global DOF indices (size = CP DOF count)
};

enum class FaultPolicy { kNaive, kFaultTolerant };

/// How each phase's NTCP calls are fanned out to the sites.
enum class StepEngine {
  /// One site after another on the coordinator thread; a phase costs
  /// `sites` round trips. The §3 baseline.
  kSequential,
  /// Completion-driven: send every site's request as it is issued, then
  /// multiplex all the completions (and retry backoff timers) on the
  /// coordinator thread. ~1 RTT per phase (the §5 near-real-time path). In
  /// kImmediate delivery a call resolves inline during its issue, so the
  /// results are those of kSequential, and so is the trace of a phase
  /// whose calls all resolve during their issue.
  kAsync,
};

/// Which pseudo-dynamic scheme drives the stepping loop.
enum class PsdIntegrator {
  kCentralDifference,   // explicit; dt < 2/omega_max
  kOperatorSplitting,   // unconditionally stable; needs initial stiffness
};

struct CoordinatorConfig {
  std::string run_id = "run";
  structural::Matrix mass;
  structural::Matrix damping;
  structural::Vector iota;
  structural::GroundMotion motion;
  std::vector<SubstructureSite> sites;

  FaultPolicy fault_policy = FaultPolicy::kFaultTolerant;
  ntcp::RetryPolicy retry;        // per-RPC policy (ignored under kNaive)
  int max_step_attempts = 3;      // re-proposals per step (kFaultTolerant)
  std::int64_t proposal_timeout_micros = 60'000'000;
  /// Fan-out strategy per phase: one window of every site (kAsync) or one
  /// site at a time (kSequential). Results are identical across engines;
  /// under kVirtual the modeled phase latency differs.
  StepEngine step_engine = StepEngine::kAsync;

  PsdIntegrator integrator = PsdIntegrator::kCentralDifference;
  /// Initial stiffness estimate K0; required (square, n x n) for
  /// kOperatorSplitting, ignored otherwise.
  structural::Matrix initial_stiffness;

  /// Optional observability: one "psd.step" span per time step, with
  /// per-site propose/execute child spans, propagated to the NTCP clients.
  /// Must outlive the coordinator.
  obs::Tracer* tracer = nullptr;

  /// Optional credential-refresh factory: given a site's NTCP endpoint,
  /// returns the hook installed via NtcpClient::set_auth_refresher (or an
  /// empty function for none). Wired by deployments whose sites sit behind
  /// GSI auth, so a proxy credential expiring mid-run re-handshakes and
  /// retries instead of killing the experiment.
  std::function<std::function<util::Status()>(const std::string&)>
      auth_refresher;
};

struct SiteStats {
  std::string name;
  std::uint64_t proposals = 0;
  std::uint64_t executes = 0;
  std::uint64_t rpc_retries = 0;
  std::uint64_t step_reattempts = 0;
  util::SampleStats step_micros;  // each propose/execute, coordinator clock
};

struct RunReport {
  bool completed = false;
  std::size_t steps_completed = 0;  // successfully executed PSD steps
  std::size_t total_steps = 0;
  util::Status failure;  // why the run stopped, if not completed
  structural::TimeHistory history;
  std::vector<SiteStats> site_stats;
  std::uint64_t transient_faults_recovered = 0;
  double wall_seconds = 0.0;
  /// Micros on the coordinator's clock per propose-all / execute-all phase
  /// (one sample per phase attempt), for the E13 latency breakdown: modeled
  /// time when the clock is a kVirtual network's, wall time otherwise.
  util::SampleStats propose_phase_micros;
  util::SampleStats execute_phase_micros;
  /// WAL activity this run (0 when no log is attached).
  std::uint64_t wal_records = 0;
  std::uint64_t wal_sync_failures = 0;
};

struct Checkpoint {
  std::size_t step = 0;
  structural::Vector d;
  structural::Vector d_prev;
  structural::Vector v;  // operator-splitting state (empty under CD)
  structural::Vector a;
  structural::TimeHistory history;
};

/// What SimulationCoordinator::AttachWal rebuilt from the log
/// (docs/RECOVERY.md, step R3).
struct CoordinatorWalRecovery {
  std::size_t records_replayed = 0;
  std::size_t steps_recovered = 0;       // completed steps restored
  std::size_t site_outcomes_replayed = 0;
  /// True when the crash interrupted a step: per-site outcomes exist past
  /// the last step boundary. The step is simply re-driven from attempt 1 —
  /// the deterministic transaction ids make re-proposal a duplicate at any
  /// site that already accepted, and re-execute is served from the
  /// at-most-once result cache, so the specimen never moves twice.
  bool mid_step = false;
};

class SimulationCoordinator {
 public:
  /// `rpc` carries the coordinator's identity/auth token and must outlive
  /// the coordinator.
  SimulationCoordinator(CoordinatorConfig config, net::RpcClient* rpc,
                        util::Clock* clock = &util::SystemClock::Instance());

  /// Observer invoked after each successful step with the commanded
  /// displacement and the per-site measured forces (drives NSDS streaming
  /// and the DAQ in the MOST assembly).
  using StepObserver = std::function<void(
      std::size_t step, const structural::Vector& displacement,
      const std::vector<ntcp::TransactionResult>& site_results)>;
  void SetStepObserver(StepObserver observer);

  /// Runs from the current state to completion or first unrecovered fault.
  /// The report takes the run's history: afterwards ExecuteStep (and so a
  /// second Run) fails with kFailedPrecondition until Restore.
  RunReport Run();

  /// Executes exactly one step; Ok(false) when the record is exhausted.
  util::Result<bool> ExecuteStep();

  Checkpoint GetCheckpoint() const;
  util::Status Restore(const Checkpoint& checkpoint);

  /// Attaches a write-ahead log (docs/RECOVERY.md). On an empty log, stamps
  /// a run-begin record binding the log to (run_id, total steps, DOF count).
  /// On a non-empty log, validates that binding, replays every completed
  /// step boundary back into (step_, d, d_prev, v, a, history), and reports
  /// whether the crash landed mid-step. From then on every completed step
  /// is logged and synced before the coordinator advances. Call once,
  /// before Run(); `log` must outlive the coordinator.
  util::Result<CoordinatorWalRecovery> AttachWal(wal::Log* log);

  /// The history recorded so far, for callers that drive ExecuteStep
  /// themselves; empty once Run() has handed it to its report.
  const structural::TimeHistory& history() const { return history_; }
  std::size_t current_step() const { return step_; }
  std::vector<SiteStats> site_stats() const;

 private:
  util::Status EnsureInitialized();
  /// WAL helpers; no-ops when no log is attached. A step-complete record is
  /// synced (the coordinator's one fsync point per step); site outcomes ride
  /// until that sync — losing them is safe because a re-driven step is
  /// idempotent.
  void WalLogStepComplete();
  void WalLogSiteOutcome(const std::string& transaction_id,
                         const std::string& site, bool executed);
  void WalSync();
  /// One full propose-all / execute-all cycle for the current step; fills
  /// `forces` with the assembled restoring force vector.
  util::Status RunNtcpCycle(const structural::Vector& displacement,
                            structural::Vector& forces,
                            std::vector<ntcp::TransactionResult>& results);
  util::Status CycleOnce(int attempt, const structural::Vector& displacement,
                         structural::Vector& forces,
                         std::vector<ntcp::TransactionResult>& results);

  /// One phase over every site, for both engines: windows of sites are
  /// issued (`issue(site, span_id)` returns the site's op) and awaited
  /// together with NtcpClient::AwaitAll, then `finish(site, op)` decodes
  /// each. A site whose op resolved during issue is finished at once,
  /// before the next site is issued. The window is every site for kAsync
  /// and one site for kSequential. Returns the lowest site's error after
  /// all sites have run.
  template <typename Issue, typename Finish>
  util::Status RunPhase(obs::Atom span_name, Issue issue, Finish finish);
  /// The propose and execute phases; `accepted` / `executed` record
  /// per-site success.
  util::Status ProposeAll(const std::vector<std::string>& transaction_ids,
                          const structural::Vector& displacement,
                          std::vector<char>& accepted);
  util::Status ExecuteAll(const std::vector<std::string>& transaction_ids,
                          std::vector<ntcp::TransactionResult>& results,
                          std::vector<char>& executed);

  CoordinatorConfig config_;
  net::RpcClient* rpc_;
  util::Clock* clock_;
  std::vector<std::unique_ptr<ntcp::NtcpClient>> clients_;
  std::vector<SiteStats> site_stats_;
  StepObserver observer_;

  util::Result<bool> StepCentralDifference(
      std::vector<ntcp::TransactionResult>& results);
  util::Result<bool> StepOperatorSplitting(
      std::vector<ntcp::TransactionResult>& results);

  bool initialized_ = false;
  std::uint64_t step_span_id_ = 0;  // open "psd.step" span (0 = none)
  std::vector<obs::Atom> site_atoms_;  // site names as trace tag values
  structural::LuFactorization keff_lu_;  // CD effective stiffness
  structural::Matrix kback_;
  structural::Matrix two_m_;
  structural::LuFactorization meff_lu_;  // OS effective mass
  std::size_t step_ = 0;
  structural::Vector d_;
  structural::Vector d_prev_;
  structural::Vector v_;  // OS state
  structural::Vector a_;
  structural::TimeHistory history_;
  bool history_released_ = false;  // Run() moved history_ into its report
  std::uint64_t transient_recovered_ = 0;
  wal::Log* wal_ = nullptr;
  std::vector<std::uint8_t> wal_buffer_;  // reused by every WAL record
  std::uint64_t wal_records_ = 0;
  std::uint64_t wal_sync_failures_ = 0;
  util::SampleStats propose_phase_micros_;
  util::SampleStats execute_phase_micros_;

  // Per-step scratch reused across steps: the strings, proposals, and op
  // slots keep their capacity, so the steady-state propose/execute path
  // allocates nothing in the coordinator itself.
  std::vector<std::string> txn_ids_scratch_;
  std::vector<char> accepted_scratch_;
  std::vector<char> executed_scratch_;
  std::vector<ntcp::Proposal> proposal_scratch_;
  std::vector<ntcp::NtcpClient::AsyncOp> ops_scratch_;
  std::vector<std::uint64_t> site_spans_scratch_;
  std::vector<char> site_open_scratch_;  // ops still unfinished after issue

  // The integrators' working vectors, reused across steps so a step's
  // arithmetic allocates nothing (only the history records it appends).
  struct Integration {
    std::vector<ntcp::TransactionResult> results;  // per site, this step
    structural::Vector forces;   // assembled measured restoring forces
    structural::Vector m_iota;   // M * iota
    structural::Vector product_a, product_b;  // matrix-vector products
    structural::Vector rhs;
    structural::Vector next;     // CD: d_{n+1}; OS: a_{n+1}
    structural::Vector velocity, acceleration;  // CD history records
    structural::Vector d_tilde, v_tilde;        // OS predictors
  };
  Integration integration_;
};

}  // namespace nees::psd
