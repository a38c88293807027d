#include "psd/coordinator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>

#include "check/invariant.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/strings.h"

namespace nees::psd {
namespace {

// Coordinator WAL record vocabulary (docs/RECOVERY.md, "Record grammar").
constexpr std::uint8_t kWalRunBegin = 1;      // run_id, total_steps, n
constexpr std::uint8_t kWalStepComplete = 2;  // step boundary + state vectors
constexpr std::uint8_t kWalSiteOutcome = 3;   // step, site, txn, executed

// Trace vocabulary.
const obs::Atom kStepSpan("psd.step");
const obs::Atom kStepCategory("step");
const obs::Atom kProposeSpan("site.propose");
const obs::Atom kExecuteSpan("site.execute");
const obs::Atom kCoordination("coordination");
const obs::Atom kIntegrateSpan("psd.integrate");
const obs::Atom kIntegrateCategory("integrate");
const obs::Atom kSite("site");
const obs::Atom kStep("step");

}  // namespace

// The Vector arithmetic operators live in nees::structural and are not
// found by ADL on std::vector<double>; pull them in explicitly.
using structural::operator+;
using structural::operator-;
using structural::operator*;

SimulationCoordinator::SimulationCoordinator(CoordinatorConfig config,
                                             net::RpcClient* rpc,
                                             util::Clock* clock)
    : config_(std::move(config)), rpc_(rpc), clock_(clock) {
  ntcp::RetryPolicy policy = config_.retry;
  if (config_.fault_policy == FaultPolicy::kNaive) {
    policy.max_attempts = 1;  // the un-hardened coordinator of §3.4
  }
  for (const SubstructureSite& site : config_.sites) {
    site_atoms_.push_back(obs::Atom(site.name));
    clients_.push_back(std::make_unique<ntcp::NtcpClient>(
        rpc_, site.ntcp_endpoint, policy, clock_));
    clients_.back()->set_tracer(config_.tracer);
    if (config_.auth_refresher) {
      clients_.back()->set_auth_refresher(
          config_.auth_refresher(site.ntcp_endpoint));
    }
    SiteStats stats;
    stats.name = site.name;
    site_stats_.push_back(std::move(stats));
  }
}

void SimulationCoordinator::SetStepObserver(StepObserver observer) {
  observer_ = std::move(observer);
}

util::Status SimulationCoordinator::EnsureInitialized() {
  if (initialized_) return util::OkStatus();
  const std::size_t n = config_.mass.rows();
  if (config_.damping.rows() != n || config_.iota.size() != n) {
    return util::InvalidArgument("mass/damping/iota dimension mismatch");
  }
  for (const SubstructureSite& site : config_.sites) {
    for (std::size_t dof : site.dofs) {
      if (dof >= n) {
        return util::InvalidArgument("site " + site.name +
                                     " references DOF out of range");
      }
    }
  }
  const double dt = config_.motion.dt_seconds;
  step_ = 0;
  d_.assign(n, 0.0);
  d_prev_.assign(n, 0.0);
  history_ = {};
  history_.dt_seconds = dt;
  history_.displacement.push_back(d_);
  history_.velocity.push_back(structural::Vector(n, 0.0));

  if (config_.integrator == PsdIntegrator::kCentralDifference) {
    const structural::Matrix keff = config_.mass * (1.0 / (dt * dt)) +
                                    config_.damping * (1.0 / (2.0 * dt));
    NEES_ASSIGN_OR_RETURN(keff_lu_,
                          structural::LuFactorization::Compute(keff));
    kback_ = config_.mass * (1.0 / (dt * dt)) -
             config_.damping * (1.0 / (2.0 * dt));
    two_m_ = config_.mass * (2.0 / (dt * dt));
    history_.acceleration.push_back(structural::Vector(n, 0.0));
  } else {
    if (config_.initial_stiffness.rows() != n ||
        config_.initial_stiffness.cols() != n) {
      return util::InvalidArgument(
          "operator splitting requires an n x n initial stiffness");
    }
    // Meff = M + gamma dt C + beta dt^2 K0, beta = 1/4, gamma = 1/2.
    const structural::Matrix meff =
        config_.mass + config_.damping * (0.5 * dt) +
        config_.initial_stiffness * (0.25 * dt * dt);
    NEES_ASSIGN_OR_RETURN(meff_lu_,
                          structural::LuFactorization::Compute(meff));
    v_.assign(n, 0.0);
    // At-rest start: a_0 = M^-1 f_0 with r(0) = 0.
    NEES_ASSIGN_OR_RETURN(structural::LuFactorization mass_lu,
                          structural::LuFactorization::Compute(config_.mass));
    const structural::Vector f0 =
        (config_.motion.accel.empty() ? 0.0 : -config_.motion.accel[0]) *
        (config_.mass * config_.iota);
    a_ = mass_lu.Solve(f0);
    history_.acceleration.push_back(a_);
  }
  initialized_ = true;
  return util::OkStatus();
}

template <typename Issue, typename Finish>
util::Status SimulationCoordinator::RunPhase(obs::Atom span_name, Issue issue,
                                             Finish finish) {
  const std::size_t site_count = config_.sites.size();
  std::vector<ntcp::NtcpClient::AsyncOp>& ops = ops_scratch_;
  if (ops.size() != site_count) ops.resize(site_count);
  std::vector<std::uint64_t>& site_spans = site_spans_scratch_;
  site_spans.assign(site_count, 0);
  std::vector<char>& open = site_open_scratch_;
  open.assign(site_count, 0);
  // kAsync issues every site in one window; kSequential issues a window of
  // one site at a time.
  const std::size_t window =
      config_.step_engine == StepEngine::kAsync ? site_count : 1;
  util::Status first_error;
  std::size_t first_error_site = site_count;
  // Closing a site records its step time, decodes its op and ends its span.
  // Sites may close out of order; the reported error is the lowest site's.
  auto close_site = [&](std::size_t i) {
    site_stats_[i].step_micros.Add(
        static_cast<double>(ops[i].elapsed_micros()));
    const util::Status status = finish(i, ops[i]);
    if (config_.tracer != nullptr) config_.tracer->EndSpanId(site_spans[i]);
    if (!status.ok() && i < first_error_site) {
      first_error = status;
      first_error_site = i;
    }
  };
  for (std::size_t begin = 0; begin < site_count; begin += window) {
    const std::size_t end = std::min(begin + window, site_count);
    for (std::size_t i = begin; i < end; ++i) {
      // Explicit span parenting: every site's spans are created from this
      // one thread, so the implicit per-thread span stack cannot tell them
      // apart. The span still joins that stack, as does the op's protocol
      // span, so server spans that run inline during issue nest inside it.
      if (config_.tracer != nullptr) {
        site_spans[i] = config_.tracer->BeginSpanId(
            span_name, kCoordination, step_span_id_,
            {{kSite, site_atoms_[i]}});
      }
      ops[i] = issue(i, site_spans[i]);
      // An op that resolved during issue (kImmediate delivers inline) is
      // closed before the next site is issued, so both engines record the
      // same spans in the same order.
      if (ops[i].finished()) {
        close_site(i);
      } else {
        open[i] = 1;
      }
    }
    ntcp::NtcpClient::AwaitAll(
        std::span<ntcp::NtcpClient::AsyncOp>(ops).subspan(begin, end - begin));
    for (std::size_t i = begin; i < end; ++i) {
      if (open[i]) close_site(i);
    }
  }
  return first_error;
}

util::Status SimulationCoordinator::ProposeAll(
    const std::vector<std::string>& transaction_ids,
    const structural::Vector& displacement, std::vector<char>& accepted) {
  if (proposal_scratch_.size() != config_.sites.size()) {
    proposal_scratch_.resize(config_.sites.size());
  }
  return RunPhase(
      kProposeSpan,
      [&](std::size_t i, std::uint64_t span_id) {
        const SubstructureSite& site = config_.sites[i];
        // The scratch proposal's strings and vectors keep their capacity
        // from the previous step, so refilling them allocates nothing.
        ntcp::Proposal& proposal = proposal_scratch_[i];
        proposal.transaction_id.assign(transaction_ids[i]);
        proposal.step_index = static_cast<std::int64_t>(step_);
        proposal.timeout_micros = config_.proposal_timeout_micros;
        if (proposal.actions.size() != 1) proposal.actions.resize(1);
        ntcp::ControlPointRequest& action = proposal.actions[0];
        action.control_point.assign(site.control_point);
        action.target_displacement.clear();
        for (std::size_t dof : site.dofs) {
          action.target_displacement.push_back(displacement[dof]);
        }
        action.target_force.clear();
        return clients_[i]->ProposeAsync(proposal, span_id);
      },
      [&](std::size_t i, ntcp::NtcpClient::AsyncOp& op) {
        ++site_stats_[i].proposals;
        const util::Status status = ntcp::NtcpClient::FinishPropose(op);
        if (status.ok()) {
          accepted[i] = 1;
          return status;
        }
        return util::Status(status.code(), "propose to " +
                                               config_.sites[i].name +
                                               " failed: " + status.message());
      });
}

util::Status SimulationCoordinator::ExecuteAll(
    const std::vector<std::string>& transaction_ids,
    std::vector<ntcp::TransactionResult>& results,
    std::vector<char>& executed) {
  return RunPhase(
      kExecuteSpan,
      [&](std::size_t i, std::uint64_t span_id) {
        return clients_[i]->ExecuteAsync(transaction_ids[i], span_id);
      },
      [&](std::size_t i, ntcp::NtcpClient::AsyncOp& op) {
        const SubstructureSite& site = config_.sites[i];
        ++site_stats_[i].executes;
        // Decoded into the previous step's storage, which keeps its
        // capacity.
        const util::Status status =
            ntcp::NtcpClient::FinishExecute(op, results[i]);
        if (!status.ok()) {
          return util::Status(status.code(), "execute at " + site.name +
                                                 " failed: " +
                                                 status.message());
        }
        const ntcp::ControlPointResult* cp =
            results[i].Find(site.control_point);
        if (cp == nullptr || cp->measured_force.size() != site.dofs.size()) {
          return util::Internal("invalid response from " + site.name +
                                ": missing/mis-sized control point result");
        }
        executed[i] = 1;
        return util::OkStatus();
      });
}

util::Status SimulationCoordinator::CycleOnce(
    int attempt, const structural::Vector& displacement,
    structural::Vector& forces,
    std::vector<ntcp::TransactionResult>& results) {
  const std::size_t n = config_.mass.rows();
  const std::size_t site_count = config_.sites.size();

  // Phase 1: propose to ALL sites before executing anywhere. A rejection
  // or loss here leaves every specimen untouched.
  std::vector<std::string>& transaction_ids = txn_ids_scratch_;
  if (transaction_ids.size() != site_count) {
    transaction_ids.resize(site_count);
  }
  std::vector<char>& accepted = accepted_scratch_;
  accepted.assign(site_count, 0);
  char suffix[64];
  std::snprintf(suffix, sizeof suffix, "-s%zu-a%d-", step_, attempt);
  for (std::size_t i = 0; i < site_count; ++i) {
    // Built in place ("<run>-s<step>-a<attempt>-<site>") so the scratch
    // string's capacity is reused step over step.
    std::string& id = transaction_ids[i];
    id.assign(config_.run_id);
    id.append(suffix);
    id.append(config_.sites[i].name);
  }
  const std::int64_t propose_t0 = clock_->NowMicros();
  const util::Status proposed =
      ProposeAll(transaction_ids, displacement, accepted);
  // One read ends the propose phase and starts the execute phase: nothing
  // between them can move the clock.
  const std::int64_t execute_t0 = clock_->NowMicros();
  propose_phase_micros_.Add(static_cast<double>(execute_t0 - propose_t0));
  if (!proposed.ok()) {
    // §2.1: "If any of the requested proposals is rejected, the client may
    // send a request to cancel the transaction." Release the accepted
    // transactions so a later attempt starts from a clean table.
    for (std::size_t i = 0; i < site_count; ++i) {
      if (accepted[i]) (void)clients_[i]->Cancel(transaction_ids[i]);
    }
    return proposed;
  }

  // Phase 2: execute everywhere and collect measured forces. Each site's
  // result decodes over the slot it filled last step.
  results.resize(site_count);
  std::vector<char>& executed = executed_scratch_;
  executed.assign(site_count, 0);
  const util::Status exec_status =
      ExecuteAll(transaction_ids, results, executed);
  execute_phase_micros_.Add(
      static_cast<double>(clock_->NowMicros() - execute_t0));
  for (std::size_t i = 0; i < site_count; ++i) {
    WalLogSiteOutcome(transaction_ids[i], config_.sites[i].name,
                      executed[i] != 0);
  }
  if (!exec_status.ok()) {
    // A failed execute phase abandons this attempt, and the re-proposal
    // runs under fresh transaction ids — so cancel the accepted-but-not-
    // executed transactions here, exactly like the propose-failure path.
    // Without this they sit in the servers' tables until expiry. A site
    // that completed server-side but lost its reply rejects the cancel
    // (kCompleted is terminal), which is harmless best-effort cleanup.
    for (std::size_t i = 0; i < site_count; ++i) {
      if (accepted[i] && !executed[i]) {
        (void)clients_[i]->Cancel(transaction_ids[i]);
      }
    }
    return exec_status;
  }

  // Assemble the restoring force vector on the coordinator thread.
  forces.assign(n, 0.0);
  for (std::size_t i = 0; i < site_count; ++i) {
    const SubstructureSite& site = config_.sites[i];
    const ntcp::ControlPointResult* cp =
        results[i].Find(site.control_point);
    for (std::size_t k = 0; k < site.dofs.size(); ++k) {
      forces[site.dofs[k]] += cp->measured_force[k];
    }
  }
  NEES_CHECK_INVARIANT(
      std::all_of(forces.begin(), forces.end(),
                  [](double f) { return std::isfinite(f); }),
      "assembled restoring forces must be finite before integration");
  return util::OkStatus();
}

util::Status SimulationCoordinator::RunNtcpCycle(
    const structural::Vector& displacement, structural::Vector& forces,
    std::vector<ntcp::TransactionResult>& results) {
  const int max_attempts =
      config_.fault_policy == FaultPolicy::kFaultTolerant
          ? std::max(config_.max_step_attempts, 1)
          : 1;
  util::Status last = util::Internal("step attempt loop did not run");
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    last = CycleOnce(attempt, displacement, forces, results);
    if (last.ok()) {
      if (attempt > 1) ++transient_recovered_;
      return last;
    }
    // Configuration/policy errors will not improve with a new transaction.
    if (last.code() == util::ErrorCode::kPolicyViolation ||
        last.code() == util::ErrorCode::kPermissionDenied ||
        last.code() == util::ErrorCode::kInvalidArgument ||
        last.code() == util::ErrorCode::kSafetyInterlock) {
      return last;
    }
    if (attempt < max_attempts) {
      NEES_LOG_WARN("psd.coordinator")
          << "step " << step_ << " attempt " << attempt
          << " failed (" << last.ToString() << "); re-proposing";
      for (SiteStats& stats : site_stats_) ++stats.step_reattempts;
    }
  }
  return last;
}

util::Result<bool> SimulationCoordinator::StepCentralDifference(
    std::vector<ntcp::TransactionResult>& results) {
  Integration& w = integration_;
  NEES_RETURN_IF_ERROR(RunNtcpCycle(d_, w.forces, results));

  // Central-difference update with the *measured* restoring forces:
  //   rhs = f - forces + 2M/dt^2 d - kback d_prev,  f = -ag M iota,
  // evaluated element by element in that order into reused vectors.
  const std::int64_t integrate_t0 =
      config_.tracer != nullptr ? clock_->NowMicros() : 0;
  const double dt = config_.motion.dt_seconds;
  const double ground = -config_.motion.accel[step_];
  config_.mass.MultiplyInto(config_.iota, w.m_iota);
  two_m_.MultiplyInto(d_, w.product_a);
  kback_.MultiplyInto(d_prev_, w.product_b);
  const std::size_t n = d_.size();
  w.rhs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.rhs[i] = ground * w.m_iota[i] - w.forces[i] + w.product_a[i] -
               w.product_b[i];
  }
  keff_lu_.SolveInto(w.rhs, w.next);
  if (config_.tracer != nullptr) {
    config_.tracer->RecordInterval(step_span_id_, kIntegrateSpan,
                                   kIntegrateCategory, integrate_t0,
                                   clock_->NowMicros());
  }

  const double half_over_dt = 1.0 / (2.0 * dt);
  const double over_dt2 = 1.0 / (dt * dt);
  w.velocity.resize(n);
  w.acceleration.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.velocity[i] = half_over_dt * (w.next[i] - d_prev_[i]);
    w.acceleration[i] =
        over_dt2 * (w.next[i] - 2.0 * d_[i] + d_prev_[i]);
  }

  d_prev_.swap(d_);
  d_.swap(w.next);
  history_.displacement.push_back(d_);
  history_.velocity.push_back(w.velocity);
  history_.acceleration.push_back(w.acceleration);
  ++step_;
  WalLogStepComplete();

  if (observer_) observer_(step_ - 1, d_prev_, results);
  return true;
}

util::Result<bool> SimulationCoordinator::StepOperatorSplitting(
    std::vector<ntcp::TransactionResult>& results) {
  Integration& w = integration_;
  const double dt = config_.motion.dt_seconds;
  constexpr double beta = 0.25;
  constexpr double gamma = 0.5;

  // Explicit predictor: the displacement commanded to the substructures.
  const std::size_t n = d_.size();
  const double predict_a = dt * dt * (0.5 - beta);
  const double predict_v = dt * (1.0 - gamma);
  w.d_tilde.resize(n);
  w.v_tilde.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.d_tilde[i] = d_[i] + dt * v_[i] + predict_a * a_[i];
    w.v_tilde[i] = v_[i] + predict_v * a_[i];
  }

  NEES_RETURN_IF_ERROR(RunNtcpCycle(w.d_tilde, w.forces, results));

  const std::int64_t integrate_t0 =
      config_.tracer != nullptr ? clock_->NowMicros() : 0;
  const double ground = -config_.motion.accel[step_ + 1];
  config_.mass.MultiplyInto(config_.iota, w.m_iota);
  config_.damping.MultiplyInto(w.v_tilde, w.product_a);
  w.rhs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.rhs[i] = ground * w.m_iota[i] - w.product_a[i] - w.forces[i];
  }
  meff_lu_.SolveInto(w.rhs, w.next);
  if (config_.tracer != nullptr) {
    config_.tracer->RecordInterval(step_span_id_, kIntegrateSpan,
                                   kIntegrateCategory, integrate_t0,
                                   clock_->NowMicros());
  }

  const double correct_d = beta * dt * dt;
  const double correct_v = gamma * dt;
  d_prev_ = d_;
  for (std::size_t i = 0; i < n; ++i) {
    d_[i] = w.d_tilde[i] + correct_d * w.next[i];
    v_[i] = w.v_tilde[i] + correct_v * w.next[i];
  }
  a_.swap(w.next);
  history_.displacement.push_back(d_);
  history_.velocity.push_back(v_);
  history_.acceleration.push_back(a_);
  ++step_;
  WalLogStepComplete();

  if (observer_) observer_(step_ - 1, w.d_tilde, results);
  return true;
}

util::Result<bool> SimulationCoordinator::ExecuteStep() {
  if (history_released_) {
    return util::FailedPrecondition(
        "Run() already returned this run's history; Restore a checkpoint "
        "to step again");
  }
  NEES_RETURN_IF_ERROR(EnsureInitialized());
  NEES_CHECK_INVARIANT(history_.displacement.size() == step_ + 1,
                       "history must hold exactly one record per step at a "
                       "step boundary");
  if (step_ + 1 >= config_.motion.steps()) return false;
  obs::Span step_span;
  step_span_id_ = 0;
  if (config_.tracer != nullptr) {
    step_span = config_.tracer->StartSpan(kStepSpan, kStepCategory);
    step_span.AddTag(kStep, step_);
    step_span_id_ = step_span.id();
  }
  std::vector<ntcp::TransactionResult>& results = integration_.results;
  util::Result<bool> advanced =
      config_.integrator == PsdIntegrator::kCentralDifference
          ? StepCentralDifference(results)
          : StepOperatorSplitting(results);
  if (config_.tracer != nullptr) {
    config_.tracer->metrics().Increment(advanced.ok() ? "psd.steps"
                                                      : "psd.step_failures");
  }
  if (advanced.ok() && *advanced) {
    NEES_CHECK_INVARIANT(history_.displacement.size() == step_ + 1,
                         "a completed step must append exactly one "
                         "displacement record");
  }
  step_span_id_ = 0;
  return advanced;
}

RunReport SimulationCoordinator::Run() {
  RunReport report;
  report.total_steps = config_.motion.steps() == 0
                           ? 0
                           : config_.motion.steps() - 1;
  const util::Stopwatch watch;
  for (;;) {
    auto advanced = ExecuteStep();
    if (!advanced.ok()) {
      report.failure = advanced.status();
      NEES_LOG_ERROR("psd.coordinator")
          << config_.run_id << " terminated at step " << step_ << "/"
          << report.total_steps << ": " << report.failure.ToString();
      break;
    }
    if (!*advanced) {
      report.completed = true;
      break;
    }
  }
  report.steps_completed = step_;
  // Moved, not copied: the history is the run's product, and a copy costs
  // three vectors per step.
  report.history = std::move(history_);
  history_released_ = true;
  report.site_stats = site_stats();
  report.transient_faults_recovered = transient_recovered_;
  for (const auto& client : clients_) {
    report.transient_faults_recovered += client->stats().recovered;
  }
  report.wall_seconds = watch.ElapsedSeconds();
  report.propose_phase_micros = propose_phase_micros_;
  report.execute_phase_micros = execute_phase_micros_;
  report.wal_records = wal_records_;
  report.wal_sync_failures = wal_sync_failures_;
  return report;
}

void SimulationCoordinator::WalLogStepComplete() {
  if (wal_ == nullptr) return;
  util::ByteWriter writer(std::move(wal_buffer_));
  writer.WriteU64(static_cast<std::uint64_t>(step_));
  writer.WriteDoubleVector(d_);
  writer.WriteDoubleVector(d_prev_);
  writer.WriteDoubleVector(v_);
  writer.WriteDoubleVector(a_);
  writer.WriteDoubleVector(history_.velocity.back());
  writer.WriteDoubleVector(history_.acceleration.back());
  if (wal_->Append(kWalStepComplete, writer.data()).ok()) ++wal_records_;
  wal_buffer_ = writer.Take();
  WalSync();  // the coordinator's one fsync point per step
}

void SimulationCoordinator::WalLogSiteOutcome(
    const std::string& transaction_id, const std::string& site,
    bool executed) {
  if (wal_ == nullptr) return;
  util::ByteWriter writer(std::move(wal_buffer_));
  writer.WriteU64(static_cast<std::uint64_t>(step_));
  writer.WriteString(site);
  writer.WriteString(transaction_id);
  writer.WriteBool(executed);
  if (wal_->Append(kWalSiteOutcome, writer.data()).ok()) ++wal_records_;
  wal_buffer_ = writer.Take();
}

void SimulationCoordinator::WalSync() {
  if (wal_ == nullptr) return;
  const util::Status status = wal_->Sync();
  if (!status.ok()) {
    ++wal_sync_failures_;
    NEES_LOG_ERROR("psd.coordinator")
        << "WAL sync failed: " << status.ToString();
  }
}

util::Result<CoordinatorWalRecovery> SimulationCoordinator::AttachWal(
    wal::Log* log) {
  NEES_RETURN_IF_ERROR(EnsureInitialized());
  CoordinatorWalRecovery recovery;
  NEES_ASSIGN_OR_RETURN(std::vector<wal::Record> records, log->Open());
  recovery.records_replayed = records.size();

  const std::size_t n = config_.mass.rows();
  const std::size_t total_steps =
      config_.motion.steps() == 0 ? 0 : config_.motion.steps() - 1;
  std::size_t last_outcome_step = 0;
  bool saw_outcome = false;
  bool saw_begin = false;

  for (const wal::Record& rec : records) {
    util::ByteReader reader(rec.payload);
    if (rec.type == kWalRunBegin) {
      NEES_ASSIGN_OR_RETURN(std::string run_id, reader.ReadString());
      NEES_ASSIGN_OR_RETURN(std::uint64_t steps, reader.ReadU64());
      NEES_ASSIGN_OR_RETURN(std::uint64_t dofs, reader.ReadU64());
      if (run_id != config_.run_id || steps != total_steps || dofs != n) {
        return util::InvalidArgument(util::Format(
            "WAL belongs to a different run: log has (%s, %llu steps, %llu "
            "DOFs), config is (%s, %zu steps, %zu DOFs)",
            run_id.c_str(), static_cast<unsigned long long>(steps),
            static_cast<unsigned long long>(dofs), config_.run_id.c_str(),
            total_steps, n));
      }
      saw_begin = true;
    } else if (rec.type == kWalStepComplete) {
      NEES_ASSIGN_OR_RETURN(std::uint64_t step, reader.ReadU64());
      NEES_ASSIGN_OR_RETURN(structural::Vector d, reader.ReadDoubleVector());
      NEES_ASSIGN_OR_RETURN(structural::Vector d_prev,
                            reader.ReadDoubleVector());
      NEES_ASSIGN_OR_RETURN(structural::Vector v, reader.ReadDoubleVector());
      NEES_ASSIGN_OR_RETURN(structural::Vector a, reader.ReadDoubleVector());
      NEES_ASSIGN_OR_RETURN(structural::Vector v_row,
                            reader.ReadDoubleVector());
      NEES_ASSIGN_OR_RETURN(structural::Vector a_row,
                            reader.ReadDoubleVector());
      if (step != step_ + 1 || d.size() != n) {
        return util::DataLoss(util::Format(
            "WAL step-complete record out of sequence: log says step %llu, "
            "coordinator has replayed %zu",
            static_cast<unsigned long long>(step), step_));
      }
      d_ = std::move(d);
      d_prev_ = std::move(d_prev);
      v_ = std::move(v);
      a_ = std::move(a);
      history_.displacement.push_back(d_);
      history_.velocity.push_back(std::move(v_row));
      history_.acceleration.push_back(std::move(a_row));
      step_ = step;
      ++recovery.steps_recovered;
    } else if (rec.type == kWalSiteOutcome) {
      NEES_ASSIGN_OR_RETURN(std::uint64_t step, reader.ReadU64());
      last_outcome_step = step;
      saw_outcome = true;
      ++recovery.site_outcomes_replayed;
    } else {
      return util::DataLoss(util::Format(
          "coordinator WAL record has unknown type %u",
          static_cast<unsigned>(rec.type)));
    }
  }
  if (!records.empty() && !saw_begin) {
    return util::DataLoss("coordinator WAL lacks its run-begin record");
  }
  recovery.mid_step = saw_outcome && last_outcome_step >= step_;

  // Only attach once replay succeeded: a corrupt log must not be appended
  // to. A fresh log gets the run-begin stamp now.
  wal_ = log;
  if (records.empty()) {
    util::ByteWriter writer;
    writer.WriteString(config_.run_id);
    writer.WriteU64(static_cast<std::uint64_t>(total_steps));
    writer.WriteU64(static_cast<std::uint64_t>(n));
    if (wal_->Append(kWalRunBegin, writer.Take()).ok()) ++wal_records_;
    WalSync();
  }
  if (config_.tracer != nullptr && !records.empty()) {
    config_.tracer->RecordEvent(
        "psd.recover", kStepCategory, 0,
        {{"run", config_.run_id},
         {"steps_recovered", recovery.steps_recovered},
         {"mid_step", recovery.mid_step ? 1 : 0}});
  }
  return recovery;
}

Checkpoint SimulationCoordinator::GetCheckpoint() const {
  NEES_CHECK_INVARIANT(!history_released_,
                       "a checkpoint taken after Run() has no history");
  Checkpoint checkpoint;
  checkpoint.step = step_;
  checkpoint.d = d_;
  checkpoint.d_prev = d_prev_;
  checkpoint.v = v_;
  checkpoint.a = a_;
  checkpoint.history = history_;
  return checkpoint;
}

util::Status SimulationCoordinator::Restore(const Checkpoint& checkpoint) {
  NEES_RETURN_IF_ERROR(EnsureInitialized());
  if (checkpoint.d.size() != config_.mass.rows()) {
    return util::InvalidArgument("checkpoint dimension mismatch");
  }
  if (config_.integrator == PsdIntegrator::kOperatorSplitting &&
      (checkpoint.v.size() != config_.mass.rows() ||
       checkpoint.a.size() != config_.mass.rows())) {
    return util::InvalidArgument(
        "checkpoint lacks the operator-splitting (v, a) state");
  }
  step_ = checkpoint.step;
  d_ = checkpoint.d;
  d_prev_ = checkpoint.d_prev;
  v_ = checkpoint.v;
  a_ = checkpoint.a;
  history_ = checkpoint.history;
  history_released_ = false;
  return util::OkStatus();
}

std::vector<SiteStats> SimulationCoordinator::site_stats() const {
  std::vector<SiteStats> stats = site_stats_;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    stats[i].rpc_retries = clients_[i]->stats().retries;
  }
  return stats;
}

}  // namespace nees::psd
