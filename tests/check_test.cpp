// Tests for the nees-lint protocol conformance checker: a realistic server
// scenario (including transactions that expire mid-experiment) must lint
// clean, the seeded corruption helpers must be caught with exactly the
// expected rule sets, hand-built bad traces must trip each rule, and a
// full traced MOST run must conform end-to-end.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "check/checker.h"
#include "check/corrupt.h"
#include "check/invariant.h"
#include "most/most.h"
#include "net/network.h"
#include "ntcp/server.h"
#include "ntcp/types.h"
#include "plugins/simulation_plugin.h"
#include "structural/substructure.h"
#include "util/clock.h"

namespace nees::check {
namespace {

ntcp::Proposal MakeProposal(const std::string& id, std::int64_t step,
                            std::int64_t timeout_micros = 60'000'000) {
  ntcp::Proposal proposal;
  proposal.transaction_id = id;
  proposal.step_index = step;
  ntcp::ControlPointRequest action;
  action.control_point = "cp";
  action.target_displacement = {0.001};
  proposal.actions.push_back(std::move(action));
  proposal.timeout_micros = timeout_micros;
  return proposal;
}

std::unique_ptr<plugins::SimulationPlugin> MakeElasticPlugin() {
  auto plugin = std::make_unique<plugins::SimulationPlugin>();
  structural::Matrix k(1, 1);
  k(0, 0) = 1000.0;
  plugin->AddControlPoint(
      "cp", std::make_unique<structural::ElasticSubstructure>(k));
  return plugin;
}

/// Drives one NTCP server through the interesting protocol paths —
/// complete, duplicate propose+execute, expire on the execute path, expire
/// via the sweep, cancel — and returns the recorded trace.
obs::Trace RecordScenarioTrace() {
  util::SimClock clock{1'000'000};
  obs::Tracer tracer(&clock, &clock);
  net::Network network;
  network.SetClock(&clock);
  ntcp::NtcpServer server(&network, "ntcp.test", MakeElasticPlugin(), &clock);
  server.set_tracer(&tracer);

  // Step 0: the happy path, then a duplicated propose and execute.
  const ntcp::Proposal ok = MakeProposal("t-ok", 0);
  EXPECT_TRUE(server.Propose(ok).accepted);
  EXPECT_TRUE(server.Execute("t-ok").ok());
  EXPECT_TRUE(server.Propose(ok).accepted);      // duplicate -> same answer
  EXPECT_TRUE(server.Execute("t-ok").ok());      // duplicate -> cached result

  // Step 1: expires mid-experiment on the execute path.
  EXPECT_TRUE(server.Propose(MakeProposal("t-exp", 1, 1'000)).accepted);
  clock.Advance(2'000);
  EXPECT_EQ(server.Execute("t-exp").status().code(),
            util::ErrorCode::kFailedPrecondition);

  // Step 2: expires via the periodic sweep instead.
  EXPECT_TRUE(server.Propose(MakeProposal("t-sweep", 2, 1'000)).accepted);
  clock.Advance(2'000);
  EXPECT_EQ(server.ExpireStale(), 1);

  // Step 3: cancelled before execution.
  EXPECT_TRUE(server.Propose(MakeProposal("t-can", 3)).accepted);
  EXPECT_TRUE(server.Cancel("t-can").ok());

  EXPECT_EQ(server.stats().expired, 2u);
  EXPECT_EQ(server.stats().duplicate_proposals, 1u);
  EXPECT_EQ(server.stats().duplicate_executes, 1u);
  return tracer.TakeTrace();
}

std::vector<obs::SpanRecord> RecordScenarioSpans() {
  return obs::Materialize(RecordScenarioTrace());
}

obs::SpanRecord Event(std::uint64_t id, const std::string& txn,
                      const std::string& from, const std::string& to,
                      std::int64_t at, std::int64_t step = -1,
                      std::int64_t timeout = 60'000'000) {
  obs::SpanRecord event;
  event.id = id;
  event.name = "ntcp.txn";
  event.category = "txn";
  event.start_micros = at;
  event.end_micros = at;
  event.tags = {{"txn", txn},
                {"endpoint", "ntcp.hand"},
                {"from", obs::Atom(from)},
                {"to", obs::Atom(to)},
                {"step", step},
                {"at", at},
                {"timeout", timeout}};
  return event;
}

std::set<Rule> Rules(const LintReport& report) {
  std::set<Rule> rules;
  for (const Violation& violation : report.violations) {
    rules.insert(violation.rule);
  }
  return rules;
}

// --- real server traces ------------------------------------------------------

TEST(CheckTest, ExpiredMidExperimentTraceIsLintClean) {
  const LintReport report = LintSpans(RecordScenarioSpans());
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.stats.transactions, 4u);
  EXPECT_EQ(report.stats.endpoints, 1u);
  // 4 creations + accept x4 + executing/completed + expired x2 + cancelled
  // + 2 dup events.
  EXPECT_GE(report.stats.protocol_events, 13u);
}

TEST(CheckTest, SeededCorruptionsReportExactRules) {
  const std::vector<obs::SpanRecord> spans = RecordScenarioSpans();
  ASSERT_TRUE(LintSpans(spans).ok());

  auto illegal = SeedIllegalTransition(spans);
  ASSERT_TRUE(illegal.ok());
  EXPECT_EQ(Rules(LintSpans(*illegal)),
            (std::set<Rule>{Rule::kIllegalTransition}));

  auto duplicate = SeedDuplicateExecute(spans);
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(Rules(LintSpans(*duplicate)),
            (std::set<Rule>{Rule::kIllegalTransition,
                            Rule::kDuplicateExecute}));

  auto skipped = SeedSkippedStep(spans);
  ASSERT_TRUE(skipped.ok());
  const LintReport skip_report = LintSpans(*skipped);
  EXPECT_EQ(Rules(skip_report), (std::set<Rule>{Rule::kStepMonotonicity}));
  ASSERT_EQ(skip_report.violations.size(), 1u);
  EXPECT_EQ(skip_report.violations[0].step, 2);  // step 1 erased: 0 -> 2

  const LintReport expiry_report = LintSpans(SeedBogusExpiry(spans));
  EXPECT_EQ(Rules(expiry_report), (std::set<Rule>{Rule::kBogusExpiry}));
  ASSERT_EQ(expiry_report.violations.size(), 1u);
  EXPECT_EQ(expiry_report.violations[0].transaction_id, "seeded-expiry");
}

TEST(CheckTest, TracedMostRunConforms) {
  util::SimClock sim;
  obs::Tracer tracer(&sim, &sim);
  net::Network network;
  network.SetClock(&sim);
  most::MostOptions options;
  options.steps = 10;
  options.hybrid = false;
  options.tracer = &tracer;
  most::MostExperiment experiment(&network, &sim, options);
  auto report = experiment.Run(psd::FaultPolicy::kFaultTolerant, "lintmost");
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->completed);

  const LintReport lint = LintSpans(tracer.Snapshot());
  EXPECT_TRUE(lint.ok()) << lint.ToString();
  EXPECT_EQ(lint.stats.endpoints, 3u);  // uiuc, ncsa, cu
  EXPECT_EQ(lint.stats.transactions, 3 * report->steps_completed);
}

TEST(CheckTest, TracedAsyncEngineRunWithFaultsConforms) {
  // The completion-driven engine overlaps all three sites' transactions and
  // multiplexes retries on the coordinator thread; its trace must still obey
  // every protocol rule — including across recovered transient faults.
  util::SimClock sim;
  obs::Tracer tracer(&sim, &sim);
  net::Network network;
  network.SetClock(&sim);
  most::MostOptions options;
  options.steps = 40;
  options.hybrid = false;
  options.tracer = &tracer;
  options.step_engine = psd::StepEngine::kAsync;
  most::MostExperiment experiment(&network, &sim, options);
  ASSERT_TRUE(experiment.Start().ok());

  net::RpcClient rpc(&network, "lintasync.coordinator");
  auto config = experiment.MakeCoordinatorConfig(
      psd::FaultPolicy::kFaultTolerant, "lintasync");
  config.retry.initial_backoff_micros = 1'000;
  psd::SimulationCoordinator coordinator(config, &rpc, &sim);
  most::MostFaultSchedule faults(&network, "lintasync.coordinator",
                                 most::MostExperiment::kNtcpCu);
  faults.AddTransientBurst(10, 1);
  faults.AddTransientBurst(25, 2);
  coordinator.SetStepObserver(
      [&](std::size_t step, const structural::Vector&,
          const std::vector<ntcp::TransactionResult>&) { faults.OnStep(step); });
  const psd::RunReport report = coordinator.Run();
  ASSERT_TRUE(report.completed) << report.failure.ToString();
  EXPECT_GE(report.transient_faults_recovered, 2u);

  const LintReport lint = LintSpans(tracer.Snapshot());
  EXPECT_TRUE(lint.ok()) << lint.ToString();
  EXPECT_EQ(lint.stats.endpoints, 3u);
  EXPECT_GE(lint.stats.transactions, 3 * report.steps_completed);
}

// --- hand-built traces tripping each rule ------------------------------------

TEST(CheckTest, MissingCreationReported) {
  const LintReport report =
      LintSpans({Event(1, "ghost", "proposed", "accepted", 100)});
  EXPECT_EQ(Rules(report), (std::set<Rule>{Rule::kIllegalTransition,
                                           Rule::kNonTerminal}));
}

TEST(CheckTest, NonTerminalTransactionReported) {
  const LintReport report =
      LintSpans({Event(1, "open", "none", "proposed", 100, /*step=*/5)});
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, Rule::kNonTerminal);
  EXPECT_EQ(report.violations[0].transaction_id, "open");
  EXPECT_EQ(report.violations[0].step, 5);
}

TEST(CheckTest, OrphanParentReported) {
  obs::SpanRecord orphan;
  orphan.id = 1;
  orphan.parent_id = 99;
  orphan.name = "site.propose";
  orphan.category = "coordination";
  orphan.start_micros = 0;
  orphan.end_micros = 10;
  EXPECT_EQ(Rules(LintSpans({orphan})), (std::set<Rule>{Rule::kSpanNesting}));
}

TEST(CheckTest, ChildEscapingStepSpanReported) {
  obs::SpanRecord step;
  step.id = 1;
  step.name = "psd.step";
  step.category = "step";
  step.start_micros = 0;
  step.end_micros = 100;
  obs::SpanRecord child;
  child.id = 2;
  child.parent_id = 1;
  child.name = "site.execute";
  child.category = "coordination";
  child.start_micros = 50;
  child.end_micros = 200;  // outlives the PSD step it claims to serve
  EXPECT_EQ(Rules(LintSpans({step, child})),
            (std::set<Rule>{Rule::kSpanNesting}));
}

TEST(CheckTest, ReorderedStepReported) {
  const LintReport report = LintSpans({
      Event(1, "a", "none", "proposed", 100, /*step=*/1),
      Event(2, "a", "proposed", "cancelled", 110, /*step=*/1),
      Event(3, "b", "none", "proposed", 120, /*step=*/0),  // goes backwards
      Event(4, "b", "proposed", "cancelled", 130, /*step=*/0),
  });
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, Rule::kStepMonotonicity);
  EXPECT_EQ(report.violations[0].transaction_id, "b");
}

TEST(CheckTest, DuplicateForUnknownTransactionReported) {
  obs::SpanRecord dup;
  dup.id = 1;
  dup.name = "ntcp.dup";
  dup.category = "txn";
  dup.start_micros = 100;
  dup.end_micros = 100;
  dup.tags = {{"txn", "never-created"},
              {"endpoint", "ntcp.hand"},
              {"kind", "execute"},
              {"state", "completed"}};
  EXPECT_EQ(Rules(LintSpans({dup})), (std::set<Rule>{Rule::kAtMostOnce}));
}

// --- crash consistency (docs/RECOVERY.md restart state machine) --------------

obs::SpanRecord Marker(std::uint64_t id, const std::string& name,
                       std::int64_t at,
                       const std::string& endpoint = "ntcp.hand") {
  obs::SpanRecord event;
  event.id = id;
  event.name = obs::Atom(name);
  event.category = "fault";
  event.start_micros = at;
  event.end_micros = at;
  event.tags = {{"endpoint", obs::Atom(endpoint)}};
  return event;
}

TEST(CheckTest, CrashRestartRecoveryTraceIsClean) {
  // The canonical crash window: intent durable, process dies mid-execute,
  // the revived incarnation replays the log and crash-marks the in-flight
  // transaction executing -> failed.
  std::vector<obs::SpanRecord> spans = {
      Event(1, "t-c", "none", "proposed", 100, /*step=*/0),
      Event(2, "t-c", "proposed", "accepted", 110, /*step=*/0),
      Event(3, "t-c", "accepted", "executing", 120, /*step=*/0),
      Marker(4, "site.crash", 130),
      Marker(5, "site.restart", 140),
      Marker(6, "ntcp.recover", 150),
  };
  obs::SpanRecord mark = Event(7, "t-c", "executing", "failed", 160,
                               /*step=*/0);
  mark.tags.push_back({"cause", "crash-recovery"});
  spans.push_back(mark);
  const LintReport report = LintSpans(spans);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(CheckTest, ProtocolEventFromDeadEndpointReported) {
  obs::SpanRecord dup;
  dup.id = 6;
  dup.name = "ntcp.dup";
  dup.category = "txn";
  dup.start_micros = 200;
  dup.end_micros = 200;
  dup.tags = {{"txn", "t-d"},
              {"endpoint", "ntcp.hand"},
              {"kind", "execute"},
              {"state", "completed"}};
  const LintReport report = LintSpans({
      Event(1, "t-d", "none", "proposed", 100, /*step=*/0),
      Event(2, "t-d", "proposed", "accepted", 110, /*step=*/0),
      Event(3, "t-d", "accepted", "executing", 120, /*step=*/0),
      Event(4, "t-d", "executing", "completed", 130, /*step=*/0),
      Marker(5, "site.crash", 140),
      dup,  // a dead process cannot answer retries
  });
  EXPECT_EQ(Rules(report), (std::set<Rule>{Rule::kCrashConsistency}));
}

TEST(CheckTest, RecoveryWithoutCrashReported) {
  EXPECT_EQ(Rules(LintSpans({Marker(1, "ntcp.recover", 100)})),
            (std::set<Rule>{Rule::kCrashConsistency}));
}

TEST(CheckTest, RestartWithoutCrashReported) {
  EXPECT_EQ(Rules(LintSpans({Marker(1, "site.restart", 100)})),
            (std::set<Rule>{Rule::kCrashConsistency}));
}

TEST(CheckTest, DoubleCrashWithoutRestartReported) {
  EXPECT_EQ(Rules(LintSpans({Marker(1, "site.crash", 100),
                             Marker(2, "site.crash", 110)})),
            (std::set<Rule>{Rule::kCrashConsistency}));
}

TEST(CheckTest, CrashRecoveryOnWrongEdgeReported) {
  // cause=crash-recovery on anything but executing -> failed is a lie about
  // what recovery is allowed to do.
  std::vector<obs::SpanRecord> spans = {
      Event(1, "t-w", "none", "proposed", 100, /*step=*/0),
      Marker(2, "site.crash", 110),
      Marker(3, "site.restart", 120),
  };
  obs::SpanRecord mark = Event(4, "t-w", "proposed", "cancelled", 130,
                               /*step=*/0);
  mark.tags.push_back({"cause", "crash-recovery"});
  spans.push_back(mark);
  EXPECT_EQ(Rules(LintSpans(spans)),
            (std::set<Rule>{Rule::kCrashConsistency}));
}

// --- row traces --------------------------------------------------------------

/// A transition row as Event() builds the span.
obs::TxnRow TxnRowAt(std::uint64_t id, const std::string& from,
                     const std::string& to, std::int64_t at,
                     std::int64_t step = -1) {
  obs::TxnRow row;
  row.id = id;
  row.start_micros = at;
  row.end_micros = at;
  row.step = step;
  row.at = at;
  row.timeout = 60'000'000;
  row.endpoint = obs::Atom("ntcp.hand");
  row.from = obs::Atom(from);
  row.to = obs::Atom(to);
  return row;
}

/// LintSpans on the trace's rows in place reports exactly what it reports
/// on the materialized spans: the same stats and violations, in order.
void ExpectRowLintMatchesMaterialized(const obs::Trace& trace) {
  const LintReport rows = LintSpans(trace);
  const LintReport spans = LintSpans(obs::Materialize(trace));
  EXPECT_EQ(rows.ToString(), spans.ToString());
  EXPECT_EQ(rows.stats.spans, spans.stats.spans);
  EXPECT_EQ(rows.stats.protocol_events, spans.stats.protocol_events);
  EXPECT_EQ(rows.stats.transactions, spans.stats.transactions);
  EXPECT_EQ(rows.stats.endpoints, spans.stats.endpoints);
}

TEST(CheckRowTest, RecordedTraceLintsAsItsSpans) {
  const obs::Trace trace = RecordScenarioTrace();
  ASSERT_TRUE(trace.dense());
  ASSERT_FALSE(trace.txns().empty());
  const LintReport report = LintSpans(trace);
  EXPECT_TRUE(report.ok()) << report.ToString();
  ExpectRowLintMatchesMaterialized(trace);
}

TEST(CheckRowTest, ExactlyOnceReadsRowsAsItsSpans) {
  util::SimClock sim;
  obs::Tracer tracer(&sim, &sim);
  net::Network network;
  network.SetClock(&sim);
  most::MostOptions options;
  options.steps = 6;
  options.hybrid = false;
  options.tracer = &tracer;
  most::MostExperiment experiment(&network, &sim, options);
  auto report = experiment.Run(psd::FaultPolicy::kFaultTolerant, "rowonce");
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->completed);
  const obs::Trace trace = tracer.TakeTrace();
  ASSERT_FALSE(trace.delivers().empty());
  ExpectRowLintMatchesMaterialized(trace);
  EXPECT_TRUE(LintSpans(trace).ok());

  const std::vector<std::string> endpoints = {
      most::MostExperiment::kNtcpUiuc, most::MostExperiment::kNtcpNcsa,
      most::MostExperiment::kNtcpCu};
  EXPECT_TRUE(CheckExactlyOncePerStep(trace, endpoints,
                                      report->steps_completed, 0)
                  .empty());
  // One step more than ran: every site misses it, whether the transitions
  // are rows or plain spans.
  const auto rows = CheckExactlyOncePerStep(trace, endpoints,
                                            report->steps_completed + 1, 0);
  EXPECT_EQ(rows.size(), 3u);
  obs::Trace spans;
  for (obs::SpanRecord& span : obs::Materialize(trace)) {
    spans.AddSpan(std::move(span));
  }
  ASSERT_TRUE(spans.txns().empty());
  EXPECT_EQ(rows, CheckExactlyOncePerStep(spans, endpoints,
                                          report->steps_completed + 1, 0));
}

TEST(CheckRowTest, RowFaultsLintAsTheirSpans) {
  obs::SpanRecord step;
  step.id = 1;
  step.name = "psd.step";
  step.category = "step";
  step.start_micros = 0;
  step.end_micros = 100;

  {  // A row whose parent does not exist.
    obs::Trace trace;
    trace.AddSpan(step);
    obs::TxnRow created = TxnRowAt(2, "none", "proposed", 10, 0);
    created.parent_id = 99;
    trace.AddTxn(created, "t-orphan");
    trace.AddTxn(TxnRowAt(3, "proposed", "cancelled", 20, 0), "t-orphan");
    EXPECT_EQ(Rules(LintSpans(trace)), (std::set<Rule>{Rule::kSpanNesting}));
    ExpectRowLintMatchesMaterialized(trace);
  }
  {  // A delivery outliving its PSD-step parent.
    obs::Trace trace;
    trace.AddSpan(step);
    obs::DeliverRow late;
    late.id = 2;
    late.parent_id = 1;
    late.start_micros = 50;
    late.end_micros = 150;
    late.modeled_micros = 100;
    late.from = obs::Atom("coord");
    late.to = obs::Atom("ntcp.hand");
    trace.AddDeliver(late);
    EXPECT_EQ(Rules(LintSpans(trace)), (std::set<Rule>{Rule::kSpanNesting}));
    ExpectRowLintMatchesMaterialized(trace);
  }
  {  // An illegal Fig. 1 transition.
    obs::Trace trace;
    trace.AddTxn(TxnRowAt(1, "none", "proposed", 10, 0), "t-bad");
    trace.AddTxn(TxnRowAt(2, "proposed", "completed", 20, 0), "t-bad");
    EXPECT_EQ(Rules(LintSpans(trace)),
              (std::set<Rule>{Rule::kIllegalTransition, Rule::kNonTerminal}));
    ExpectRowLintMatchesMaterialized(trace);
  }
  {  // A transition inside its endpoint's crash window.
    obs::Trace trace;
    trace.AddTxn(TxnRowAt(1, "none", "proposed", 10, 0), "t-dead");
    trace.AddSpan(Marker(2, "site.crash", 20));
    trace.AddTxn(TxnRowAt(3, "proposed", "cancelled", 30, 0), "t-dead");
    EXPECT_EQ(Rules(LintSpans(trace)),
              (std::set<Rule>{Rule::kCrashConsistency}));
    ExpectRowLintMatchesMaterialized(trace);
  }
  {  // A crash-mark row on the wrong edge.
    obs::Trace trace;
    trace.AddTxn(TxnRowAt(1, "none", "proposed", 10, 0), "t-w");
    trace.AddSpan(Marker(2, "site.crash", 20));
    trace.AddSpan(Marker(3, "site.restart", 30));
    obs::TxnRow mark = TxnRowAt(4, "proposed", "cancelled", 40, 0);
    mark.cause = obs::Atom("crash-recovery");
    trace.AddTxn(mark, "t-w");
    EXPECT_EQ(Rules(LintSpans(trace)),
              (std::set<Rule>{Rule::kCrashConsistency}));
    ExpectRowLintMatchesMaterialized(trace);
  }
}

TEST(CheckRowTest, NonDenseTraceFallsBackToSpans) {
  // Ids 10, 20, 30: the in-place path cannot look parents up by id, so the
  // trace is materialized and linted through the sparse index, which finds
  // the delivery's real parent.
  obs::Trace trace;
  obs::SpanRecord step;
  step.id = 10;
  step.name = "psd.step";
  step.category = "step";
  step.start_micros = 0;
  step.end_micros = 100;
  trace.AddSpan(step);
  obs::DeliverRow deliver;
  deliver.id = 20;
  deliver.parent_id = 10;
  deliver.start_micros = 10;
  deliver.end_micros = 30;
  deliver.from = obs::Atom("coord");
  deliver.to = obs::Atom("ntcp.hand");
  trace.AddDeliver(deliver);
  trace.AddTxn(TxnRowAt(30, "none", "proposed", 40, 0), "t-sparse");
  trace.AddTxn(TxnRowAt(25, "proposed", "cancelled", 50, 0), "t-sparse");
  ASSERT_FALSE(trace.dense());

  const LintReport report = LintSpans(trace);
  EXPECT_EQ(Rules(report), (std::set<Rule>{Rule::kTraceShape}))
      << report.ToString();  // 25 after 30; the parent 10 is found
  ExpectRowLintMatchesMaterialized(trace);
}

// --- text round trip ---------------------------------------------------------

TEST(CheckTest, LintTraceTextReportsLineNumbers) {
  const std::string text = obs::ExportJsonLines({
      Event(1, "a", "none", "proposed", 100, /*step=*/0),
      Event(2, "a", "proposed", "cancelled", 110, /*step=*/0),
      Event(3, "a", "cancelled", "executing", 120, /*step=*/0),  // illegal
  });
  auto report = LintTraceText(text);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->violations.size(), 1u);
  EXPECT_EQ(report->violations[0].rule, Rule::kIllegalTransition);
  EXPECT_EQ(report->violations[0].line, 3);
  // The offending trace line is embedded in the printable form.
  EXPECT_NE(report->violations[0].ToString().find("line=3"),
            std::string::npos);
}

TEST(CheckTest, SparseIdTraceRoundTripKeepsViolationsAndBytes) {
  // Ids 10, 20, ... as in an edited trace: the linter falls back from the
  // dense parent index and must still point every violation at its span.
  std::vector<obs::SpanRecord> spans = {
      Event(10, "a", "none", "proposed", 100, /*step=*/0),
      Event(20, "a", "proposed", "cancelled", 110, /*step=*/0),
      Event(30, "b", "none", "proposed", 120, /*step=*/2),  // skips step 1
      Event(40, "b", "proposed", "cancelled", 130, /*step=*/2),
      Event(50, "c", "none", "proposed", 140),
  };
  spans[4].tags[4] = {"step", std::string("two")};  // garbage step tag
  obs::SpanRecord orphan;
  orphan.id = 60;
  orphan.parent_id = 55;  // no such span
  orphan.name = "site.propose";
  orphan.category = "coordination";
  orphan.start_micros = 150;
  orphan.end_micros = 160;
  spans.push_back(orphan);
  obs::SpanRecord child = orphan;
  child.id = 70;
  child.parent_id = 30;  // a real, earlier parent
  spans.push_back(child);

  const std::string text = obs::ExportJsonLines(spans);
  const auto parsed = obs::ParseJsonLines(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(obs::ExportJsonLines(*parsed), text);

  const LintReport report = LintSpans(*parsed);
  std::set<std::pair<Rule, std::uint64_t>> found;
  for (const Violation& violation : report.violations) {
    found.insert({violation.rule, violation.span_id});
  }
  EXPECT_EQ(found, (std::set<std::pair<Rule, std::uint64_t>>{
                       {Rule::kSpanNesting, 60},
                       {Rule::kTraceShape, 50},
                       {Rule::kStepMonotonicity, 30}}))
      << report.ToString();
  // The same verdict from the text path, with the trace line of each span.
  auto from_text = LintTraceText(text);
  ASSERT_TRUE(from_text.ok());
  ASSERT_EQ(from_text->violations.size(), report.violations.size());
  for (const Violation& violation : from_text->violations) {
    EXPECT_EQ(violation.line, static_cast<int>(violation.span_id / 10))
        << violation.ToString();
  }
}

TEST(CheckTest, MalformedTraceTextRejected) {
  EXPECT_FALSE(LintTraceText("not a trace\n").ok());
}

// --- invariant macro ---------------------------------------------------------

#if defined(NEES_ENABLE_INVARIANTS) && defined(GTEST_HAS_DEATH_TEST)
TEST(InvariantDeathTest, ViolatedInvariantAborts) {
  int checked = 2;
  EXPECT_DEATH(NEES_CHECK_INVARIANT(checked == 3, "forced failure"),
               "invariant violated");
  NEES_CHECK_INVARIANT(checked == 2, "passing check must be silent");
}
#endif

}  // namespace
}  // namespace nees::check
