// Tests for the observability layer: metrics registry semantics, span
// nesting (implicit per-thread and explicit cross-thread parents), modeled
// clock advancement, JSON-lines export round-trips, the breakdown report,
// and the coordinator integration (every PSD step span carries per-site
// child spans, deterministically across runs).
#include <span>
#include <thread>

#include <gtest/gtest.h>

#include "most/most.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace nees {
namespace {

// --- MetricsRegistry -----------------------------------------------------------

TEST(MetricsTest, ReportTableBytesArePinned) {
  // The fuzz metrics fingerprint hashes this text, so its bytes must not
  // move when the percentile computation does.
  obs::MetricsRegistry metrics;
  metrics.Increment("ntcp.server.proposals", 12);
  metrics.Increment("net.dropped");
  metrics.SetGauge("drift_mm", 1.25);
  for (int i = 0; i < 37; ++i) {
    metrics.Observe("net.delay_micros", (i * 7919) % 101 + 0.5);
  }
  metrics.Observe("mplugin.queue_micros", 42.0);
  metrics.Observe("mplugin.queue_micros", 7.0);
  EXPECT_EQ(metrics.ReportTable(),
            "| metric                | value |\n"
            "|-----------------------|-------|\n"
            "| net.dropped           | 1     |\n"
            "| ntcp.server.proposals | 12    |\n"
            "| drift_mm              | 1.25  |\n"
            "\n"
            "| histogram            | n  | mean  | p50  | p95   | max   |\n"
            "|----------------------|----|-------|------|-------|-------|\n"
            "| mplugin.queue_micros | 2  | 24.5  | 24.5 | 40.25 | 42    |\n"
            "| net.delay_micros     | 37 | 50.61 | 50.5 | 95.1  | 100.5 |\n");
}

TEST(MetricsTest, CountersGaugesAndHistograms) {
  obs::MetricsRegistry metrics;
  metrics.Increment("steps");
  metrics.Increment("steps", 4);
  EXPECT_EQ(metrics.CounterValue("steps"), 5);
  EXPECT_EQ(metrics.CounterValue("unknown"), 0);

  metrics.SetGauge("drift_mm", 1.25);
  EXPECT_DOUBLE_EQ(metrics.GaugeValue("drift_mm"), 1.25);

  for (int i = 1; i <= 100; ++i) metrics.Observe("latency", i);
  const util::SampleStats latency = metrics.HistogramValue("latency");
  EXPECT_EQ(latency.count(), 100u);
  EXPECT_DOUBLE_EQ(latency.mean(), 50.5);
  EXPECT_DOUBLE_EQ(latency.Percentile(50), 50.5);    // interpolated
  EXPECT_DOUBLE_EQ(latency.Percentile(95), 95.05);
  EXPECT_DOUBLE_EQ(latency.max(), 100.0);

  const obs::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.counters.at("steps"), 5);
  EXPECT_EQ(snapshot.histograms.at("latency").count(), 100u);
  EXPECT_NE(metrics.ReportTable().find("latency"), std::string::npos);

  metrics.Clear();
  EXPECT_EQ(metrics.CounterValue("steps"), 0);
  EXPECT_EQ(metrics.HistogramValue("latency").count(), 0u);
}

// --- span nesting --------------------------------------------------------------

TEST(TracerTest, ImplicitNestingFollowsThreadStack) {
  util::SimClock sim;
  obs::Tracer tracer(&sim);
  {
    obs::Span outer = tracer.StartSpan("outer", "step");
    sim.Advance(10);
    {
      obs::Span inner = tracer.StartSpan("inner", "protocol");
      sim.Advance(5);
      EXPECT_EQ(tracer.CurrentSpanId(), inner.id());
    }
    EXPECT_EQ(tracer.CurrentSpanId(), outer.id());
  }
  EXPECT_EQ(tracer.CurrentSpanId(), 0u);

  const std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[0].DurationMicros(), 15);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent_id, spans[0].id);
  EXPECT_EQ(spans[1].DurationMicros(), 5);
}

TEST(TracerTest, ExplicitParentCrossesThreads) {
  util::SimClock sim;
  obs::Tracer tracer(&sim);
  obs::Span root = tracer.StartSpan("root", "step");

  // The MPlugin hand-off shape: the consumer thread opens a span under a
  // parent it never started itself.
  std::uint64_t child_id = 0;
  std::thread backend([&] {
    child_id = tracer.BeginSpanId("compute", "simulation", root.id());
    tracer.AddTagById(child_id, "txn", "t-1");
    tracer.EndSpanId(child_id);
  });
  backend.join();
  root.End();

  const std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].id, child_id);
  EXPECT_EQ(spans[1].parent_id, root.id());
  ASSERT_EQ(spans[1].tags.size(), 1u);
  EXPECT_EQ(spans[1].tags[0].key, "txn");
}

TEST(TracerTest, EventsAndIntervalsAttachToParents) {
  util::SimClock sim;
  obs::Tracer tracer(&sim);
  obs::Span root = tracer.StartSpan("root", "step");
  tracer.RecordEvent("ev", "network");                       // implicit parent
  tracer.RecordEventUnder(root.id(), "ev2", "network");      // explicit
  tracer.RecordInterval(root.id(), "dwell", "queue", 3, 9);  // measured
  root.End();

  const std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].parent_id, root.id());
  }
  EXPECT_EQ(spans[3].DurationMicros(), 6);
}

// --- modeled clock -------------------------------------------------------------

TEST(TracerTest, ModeledDelaysAdvanceTheSimClock) {
  util::SimClock sim;
  obs::Tracer tracer(&sim, &sim);
  const std::int64_t t0 = sim.NowMicros();

  obs::Span transfer = tracer.StartSpan("transfer", "network");
  transfer.AddModeledMicros(20'000);
  transfer.End();
  EXPECT_EQ(sim.NowMicros(), t0 + 20'000);

  // A modeled event is a closed span whose duration IS the modeled delay.
  tracer.RecordEvent("settle", "settle", 5'000);
  EXPECT_EQ(sim.NowMicros(), t0 + 25'000);

  const std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].DurationMicros(), 20'000);
  EXPECT_EQ(spans[0].modeled_micros, 20'000);
  EXPECT_EQ(spans[1].DurationMicros(), 5'000);
}

// --- export / parse ------------------------------------------------------------

TEST(TracerTest, JsonLinesRoundTrip) {
  util::SimClock sim;
  obs::Tracer tracer(&sim, &sim);
  {
    obs::Span outer = tracer.StartSpan("step", "step");
    outer.AddTag("site", "UIUC");
    outer.AddTag("quote\"backslash\\", "line\nbreak\ttab");
    tracer.RecordEvent("net.deliver", "network", 1'500,
                       {{"from", "a"}, {"to", "b"}});
  }
  obs::Span open = tracer.StartSpan("open", "step");  // exported as zero-length

  const std::string text = tracer.ExportJsonLines();
  const auto parsed = obs::ParseJsonLines(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();

  const std::vector<obs::SpanRecord> original = tracer.Snapshot();
  ASSERT_EQ(parsed->size(), original.size());
  EXPECT_EQ((*parsed)[0], original[0]);
  EXPECT_EQ((*parsed)[1], original[1]);
  // The open span is exported with end == start, not the sentinel -1.
  EXPECT_EQ((*parsed)[2].end_micros, (*parsed)[2].start_micros);
  open.End();
}

TEST(TracerTest, TypedTagsExportLikeTheirText) {
  // A typed tag exports the text a string tag with the same rendering
  // would, so typing a value never changes a trace file.
  obs::SpanRecord typed;
  typed.id = 1;
  typed.name = "ntcp.txn";
  typed.category = "txn";
  typed.tags = {{"step", -12}, {"to", obs::Atom("executing")}};
  obs::SpanRecord text = typed;
  text.tags = {{"step", std::string("-12")}, {"to", std::string("executing")}};
  EXPECT_EQ(obs::ExportJsonLines({typed}), obs::ExportJsonLines({text}));
  EXPECT_EQ(typed, text);

  // Parsing types canonical integers back and keeps everything else text.
  const auto parsed = obs::ParseJsonLines(obs::ExportJsonLines({typed}));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ((*parsed)[0].tags.size(), 2u);
  EXPECT_EQ((*parsed)[0].tags[0].kind, obs::Tag::Kind::kInt);
  EXPECT_EQ((*parsed)[0].tags[0].number, -12);
  EXPECT_EQ((*parsed)[0].tags[1].kind, obs::Tag::Kind::kText);
  text.tags = {{"step", std::string("007")}};
  const auto padded = obs::ParseJsonLines(obs::ExportJsonLines({text}));
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ((*padded)[0].tags[0].kind, obs::Tag::Kind::kText);
  EXPECT_EQ(obs::ExportJsonLines(*padded), obs::ExportJsonLines({text}));
}

TEST(TracerTest, TakeSpansHandsOverTheTrace) {
  util::SimClock sim;
  obs::Tracer tracer(&sim, &sim);
  tracer.RecordEvent("ev", "network", 10, {{"n", 1}});
  const std::string exported = tracer.ExportJsonLines();
  const std::vector<obs::SpanRecord> spans = tracer.TakeSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(obs::ExportJsonLines(spans), exported);
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(TracerTest, TakenSpansOwnTheirTagsApartFromTheTracer) {
  // Recorded tags live in the tracer's arena; spans handed over keep that
  // arena alive past the tracer, and neither later recording nor edits to
  // a snapshot copy reach them.
  util::SimClock sim;
  std::vector<obs::SpanRecord> taken;
  std::vector<obs::SpanRecord> copy;
  std::string exported;
  {
    obs::Tracer tracer(&sim, &sim);
    obs::Tag moved[] = {{"txn", std::string("a-transaction-id-longer-than-sso")},
                        {"step", 7}};
    tracer.EndSpanId(
        tracer.BeginSpanId("ntcp.txn", "txn", 0, std::span<obs::Tag>(moved)));
    {
      obs::Span span = tracer.StartSpan("ntcp.propose", "protocol");
      span.AddTag("endpoint", obs::Atom("ntcp.s0"));
      span.AddTag("step", 7);
    }
    exported = tracer.ExportJsonLines();
    copy = tracer.Snapshot();
    taken = tracer.TakeSpans();
    tracer.RecordEvent("after", "network", 0, {{"n", 1}, {"m", 2}});
    copy[0].tags.push_back({"extra", 1});
  }
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].tags[0].text, "a-transaction-id-longer-than-sso");
  EXPECT_EQ(obs::ExportJsonLines(taken), exported);
  taken[1].tags.push_back({"more", 3});  // grows inside the kept arena
  EXPECT_EQ(taken[1].tags.size(), 3u);
  EXPECT_EQ(copy[0].tags.size(), 3u);
}

// --- fingerprints --------------------------------------------------------------

// A trace with a step span, a delivery under it, two transitions (one with a
// cause, one without) and a span recorded after the rows.
obs::Trace RowTrace() {
  obs::Trace trace;
  obs::SpanRecord step;
  step.id = 1;
  step.name = "psd.step";
  step.category = "step";
  step.start_micros = 100;
  step.end_micros = 900;
  trace.AddSpan(step);
  obs::DeliverRow deliver;
  deliver.id = 2;
  deliver.parent_id = 1;
  deliver.start_micros = 200;
  deliver.end_micros = 250;
  deliver.modeled_micros = 50;
  deliver.from = obs::Atom("coord");
  deliver.to = obs::Atom("ntcp.s0");
  trace.AddDeliver(deliver);
  obs::TxnRow created;
  created.id = 3;
  created.parent_id = 1;
  created.start_micros = 250;
  created.end_micros = 250;
  created.step = 3;
  created.at = 250;
  created.timeout = 60'000'000;
  created.endpoint = obs::Atom("ntcp.s0");
  created.from = obs::Atom("none");
  created.to = obs::Atom("proposed");
  trace.AddTxn(created, "run-s3-a1-S0-with-a-long-id");
  obs::TxnRow failed = created;
  failed.id = 4;
  failed.from = obs::Atom("executing");
  failed.to = obs::Atom("failed");
  failed.cause = obs::Atom("crash-recovery");
  trace.AddTxn(failed, "run-s3-a1-S0-with-a-long-id");
  obs::SpanRecord after;
  after.id = 5;
  after.parent_id = 1;
  after.name = "site.execute";
  after.category = "protocol";
  after.start_micros = 300;
  after.end_micros = 400;
  after.tags = {{"step", 3}, {"note", std::string("quote\"d")}};
  trace.AddSpan(after);
  return trace;
}

TEST(TracerTest, FingerprintCoversEveryExportedField) {
  obs::SpanRecord root;
  root.id = 1;
  root.name = "psd.step";
  root.category = "step";
  root.start_micros = 100;
  root.end_micros = 900;
  obs::SpanRecord event;
  event.id = 2;
  event.parent_id = 1;
  event.name = "ntcp.txn";
  event.category = "txn";
  event.start_micros = 200;
  event.end_micros = 250;
  event.modeled_micros = 50;
  event.tags = {{"txn", std::string("run-s3-a1-S0")},
                {"endpoint", obs::Atom("ntcp.s0")},
                {"step", 3}};
  const std::vector<obs::SpanRecord> base = {root, event};
  const std::uint64_t fingerprint = obs::FingerprintSpans(base);
  EXPECT_EQ(obs::FingerprintSpans(base), fingerprint);

  using Mutation = void (*)(obs::SpanRecord&);
  const std::pair<const char*, Mutation> mutations[] = {
      {"id", [](obs::SpanRecord& s) { ++s.id; }},
      {"name", [](obs::SpanRecord& s) { s.name = "ntcp.dup"; }},
      {"category", [](obs::SpanRecord& s) { s.category = "fault"; }},
      {"parent", [](obs::SpanRecord& s) { s.parent_id = 0; }},
      {"start", [](obs::SpanRecord& s) { ++s.start_micros; }},
      {"end", [](obs::SpanRecord& s) { ++s.end_micros; }},
      {"modeled", [](obs::SpanRecord& s) { ++s.modeled_micros; }},
      {"tag key", [](obs::SpanRecord& s) { s.tags[2].key = "at"; }},
      {"typed value", [](obs::SpanRecord& s) { s.tags[2].number = 4; }},
      {"name value",
       [](obs::SpanRecord& s) { s.tags[1] = {"endpoint", "ntcp.s1"}; }},
      {"string value", [](obs::SpanRecord& s) { s.tags[0].text.back() = '1'; }},
      {"tag count", [](obs::SpanRecord& s) { s.tags.pop_back(); }},
  };
  for (const auto& [field, mutate] : mutations) {
    std::vector<obs::SpanRecord> changed = base;
    mutate(changed[1]);
    EXPECT_NE(obs::ExportJsonLines(changed), obs::ExportJsonLines(base))
        << field;
    EXPECT_NE(obs::FingerprintSpans(changed), fingerprint) << field;
  }

  // Every row field, through a trace: rows are hashed and written in
  // place, and hash the words of the spans they materialize as.
  const obs::Trace row_base = RowTrace();
  const std::uint64_t row_fingerprint = obs::FingerprintSpans(row_base);
  const std::string row_exported = obs::ExportJsonLines(row_base);

  // Rebuilds the trace with one row field changed.
  const auto with = [](auto mutate_deliver, auto mutate_txn,
                       std::string_view txn_id) {
    const obs::Trace source = RowTrace();
    obs::Trace trace;
    trace.AddSpan(source.spans()[0]);
    obs::DeliverRow deliver = source.delivers()[0];
    mutate_deliver(deliver);
    trace.AddDeliver(deliver);
    obs::TxnRow created = source.txns()[0];
    trace.AddTxn(created, source.TxnId(created));
    obs::TxnRow failed = source.txns()[1];
    mutate_txn(failed);
    trace.AddTxn(failed, txn_id.empty() ? source.TxnId(failed) : txn_id);
    trace.AddSpan(source.spans()[1]);
    return trace;
  };
  const auto same_txn = [](obs::TxnRow&) {};
  const auto same_deliver = [](obs::DeliverRow&) {};
  using Deliver = obs::DeliverRow;
  using Txn = obs::TxnRow;
  const std::pair<const char*, obs::Trace> mutants[] = {
      {"deliver id", with([](Deliver& r) { ++r.id; }, same_txn, "")},
      {"deliver parent", with([](Deliver& r) { r.parent_id = 0; }, same_txn, "")},
      {"deliver start", with([](Deliver& r) { ++r.start_micros; }, same_txn, "")},
      {"deliver end", with([](Deliver& r) { ++r.end_micros; }, same_txn, "")},
      {"deliver modeled",
       with([](Deliver& r) { ++r.modeled_micros; }, same_txn, "")},
      {"deliver from",
       with([](Deliver& r) { r.from = obs::Atom("ntcp.s1"); }, same_txn, "")},
      {"deliver to",
       with([](Deliver& r) { r.to = obs::Atom("ntcp.s1"); }, same_txn, "")},
      {"txn row id", with(same_deliver, [](Txn& r) { ++r.id; }, "")},
      {"txn row parent", with(same_deliver, [](Txn& r) { r.parent_id = 0; }, "")},
      {"txn row start", with(same_deliver, [](Txn& r) { ++r.start_micros; }, "")},
      {"txn row end", with(same_deliver, [](Txn& r) { ++r.end_micros; }, "")},
      {"txn id", with(same_deliver, same_txn, "run-s3-a1-S0-with-a-long-iD")},
      {"txn endpoint",
       with(same_deliver, [](Txn& r) { r.endpoint = obs::Atom("ntcp.s1"); }, "")},
      {"txn from",
       with(same_deliver, [](Txn& r) { r.from = obs::Atom("accepted"); }, "")},
      {"txn to",
       with(same_deliver, [](Txn& r) { r.to = obs::Atom("completed"); }, "")},
      {"txn step", with(same_deliver, [](Txn& r) { ++r.step; }, "")},
      {"txn at", with(same_deliver, [](Txn& r) { ++r.at; }, "")},
      {"txn timeout", with(same_deliver, [](Txn& r) { ++r.timeout; }, "")},
      {"txn cause",
       with(same_deliver, [](Txn& r) { r.cause = obs::Atom("other"); }, "")},
      {"txn no cause", with(same_deliver, [](Txn& r) { r.cause = {}; }, "")},
  };
  EXPECT_EQ(obs::FingerprintSpans(with(same_deliver, same_txn, "")),
            row_fingerprint);
  for (const auto& [field, changed] : mutants) {
    EXPECT_NE(obs::ExportJsonLines(changed), row_exported) << field;
    EXPECT_NE(obs::FingerprintSpans(changed), row_fingerprint) << field;
    EXPECT_EQ(obs::FingerprintSpans(changed),
              obs::FingerprintSpans(obs::Materialize(changed)))
        << field;
  }
}

// --- rows ----------------------------------------------------------------------

TEST(TraceRowTest, RowsRecordWhatTheirEventsRecord) {
  // The same calls through rows and through RecordEvent with tags give the
  // same spans, bytes and fingerprint.
  const auto record = [](bool rows) {
    util::SimClock sim{1'000};
    obs::Tracer tracer(&sim, &sim);
    obs::Span step = tracer.StartSpan("psd.step", "step");
    sim.Advance(10);
    obs::TxnTransition transition;
    transition.txn = "a-transaction-id-longer-than-sso";
    transition.endpoint = obs::Atom("ntcp.s0");
    transition.from = obs::Atom("none");
    transition.to = obs::Atom("proposed");
    transition.step = 4;
    transition.at = sim.NowMicros();
    transition.timeout = 5'000;
    if (rows) {
      tracer.RecordDelivery(obs::Atom("coord"), obs::Atom("ntcp.s0"), 700);
      tracer.RecordTxnTransition(transition);
      transition.cause = obs::Atom("crash-recovery");
      tracer.RecordTxnTransition(transition);
    } else {
      // The events the producers recorded before these were rows.
      tracer.RecordEvent("net.deliver", "network", 700,
                         {{"from", obs::Atom("coord")},
                          {"to", obs::Atom("ntcp.s0")}});
      const std::string txn(transition.txn);
      tracer.RecordEvent("ntcp.txn", "txn", 0,
                         {{"txn", txn},
                          {"endpoint", transition.endpoint},
                          {"from", transition.from},
                          {"to", transition.to},
                          {"step", transition.step},
                          {"at", transition.at},
                          {"timeout", transition.timeout}});
      tracer.RecordEvent("ntcp.txn", "txn", 0,
                         {{"txn", txn},
                          {"endpoint", transition.endpoint},
                          {"from", transition.from},
                          {"to", transition.to},
                          {"step", transition.step},
                          {"at", transition.at},
                          {"timeout", transition.timeout},
                          {"cause", obs::Atom("crash-recovery")}});
    }
    // Rows never join the span stack: this event's parent is the step.
    tracer.RecordEvent("ev", "network", 5);
    EXPECT_EQ(tracer.CurrentSpanId(), step.id());
    step.End();
    return tracer.TakeTrace();
  };
  const obs::Trace rows = record(true);
  const obs::Trace events = record(false);
  EXPECT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows.delivers().size(), 1u);
  EXPECT_EQ(rows.txns().size(), 2u);
  EXPECT_TRUE(rows.dense());
  EXPECT_EQ(obs::Materialize(rows), obs::Materialize(events));
  EXPECT_EQ(obs::ExportJsonLines(rows), obs::ExportJsonLines(events));
  EXPECT_EQ(obs::FingerprintSpans(rows), obs::FingerprintSpans(events));
  EXPECT_EQ(obs::Materialize(rows).back().parent_id, 1u);
}

TEST(TraceRowTest, RowsExportAndFingerprintAsTheirSpans) {
  const obs::Trace trace = RowTrace();
  const std::vector<obs::SpanRecord> spans = obs::Materialize(trace);
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[2].tags.size(), 7u);
  EXPECT_EQ(spans[3].tags.back().key, "cause");
  EXPECT_EQ(obs::ExportJsonLines(trace), obs::ExportJsonLines(spans));
  EXPECT_EQ(obs::FingerprintSpans(trace), obs::FingerprintSpans(spans));
  // Text round trip: the rows come back as plain spans with the same bytes.
  const auto parsed = obs::ParseJsonLines(obs::ExportJsonLines(trace));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, spans);
  // Moving the spans out gives the same stream.
  obs::Trace moved = RowTrace();
  EXPECT_EQ(obs::Materialize(std::move(moved)), spans);
}

TEST(TraceRowTest, TracerSpanApisIncludeRows) {
  util::SimClock sim;
  obs::Tracer tracer(&sim, &sim);
  {
    obs::Span step = tracer.StartSpan("step", "step");
    tracer.RecordDelivery(obs::Atom("a"), obs::Atom("b"), 40'000);
    tracer.RecordEvent("settle", "settle", 60'000);
  }
  EXPECT_EQ(tracer.span_count(), 3u);
  const std::vector<obs::SpanRecord> snapshot = tracer.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[1].name, "net.deliver");
  EXPECT_EQ(snapshot[1].DurationMicros(), 40'000);
  EXPECT_EQ(tracer.ExportJsonLines(), obs::ExportJsonLines(snapshot));
  // The delivery is billed to "network" exactly as a recorded event was.
  const std::string table = tracer.BreakdownTable();
  EXPECT_NE(table.find("network"), std::string::npos);
  EXPECT_NE(table.find("40.0%"), std::string::npos);
  EXPECT_EQ(tracer.TakeSpans(), snapshot);
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(TracerTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(obs::ParseJsonLines("{\"id\":}").ok());
  EXPECT_FALSE(obs::ParseJsonLines("not json at all").ok());
  EXPECT_FALSE(
      obs::ParseJsonLines("{\"id\":1,\"parent\":0,\"name\":\"x\"}").ok());
}

TEST(TracerTest, BreakdownReportsExclusiveTime) {
  util::SimClock sim;
  obs::Tracer tracer(&sim, &sim);
  {
    obs::Span step = tracer.StartSpan("step", "step");
    tracer.RecordEvent("transfer", "network", 40'000);
    tracer.RecordEvent("settle", "settle", 60'000);
  }
  const std::string table = tracer.BreakdownTable();
  // The step span's 100 ms are all accounted to its children: settle 60%,
  // network 40%, step 0%.
  EXPECT_NE(table.find("settle"), std::string::npos);
  EXPECT_NE(table.find("60.0%"), std::string::npos);
  EXPECT_NE(table.find("40.0%"), std::string::npos);
  EXPECT_NE(table.find(" 0.0%"), std::string::npos);
}

// --- coordinator integration ---------------------------------------------------

class ObsMostTest : public ::testing::Test {
 protected:
  // Small all-simulation MOST deployment: deterministic and fast, but the
  // full coordinator -> NTCP -> plugin path.
  static most::MostOptions Options(obs::Tracer* tracer) {
    most::MostOptions options;
    options.steps = 10;
    options.hybrid = false;
    options.with_repository = false;
    options.with_streaming = false;
    options.tracer = tracer;
    return options;
  }

  // Fresh clock, tracer, network and experiment per call: two invocations
  // share no state, so identical output means the trace is deterministic.
  static std::string RunTraced(std::size_t* span_count = nullptr) {
    util::SimClock sim;
    obs::Tracer tracer(&sim, &sim);
    net::Network network;
    network.SetClock(&sim);
    net::LinkModel wan;
    wan.latency_micros = 15'000;
    network.SetDefaultLink(wan);
    most::MostExperiment experiment(&network, &sim, Options(&tracer));
    auto report = experiment.Run(psd::FaultPolicy::kFaultTolerant, "obs-run");
    EXPECT_TRUE(report.ok());
    if (report.ok()) {
      EXPECT_TRUE(report->completed);
    }
    if (span_count != nullptr) *span_count = tracer.span_count();
    return tracer.ExportJsonLines();
  }
};

TEST_F(ObsMostTest, EveryStepSpanCarriesPerSiteChildren) {
  util::SimClock sim;
  obs::Tracer tracer(&sim, &sim);
  net::Network network;
  network.SetClock(&sim);
  most::MostExperiment experiment(&network, &sim, Options(&tracer));
  auto report = experiment.Run(psd::FaultPolicy::kFaultTolerant, "obs-run");
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->completed);

  const std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  std::vector<std::uint64_t> step_ids;
  std::map<std::uint64_t, int> proposes, executes;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "psd.step") step_ids.push_back(span.id);
    if (span.name == "site.propose") ++proposes[span.parent_id];
    if (span.name == "site.execute") ++executes[span.parent_id];
  }
  ASSERT_EQ(step_ids.size(), report->steps_completed);
  for (const std::uint64_t id : step_ids) {
    EXPECT_EQ(proposes[id], 3) << "step span " << id;  // UIUC, NCSA, CU
    EXPECT_EQ(executes[id], 3) << "step span " << id;
  }
  EXPECT_EQ(tracer.metrics().CounterValue("psd.steps"),
            static_cast<std::int64_t>(report->steps_completed));
  EXPECT_EQ(tracer.metrics().CounterValue("ntcp.server.proposals"),
            static_cast<std::int64_t>(3 * report->steps_completed));
}

TEST_F(ObsMostTest, TwoSeededRunsExportIdenticalTraces) {
  std::size_t spans_a = 0;
  const std::string trace_a = RunTraced(&spans_a);
  const std::string trace_b = RunTraced();

  EXPECT_GT(spans_a, 10u * 7u);  // step + 6 site spans per step at least
  EXPECT_EQ(trace_a, trace_b);
}

}  // namespace
}  // namespace nees
