#include "check/checker.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <type_traits>
#include <unordered_map>

#include "ntcp/types.h"
#include "util/strings.h"

namespace nees::check {
namespace {

using ntcp::TransactionState;

const obs::Atom kTxnEvent("ntcp.txn");
const obs::Atom kDupEvent("ntcp.dup");
const obs::Atom kCrashEvent("site.crash");
const obs::Atom kRestartEvent("site.restart");
const obs::Atom kRecoverEvent("ntcp.recover");
const obs::Atom kStepCategory("step");
const obs::Atom kTxn("txn");
const obs::Atom kEndpoint("endpoint");
const obs::Atom kFrom("from");
const obs::Atom kTo("to");
const obs::Atom kStep("step");
const obs::Atom kAt("at");
const obs::Atom kTimeout("timeout");
const obs::Atom kCause("cause");
const obs::Atom kKind("kind");
const obs::Atom kCrashRecovery("crash-recovery");
const obs::Atom kProposeMismatch("propose-mismatch");
const obs::Atom kExecute("execute");

/// The tag `key` when it holds an integer, else nullptr. Only a typed kInt
/// value counts: ParseJsonLines types integers in text traces, so any other
/// value is malformed.
const obs::Tag* IntTag(const obs::SpanRecord& span, obs::Atom key) {
  const obs::Tag* tag = span.FindTag(key);
  return tag != nullptr && tag->kind == obs::Tag::Kind::kInt ? tag : nullptr;
}

/// A name-valued tag (endpoint, state, kind, cause) as an atom. Recorded
/// traces carry kName values; a trace parsed from text carries the names as
/// text, which are interned here — they are endpoint and state names, a
/// bounded set.
obs::Atom NameOf(const obs::Tag& tag) {
  if (tag.kind == obs::Tag::Kind::kName) return tag.name();
  return obs::Atom(tag.ValueText());
}

/// An ntcp.txn event's fields: read from a row as they are, or from a
/// span's tags.
struct TxnFields {
  std::uint64_t span_id = 0;
  std::string_view txn;
  obs::Atom endpoint;
  obs::Atom from;
  obs::Atom to;
  obs::Atom cause;  // invalid: no cause
  std::int64_t step = -1;
  std::int64_t at = 0;
  std::int64_t timeout = 0;
};

TxnFields FieldsOf(const obs::Trace& trace, const obs::TxnRow& row) {
  TxnFields fields;
  fields.span_id = row.id;
  fields.txn = trace.TxnId(row);
  fields.endpoint = row.endpoint;
  fields.from = row.from;
  fields.to = row.to;
  fields.cause = row.cause;
  fields.step = row.step;
  fields.at = row.at;
  fields.timeout = row.timeout;
  return fields;
}

/// What the shape and nesting rules read of any record.
struct Header {
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;
  obs::Atom category;
  std::int64_t start_micros = 0;
  std::int64_t end_micros = 0;
};

Header HeaderOf(const obs::SpanRecord& span) {
  return {span.id, span.parent_id, span.category, span.start_micros,
          span.end_micros};
}
template <typename Row>
Header HeaderOf(const Row& row) {
  return {row.id, row.parent_id, Row::Category(), row.start_micros,
          row.end_micros};
}

/// A plain span stream as the nesting rule reads it: stream order, and a
/// lookup by id through the dense index when ids are 1..n (every recorded
/// trace) and a map otherwise (edited or hand-built traces).
class SpanIndex {
 public:
  explicit SpanIndex(const std::vector<obs::SpanRecord>& spans)
      : spans_(spans) {
    for (std::size_t i = 0; i < spans_.size() && dense_; ++i) {
      dense_ = spans_[i].id == i + 1;
    }
    if (!dense_) {
      sparse_.reserve(spans_.size());
      for (std::size_t i = 0; i < spans_.size(); ++i) {
        sparse_.emplace(spans_[i].id, i);  // first occurrence wins
      }
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const obs::SpanRecord& span : spans_) fn(span);
  }
  template <typename Fn>
  bool Visit(std::uint64_t id, Fn&& fn) const {
    const obs::SpanRecord* span = nullptr;
    if (dense_) {
      if (id >= 1 && id <= spans_.size()) span = &spans_[id - 1];
    } else if (const auto it = sparse_.find(id); it != sparse_.end()) {
      span = &spans_[it->second];
    }
    if (span != nullptr) fn(*span);
    return span != nullptr;
  }

 private:
  const std::vector<obs::SpanRecord>& spans_;
  bool dense_ = true;
  std::unordered_map<std::uint64_t, std::size_t> sparse_;
};

/// Replay state for one transaction.
struct TxnTracker {
  bool created = false;
  TransactionState state = TransactionState::kProposed;
  std::int64_t proposed_at = -1;
  std::int64_t step = -1;
  int executing_entries = 0;
  std::uint64_t last_span = 0;  // creation/last transition span
};

struct Proposed {
  std::int64_t step;
  std::uint64_t span_id;
  std::string_view txn;
};

/// Replay state for one endpoint.
struct EndpointState {
  obs::Atom name;
  bool protocol = false;  // emitted ntcp.txn / ntcp.dup events
  bool dead = false;      // crashed, not yet restarted
  bool ever_crashed = false;
  std::vector<Proposed> proposals;  // creation events in trace order
};

class Linter {
 public:
  LintReport Run(const std::vector<obs::SpanRecord>& spans) {
    report_.stats.spans = spans.size();
    CheckShapeAndNesting(SpanIndex(spans));
    for (const obs::SpanRecord& span : spans) ReplaySpan(span);
    return Finish();
  }

  /// A dense trace: rows are read in place.
  LintReport Run(const obs::Trace& trace) {
    report_.stats.spans = trace.size();
    CheckShapeAndNesting(trace);
    trace.ForEach([&](const auto& record) {
      using Record = std::decay_t<decltype(record)>;
      if constexpr (std::is_same_v<Record, obs::SpanRecord>) {
        ReplaySpan(record);
      } else if constexpr (std::is_same_v<Record, obs::TxnRow>) {
        ++report_.stats.protocol_events;
        ReplayTransition(FieldsOf(trace, record));
      }
    });
    return Finish();
  }

 private:
  void ReplaySpan(const obs::SpanRecord& span) {
    if (span.name == kTxnEvent) {
      ++report_.stats.protocol_events;
      if (const std::optional<TxnFields> fields = TxnFieldsOf(span)) {
        ReplayTransition(*fields);
      }
    } else if (span.name == kDupEvent) {
      ++report_.stats.protocol_events;
      ReplayDuplicate(span);
    } else if (span.name == kCrashEvent) {
      ReplayCrash(span);
    } else if (span.name == kRestartEvent) {
      ReplayRestart(span);
    } else if (span.name == kRecoverEvent) {
      ReplayRecover(span);
    }
  }

  LintReport Finish() {
    CheckTerminal();
    CheckStepMonotonicity();
    report_.stats.transactions = txns_.size();
    for (const EndpointState& endpoint : endpoints_) {
      if (endpoint.protocol) ++report_.stats.endpoints;
    }
    return std::move(report_);
  }

  void Add(Rule rule, std::uint64_t span_id, std::string_view txn,
           std::int64_t step, std::string message) {
    Violation violation;
    violation.rule = rule;
    violation.transaction_id = std::string(txn);
    violation.step = step;
    violation.span_id = span_id;
    violation.message = std::move(message);
    report_.violations.push_back(std::move(violation));
  }

  /// `source` is a SpanIndex or a dense obs::Trace: both visit their
  /// records in stream order and look one up by id.
  template <typename Source>
  void CheckShapeAndNesting(const Source& source) {
    std::uint64_t previous_id = 0;
    source.ForEach([&](const auto& record) {
      const Header span = HeaderOf(record);
      if (span.id <= previous_id) {
        Add(Rule::kTraceShape, span.id, "", -1,
            util::Format("span ids not strictly ascending (%llu after %llu)",
                         static_cast<unsigned long long>(span.id),
                         static_cast<unsigned long long>(previous_id)));
      }
      previous_id = span.id;
      if (span.end_micros >= 0 && span.end_micros < span.start_micros) {
        Add(Rule::kTraceShape, span.id, "", -1, "span ends before it starts");
      }
    });
    source.ForEach([&](const auto& record) {
      const Header span = HeaderOf(record);
      if (span.parent_id == 0) return;
      Header parent;
      const bool found = source.Visit(
          span.parent_id, [&](const auto& p) { parent = HeaderOf(p); });
      if (!found || span.parent_id >= span.id) {
        Add(Rule::kSpanNesting, span.id, "", -1,
            util::Format("parent span %llu missing or not earlier in trace",
                         static_cast<unsigned long long>(span.parent_id)));
        return;
      }
      if (span.start_micros < parent.start_micros) {
        Add(Rule::kSpanNesting, span.id, "", -1,
            "span starts before its parent");
      }
      // PSD-step containment: anything recorded directly under a step span
      // must close before the step does, or the step's latency attribution
      // (and the paper's "where does a step go" question) is wrong.
      if (parent.category == kStepCategory && parent.end_micros >= 0 &&
          span.end_micros > parent.end_micros) {
        Add(Rule::kSpanNesting, span.id, "", -1,
            util::Format("span ends after its PSD-step parent %llu",
                         static_cast<unsigned long long>(parent.id)));
      }
    });
  }

  EndpointState& Endpoint(obs::Atom name) {
    for (EndpointState& endpoint : endpoints_) {
      if (endpoint.name == name) return endpoint;
    }
    EndpointState& endpoint = endpoints_.emplace_back();
    endpoint.name = name;
    return endpoint;
  }

  /// The transaction id's text; views into the spans, which outlive the
  /// linter (a non-text id is rendered once into owned storage).
  std::string_view TxnId(const obs::Tag& tag) {
    if (tag.kind == obs::Tag::Kind::kText) return tag.text;
    return owned_ids_.emplace_back(tag.ValueText());
  }

  /// The fields of a span-shaped ntcp.txn event, or nullopt (reported)
  /// when a required tag is missing.
  std::optional<TxnFields> TxnFieldsOf(const obs::SpanRecord& span) {
    const obs::Tag* txn_tag = span.FindTag(kTxn);
    const obs::Tag* endpoint_tag = span.FindTag(kEndpoint);
    const obs::Tag* from_tag = span.FindTag(kFrom);
    const obs::Tag* to_tag = span.FindTag(kTo);
    const obs::Tag* step_tag = IntTag(span, kStep);
    const obs::Tag* at_tag = IntTag(span, kAt);
    const obs::Tag* timeout_tag = IntTag(span, kTimeout);
    TxnFields fields;
    fields.span_id = span.id;
    fields.txn = txn_tag == nullptr ? "" : TxnId(*txn_tag);
    if (txn_tag == nullptr || endpoint_tag == nullptr || from_tag == nullptr ||
        to_tag == nullptr || step_tag == nullptr || at_tag == nullptr ||
        timeout_tag == nullptr) {
      Add(Rule::kTraceShape, span.id, fields.txn, -1,
          "ntcp.txn event is missing required tags");
      return std::nullopt;
    }
    fields.step = step_tag->number;
    fields.at = at_tag->number;
    fields.timeout = timeout_tag->number;
    fields.from = NameOf(*from_tag);
    fields.to = NameOf(*to_tag);
    fields.endpoint = NameOf(*endpoint_tag);
    if (const obs::Tag* cause_tag = span.FindTag(kCause)) {
      fields.cause = NameOf(*cause_tag);
    }
    return fields;
  }

  void ReplayTransition(const TxnFields& event) {
    const std::uint64_t span_id = event.span_id;
    const std::string_view txn = event.txn;
    const std::int64_t step = event.step;
    const std::int64_t at = event.at;
    const std::int64_t timeout = event.timeout;
    const obs::Atom from_name = event.from;
    const obs::Atom to_name = event.to;
    EndpointState& endpoint = Endpoint(event.endpoint);
    endpoint.protocol = true;
    CheckEndpointAlive(span_id, endpoint, txn, step);
    if (event.cause == kCrashRecovery) {
      // Crash-marks are the only transitions recovery may emit, and they
      // are exactly the executing -> failed edge of docs/RECOVERY.md R2.
      if (!endpoint.ever_crashed) {
        Add(Rule::kCrashConsistency, span_id, txn, step,
            "crash-recovery transition from an endpoint that never crashed");
      }
      if (from_name !=
              ntcp::TransactionStateAtom(TransactionState::kExecuting) ||
          to_name != ntcp::TransactionStateAtom(TransactionState::kFailed)) {
        Add(Rule::kCrashConsistency, span_id, txn, step,
            util::Format("crash-recovery transition must be executing -> "
                         "failed, got %s -> %s",
                         std::string(from_name.str()).c_str(),
                         std::string(to_name.str()).c_str()));
      }
    }
    const std::optional<TransactionState> to =
        ntcp::TransactionStateFromAtom(to_name);
    if (!to.has_value()) {
      Add(Rule::kTraceShape, span_id, txn, step,
          "unknown target state \"" + std::string(to_name.str()) + "\"");
      return;
    }
    TxnTracker& tracker = txns_[txn];

    if (from_name == ntcp::NoTransactionStateAtom()) {
      if (*to != TransactionState::kProposed) {
        Add(Rule::kIllegalTransition, span_id, txn, step,
            "creation event must target \"proposed\", got \"" +
                std::string(to_name.str()) + "\"");
        return;
      }
      if (tracker.created) {
        Add(Rule::kIllegalTransition, span_id, txn, step,
            "transaction created twice");
        return;
      }
      tracker.created = true;
      tracker.state = TransactionState::kProposed;
      tracker.proposed_at = at;
      tracker.step = step;
      tracker.last_span = span_id;
      if (step >= 0) endpoint.proposals.push_back({step, span_id, txn});
      return;
    }

    const std::optional<TransactionState> from =
        ntcp::TransactionStateFromAtom(from_name);
    if (!from.has_value()) {
      Add(Rule::kTraceShape, span_id, txn, step,
          "unknown source state \"" + std::string(from_name.str()) + "\"");
      return;
    }
    if (!tracker.created) {
      Add(Rule::kIllegalTransition, span_id, txn, step,
          "transition without a prior creation event");
      // Track the claimed state so one missing creation does not cascade.
      tracker.created = true;
      tracker.state = *to;
      tracker.step = step;
    } else if (*from != tracker.state) {
      Add(Rule::kIllegalTransition, span_id, txn, step,
          util::Format(
              "event claims from=%s but the transaction was in %s",
              std::string(from_name.str()).c_str(),
              std::string(ntcp::TransactionStateName(tracker.state)).c_str()));
      // The event contradicts the replayed state: keep the replayed state.
    } else if (!ntcp::IsLegalTransition(*from, *to)) {
      Add(Rule::kIllegalTransition, span_id, txn, step,
          util::Format("illegal Fig. 1 transition %s -> %s",
                       std::string(from_name.str()).c_str(),
                       std::string(to_name.str()).c_str()));
    } else {
      tracker.state = *to;
      tracker.last_span = span_id;
    }

    if (*to == TransactionState::kExecuting) {
      if (++tracker.executing_entries == 2) {
        Add(Rule::kDuplicateExecute, span_id, txn, step,
            "transaction entered kExecuting a second time (at-most-once)");
      }
    }
    if (*to == TransactionState::kExpired) {
      CheckExpiry(span_id, txn, step, at, timeout, tracker);
    }
  }

  void CheckExpiry(std::uint64_t span_id, std::string_view txn,
                   std::int64_t step, std::int64_t expired_at,
                   std::int64_t timeout, const TxnTracker& tracker) {
    if (timeout <= 0) {
      Add(Rule::kBogusExpiry, span_id, txn, step,
          "transaction expired but its proposal had no timeout window");
      return;
    }
    if (tracker.proposed_at < 0) return;  // creation missing: reported above
    const std::int64_t deadline = tracker.proposed_at + timeout;
    if (expired_at <= deadline) {
      Add(Rule::kBogusExpiry, span_id, txn, step,
          util::Format("expired at %lld but the proposal window ran to %lld",
                       static_cast<long long>(expired_at),
                       static_cast<long long>(deadline)));
    }
  }

  void ReplayDuplicate(const obs::SpanRecord& span) {
    const obs::Tag* txn_tag = span.FindTag(kTxn);
    const obs::Tag* endpoint_tag = span.FindTag(kEndpoint);
    const obs::Tag* kind_tag = span.FindTag(kKind);
    const std::string_view txn = txn_tag == nullptr ? "" : TxnId(*txn_tag);
    if (txn_tag == nullptr || endpoint_tag == nullptr || kind_tag == nullptr) {
      Add(Rule::kTraceShape, span.id, txn, -1,
          "ntcp.dup event is missing required tags");
      return;
    }
    EndpointState& endpoint = Endpoint(NameOf(*endpoint_tag));
    endpoint.protocol = true;
    CheckEndpointAlive(span.id, endpoint, txn, -1);
    const obs::Atom kind = NameOf(*kind_tag);
    const auto it = txns_.find(txn);
    if (kind == kProposeMismatch) {
      Add(Rule::kAtMostOnce, span.id, txn,
          it == txns_.end() ? -1 : it->second.step,
          "transaction id reused with a different proposal");
      return;
    }
    if (it == txns_.end() || !it->second.created) {
      Add(Rule::kAtMostOnce, span.id, txn, -1,
          "duplicate " + std::string(kind.str()) +
              " for a transaction never created");
      return;
    }
    if (kind == kExecute &&
        it->second.state != TransactionState::kCompleted &&
        it->second.state != TransactionState::kFailed) {
      Add(Rule::kAtMostOnce, span.id, txn, it->second.step,
          "duplicate execute served from cache while the transaction was in " +
              std::string(ntcp::TransactionStateName(it->second.state)));
    }
  }

  void CheckEndpointAlive(std::uint64_t span_id,
                          const EndpointState& endpoint, std::string_view txn,
                          std::int64_t step) {
    if (endpoint.dead) {
      Add(Rule::kCrashConsistency, span_id, txn, step,
          "protocol event from crashed endpoint " +
              std::string(endpoint.name.str()));
    }
  }

  /// The endpoint a fault marker names, or nullptr (reported) when the
  /// marker has no endpoint tag.
  EndpointState* MarkerEndpoint(const obs::SpanRecord& span) {
    const obs::Tag* tag = span.FindTag(kEndpoint);
    if (tag == nullptr) {
      Add(Rule::kTraceShape, span.id, "", -1,
          std::string(span.name.str()) + " event is missing its endpoint tag");
      return nullptr;
    }
    return &Endpoint(NameOf(*tag));
  }

  void ReplayCrash(const obs::SpanRecord& span) {
    EndpointState* endpoint = MarkerEndpoint(span);
    if (endpoint == nullptr) return;
    if (endpoint->dead) {
      Add(Rule::kCrashConsistency, span.id, "", -1,
          "site.crash for already-dead endpoint " +
              std::string(endpoint->name.str()));
    }
    endpoint->dead = true;
    endpoint->ever_crashed = true;
  }

  void ReplayRestart(const obs::SpanRecord& span) {
    EndpointState* endpoint = MarkerEndpoint(span);
    if (endpoint == nullptr) return;
    if (!endpoint->dead) {
      Add(Rule::kCrashConsistency, span.id, "", -1,
          "site.restart for endpoint " + std::string(endpoint->name.str()) +
              " which never crashed");
    }
    endpoint->dead = false;
  }

  void ReplayRecover(const obs::SpanRecord& span) {
    EndpointState* endpoint = MarkerEndpoint(span);
    if (endpoint == nullptr) return;
    // Recovery runs in the *new* incarnation, after site.restart.
    if (endpoint->dead) {
      Add(Rule::kCrashConsistency, span.id, "", -1,
          "ntcp.recover from still-dead endpoint " +
              std::string(endpoint->name.str()));
    }
    if (!endpoint->ever_crashed) {
      Add(Rule::kCrashConsistency, span.id, "", -1,
          "ntcp.recover from endpoint " + std::string(endpoint->name.str()) +
              " which never crashed");
    }
  }

  void CheckTerminal() {
    // Reported in transaction-id order, so the report is independent of
    // hash order.
    std::vector<std::pair<std::string_view, const TxnTracker*>> open;
    for (const auto& [txn, tracker] : txns_) {
      if (tracker.created && !ntcp::IsTerminal(tracker.state)) {
        open.emplace_back(txn, &tracker);
      }
    }
    std::sort(open.begin(), open.end());
    for (const auto& [txn, tracker] : open) {
      Add(Rule::kNonTerminal, tracker->last_span, txn, tracker->step,
          "transaction ends the trace in non-terminal state " +
              std::string(ntcp::TransactionStateName(tracker->state)));
    }
  }

  void CheckStepMonotonicity() {
    // Endpoints in name order, as the report has always listed them.
    std::vector<const EndpointState*> ordered;
    for (const EndpointState& endpoint : endpoints_) {
      if (endpoint.proposals.size() > 1) ordered.push_back(&endpoint);
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const EndpointState* a, const EndpointState* b) {
                return a->name.str() < b->name.str();
              });
    for (const EndpointState* endpoint : ordered) {
      const std::vector<Proposed>& proposals = endpoint->proposals;
      for (std::size_t i = 1; i < proposals.size(); ++i) {
        const Proposed& previous = proposals[i - 1];
        const Proposed& current = proposals[i];
        if (current.step >= previous.step &&
            current.step <= previous.step + 1) {
          continue;
        }
        const bool reorder = current.step < previous.step;
        Add(Rule::kStepMonotonicity, current.span_id, current.txn,
            current.step,
            util::Format(reorder ? "%s: step %lld proposed after step %lld "
                                   "(reorder)"
                                 : "%s: step %lld follows step %lld (skip)",
                         std::string(endpoint->name.str()).c_str(),
                         static_cast<long long>(current.step),
                         static_cast<long long>(previous.step)));
      }
    }
  }

  LintReport report_;
  std::unordered_map<std::string_view, TxnTracker> txns_;
  std::vector<EndpointState> endpoints_;  // first-seen order
  std::deque<std::string> owned_ids_;     // non-text transaction ids
};

}  // namespace

std::string_view RuleName(Rule rule) {
  switch (rule) {
    case Rule::kTraceShape: return "trace-shape";
    case Rule::kIllegalTransition: return "illegal-transition";
    case Rule::kDuplicateExecute: return "duplicate-execute";
    case Rule::kAtMostOnce: return "at-most-once";
    case Rule::kNonTerminal: return "non-terminal";
    case Rule::kStepMonotonicity: return "step-monotonicity";
    case Rule::kBogusExpiry: return "bogus-expiry";
    case Rule::kSpanNesting: return "span-nesting";
    case Rule::kCrashConsistency: return "crash-consistency";
  }
  return "unknown";
}

std::string Violation::ToString() const {
  std::string out = "[";
  out += RuleName(rule);
  out += "]";
  if (!transaction_id.empty()) out += " txn=" + transaction_id;
  if (step >= 0) out += " step=" + std::to_string(step);
  if (span_id != 0) out += " span=#" + std::to_string(span_id);
  if (line > 0) out += " line=" + std::to_string(line);
  out += ": " + message;
  return out;
}

std::string LintReport::ToString() const {
  std::string out = util::Format(
      "%zu spans, %zu protocol events, %zu transactions across %zu "
      "endpoints: %zu violation(s)",
      stats.spans, stats.protocol_events, stats.transactions, stats.endpoints,
      violations.size());
  for (const Violation& violation : violations) {
    out += "\n  " + violation.ToString();
  }
  return out;
}

LintReport LintSpans(const std::vector<obs::SpanRecord>& spans) {
  return Linter().Run(spans);
}

LintReport LintSpans(const obs::Trace& trace) {
  if (!trace.dense()) return Linter().Run(obs::Materialize(trace));
  return Linter().Run(trace);
}

util::Result<LintReport> LintTraceText(const std::string& text) {
  NEES_ASSIGN_OR_RETURN(std::vector<obs::SpanRecord> spans,
                        obs::ParseJsonLines(text));
  LintReport report = LintSpans(spans);

  // Spans parse one per non-blank line, in order: recover line numbers so a
  // violation points straight into the trace file.
  std::map<std::uint64_t, int> line_of_span;
  int line_number = 0;
  std::size_t span_index = 0;
  for (const std::string& line : util::Split(text, '\n')) {
    ++line_number;
    if (util::Trim(line).empty()) continue;
    if (span_index < spans.size()) {
      line_of_span.emplace(spans[span_index].id, line_number);
      ++span_index;
    }
  }
  for (Violation& violation : report.violations) {
    const auto it = line_of_span.find(violation.span_id);
    if (it != line_of_span.end()) violation.line = it->second;
  }
  return report;
}

util::Result<LintReport> LintTraceFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::NotFound("cannot open trace file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return util::DataLoss("error reading trace file: " + path);
  }
  return LintTraceText(buffer.str());
}

namespace {

/// Entries into kExecuting per (endpoint, PSD step), fed one ntcp.txn event
/// at a time, and the exactly-once verdict over them.
class ExecutingCounts {
 public:
  ExecutingCounts(const std::vector<std::string>& endpoints, std::size_t steps)
      : endpoints_(endpoints), steps_(steps),
        counts_(endpoints.size() * steps, 0) {
    names_.reserve(endpoints.size());
    for (const std::string& endpoint : endpoints) {
      names_.push_back(obs::Atom(endpoint));
    }
  }

  void Add(obs::Atom endpoint, obs::Atom to, std::int64_t step) {
    if (step < 0 || static_cast<std::uint64_t>(step) >= steps_ ||
        to != executing_) {
      return;
    }
    const auto at = static_cast<std::size_t>(step);
    for (std::size_t e = 0; e < names_.size(); ++e) {
      if (names_[e] == endpoint) ++counts_[e * steps_ + at];
    }
  }

  /// A span-shaped event; one missing a tag counts nowhere.
  void Add(const obs::SpanRecord& span) {
    if (span.name != kTxnEvent) return;
    const obs::Tag* to = span.FindTag(kTo);
    const obs::Tag* endpoint = span.FindTag(kEndpoint);
    const obs::Tag* step = IntTag(span, kStep);
    if (to == nullptr || endpoint == nullptr || step == nullptr) return;
    Add(NameOf(*endpoint), NameOf(*to), step->number);
  }

  std::vector<std::string> Violations(std::uint64_t max_reattempts) const {
    std::vector<std::string> violations;
    for (std::size_t e = 0; e < endpoints_.size(); ++e) {
      const std::string& endpoint = endpoints_[e];
      for (std::size_t step = 0; step < steps_; ++step) {
        const std::uint64_t count = counts_[e * steps_ + step];
        if (count == 0) {
          violations.push_back(util::Format(
              "step %zu never entered kExecuting at %s despite run "
              "completion",
              step, endpoint.c_str()));
        } else if (count > 1 + max_reattempts) {
          violations.push_back(util::Format(
              "step %zu entered kExecuting %llu times at %s (max allowed "
              "1 + %llu re-proposals)",
              step, static_cast<unsigned long long>(count), endpoint.c_str(),
              static_cast<unsigned long long>(max_reattempts)));
        }
      }
    }
    return violations;
  }

 private:
  const std::vector<std::string>& endpoints_;
  const std::size_t steps_;
  const obs::Atom executing_ =
      ntcp::TransactionStateAtom(TransactionState::kExecuting);
  std::vector<obs::Atom> names_;
  // counts_[e * steps_ + step]
  std::vector<std::uint64_t> counts_;
};

}  // namespace

std::vector<std::string> CheckExactlyOncePerStep(
    const obs::Trace& trace, const std::vector<std::string>& endpoints,
    std::size_t steps, std::uint64_t max_reattempts) {
  ExecutingCounts counts(endpoints, steps);
  for (const obs::TxnRow& row : trace.txns()) {
    counts.Add(row.endpoint, row.to, row.step);
  }
  for (const obs::SpanRecord& span : trace.spans()) counts.Add(span);
  return counts.Violations(max_reattempts);
}

}  // namespace nees::check
