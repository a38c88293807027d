// Offline NTCP protocol conformance checker ("nees-lint").
//
// The paper's safety argument rests on the Fig. 1 transaction state machine
// and its at-most-once guarantee; the PR-1 tracer gives every run a
// byte-stable JSON-lines trace. This checker closes the loop: the NTCP
// server emits one structured "ntcp.txn" event per state transition (plus
// "ntcp.dup" events for retries served from the at-most-once cache), and
// the linter replays a trace against the protocol rule set:
//
//   * legal-path   — every transaction starts with a creation event, walks
//                    only Fig. 1 transitions, and ends in a terminal state;
//   * at-most-once — no transaction enters kExecuting twice; duplicate
//                    proposals/executes are served only from known,
//                    already-answered transactions;
//   * monotonicity — per NTCP endpoint, proposed PSD step indices never
//                    skip or reorder (repeats are fine: re-proposal);
//   * expiry       — a kExpired transition implies the proposal window had
//                    actually lapsed on the trace clock;
//   * nesting      — spans reference existing earlier parents, start inside
//                    them, and children of a "step"-category span (the PSD
//                    step) also end inside it;
//   * crash        — between a "site.crash" and the matching "site.restart"
//                    an endpoint emits nothing; "ntcp.recover" appears only
//                    after a crash; cause=crash-recovery transitions are
//                    exactly the executing -> failed crash-marks of
//                    docs/RECOVERY.md.
//
// Violations carry the transaction, step, and offending span (== trace
// line for tracer exports), so a failure is directly diffable against the
// trace text.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/result.h"

namespace nees::check {

enum class Rule {
  kTraceShape = 0,     // ids not ascending, negative duration, bad event tags
  kIllegalTransition,  // path violates Fig. 1 (incl. missing creation)
  kDuplicateExecute,   // transaction entered kExecuting more than once
  kAtMostOnce,         // duplicate propose/execute outside the dedup rules
  kNonTerminal,        // transaction not terminal at end of trace
  kStepMonotonicity,   // per-endpoint PSD step skipped or reordered
  kBogusExpiry,        // kExpired before the proposal window lapsed
  kSpanNesting,        // orphan parent / child escaping its PSD-step span
  kCrashConsistency,   // crash/restart/recovery events violate the
                       // docs/RECOVERY.md restart state machine: protocol
                       // events from a dead endpoint, recovery without a
                       // crash, or a crash-recovery transition that is not
                       // executing -> failed
};

std::string_view RuleName(Rule rule);

struct Violation {
  Rule rule = Rule::kTraceShape;
  std::string transaction_id;  // empty when not transaction-scoped
  std::int64_t step = -1;      // PSD step, -1 when unknown / not applicable
  std::uint64_t span_id = 0;   // offending span (0 = whole trace)
  int line = 0;                // 1-based trace line (0 when linting spans)
  std::string message;

  std::string ToString() const;
};

struct LintStats {
  std::size_t spans = 0;
  std::size_t protocol_events = 0;  // ntcp.txn + ntcp.dup events
  std::size_t transactions = 0;
  std::size_t endpoints = 0;
};

struct LintReport {
  LintStats stats;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  /// Summary line plus one line per violation.
  std::string ToString() const;
};

/// Replays a span stream (tracer snapshot or parsed trace) against the
/// protocol rule set above.
LintReport LintSpans(const std::vector<obs::SpanRecord>& spans);
/// The same report as linting Materialize(trace). A dense trace (every one
/// a tracer hands over) is replayed with its rows read in place; any other
/// is materialized first.
LintReport LintSpans(const obs::Trace& trace);

/// Parses a JSON-lines trace and lints it; violations carry the 1-based
/// line number of the offending trace line. Fails on malformed input.
util::Result<LintReport> LintTraceText(const std::string& text);

/// Reads `path` (the most_experiment / bench_obs trace dump format) and
/// lints it.
util::Result<LintReport> LintTraceFile(const std::string& path);

/// Fuzz oracle: run-completion => exactly-once-per-site-per-step. Counts
/// entries into kExecuting per (endpoint, PSD step) from the "ntcp.txn"
/// events of a trace, rows and spans alike. When the run finished with zero
/// step re-proposals (`max_reattempts == 0`) every (endpoint, step) pair
/// must have executed exactly once; with re-proposals a step may
/// legitimately re-execute under a fresh transaction after a partial phase
/// failure (at-most-once is per-*transaction*, which LintSpans enforces),
/// so the count is bounded by 1 + max_reattempts. Returns one message per
/// violation; empty means the oracle holds.
std::vector<std::string> CheckExactlyOncePerStep(
    const obs::Trace& trace, const std::vector<std::string>& endpoints,
    std::size_t steps, std::uint64_t max_reattempts);

}  // namespace nees::check
