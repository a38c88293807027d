#include "check/corrupt.h"

#include <algorithm>
#include <map>
#include <string>

#include "util/strings.h"

namespace nees::check {
namespace {

const obs::Atom kTxnEvent("ntcp.txn");
const obs::Atom kDupEvent("ntcp.dup");
const obs::Atom kFrom("from");
const obs::Atom kTo("to");
const obs::Atom kAt("at");
const obs::Atom kTxn("txn");
const obs::Atom kEndpoint("endpoint");
const obs::Atom kStep("step");

void SetTag(obs::SpanRecord* span, obs::Tag tag) {
  for (obs::Tag& existing : span->tags) {
    if (existing.key == tag.key) {
      existing = std::move(tag);
      return;
    }
  }
  span->tags.push_back(std::move(tag));
}

/// True when the tag `key` exports as `value`.
bool TagEquals(const obs::SpanRecord& span, obs::Atom key,
               std::string_view value) {
  const obs::Tag* tag = span.FindTag(key);
  return tag != nullptr && tag->ValueText() == value;
}

std::uint64_t NextId(const std::vector<obs::SpanRecord>& spans) {
  std::uint64_t max_id = 0;
  for (const obs::SpanRecord& span : spans) max_id = std::max(max_id, span.id);
  return max_id + 1;
}

obs::SpanRecord MakeTxnEvent(std::uint64_t id, const std::string& txn,
                             const std::string& endpoint,
                             std::string_view from, std::string_view to,
                             std::int64_t at, std::int64_t timeout) {
  obs::SpanRecord event;
  event.id = id;
  event.parent_id = 0;
  event.name = kTxnEvent;
  event.category = "txn";
  event.start_micros = at;
  event.end_micros = at;
  event.tags = {{kTxn, txn},
                {kEndpoint, obs::Atom(endpoint)},
                {kFrom, obs::Atom(from)},
                {kTo, obs::Atom(to)},
                {kStep, -1},
                {kAt, at},
                {"timeout", timeout}};
  return event;
}

/// Appends a copy of the first ntcp.txn event matching from/to, with the
/// tags rewritten by `mutate`.
util::Result<std::vector<obs::SpanRecord>> AppendMutatedCopy(
    std::vector<obs::SpanRecord> spans, std::string_view from,
    std::string_view to, void (*mutate)(obs::SpanRecord*)) {
  for (const obs::SpanRecord& span : spans) {
    if (span.name != kTxnEvent || !TagEquals(span, kFrom, from) ||
        !TagEquals(span, kTo, to)) {
      continue;
    }
    obs::SpanRecord copy = span;
    copy.id = NextId(spans);
    copy.parent_id = 0;
    // Re-date the copy to the end of the trace so span ids stay ascending
    // without the shape rule firing on the timestamps.
    const obs::SpanRecord& last = spans.back();
    copy.start_micros = std::max(last.start_micros, last.end_micros);
    copy.end_micros = copy.start_micros;
    SetTag(&copy, {kAt, copy.start_micros});
    mutate(&copy);
    spans.push_back(std::move(copy));
    return spans;
  }
  return util::FailedPrecondition(
      util::Format("trace has no %s->%s event to corrupt",
                   std::string(from).c_str(), std::string(to).c_str()));
}

}  // namespace

util::Result<std::vector<obs::SpanRecord>> SeedIllegalTransition(
    std::vector<obs::SpanRecord> spans) {
  return AppendMutatedCopy(std::move(spans), "executing", "completed",
                           [](obs::SpanRecord* span) {
                             SetTag(span, {kFrom, "completed"});
                             SetTag(span, {kTo, "accepted"});
                           });
}

util::Result<std::vector<obs::SpanRecord>> SeedDuplicateExecute(
    std::vector<obs::SpanRecord> spans) {
  return AppendMutatedCopy(std::move(spans), "accepted", "executing",
                           [](obs::SpanRecord*) {});
}

util::Result<std::vector<obs::SpanRecord>> SeedSkippedStep(
    std::vector<obs::SpanRecord> spans) {
  // Pick the first endpoint's creation events and find a middle step whose
  // transaction was proposed exactly once (no re-proposal noise).
  obs::Atom endpoint;
  struct Creation { std::int64_t step; std::string txn; };
  std::vector<Creation> creations;
  std::map<std::int64_t, int> step_count;
  for (const obs::SpanRecord& span : spans) {
    if (span.name != kTxnEvent || !TagEquals(span, kFrom, "none")) continue;
    const obs::Tag* span_endpoint = span.FindTag(kEndpoint);
    const obs::Tag* txn = span.FindTag(kTxn);
    const obs::Tag* step = span.FindTag(kStep);
    if (span_endpoint == nullptr || txn == nullptr || step == nullptr ||
        step->kind != obs::Tag::Kind::kInt || step->number < 0) {
      continue;
    }
    const obs::Atom name(span_endpoint->ValueText());
    if (!endpoint.valid()) endpoint = name;
    if (name != endpoint) continue;
    creations.push_back({step->number, txn->ValueText()});
    ++step_count[step->number];
  }
  for (std::size_t i = 1; i + 1 < creations.size(); ++i) {
    if (step_count[creations[i].step] != 1) continue;
    const std::string& victim = creations[i].txn;
    spans.erase(std::remove_if(spans.begin(), spans.end(),
                               [&victim](const obs::SpanRecord& span) {
                                 return (span.name == kTxnEvent ||
                                         span.name == kDupEvent) &&
                                        TagEquals(span, kTxn, victim);
                               }),
                spans.end());
    return spans;
  }
  return util::FailedPrecondition(
      "trace has no uniquely-proposed middle step to erase");
}

std::vector<obs::SpanRecord> SeedBogusExpiry(
    std::vector<obs::SpanRecord> spans) {
  const std::int64_t base =
      spans.empty() ? 0
                    : std::max(spans.back().start_micros,
                               spans.back().end_micros);
  std::uint64_t id = NextId(spans);
  const std::string txn = "seeded-expiry";
  const std::string endpoint = "ntcp.seeded";
  constexpr std::int64_t kWindow = 60'000'000;  // 60 s proposal window
  spans.push_back(
      MakeTxnEvent(id++, txn, endpoint, "none", "proposed", base, kWindow));
  spans.push_back(MakeTxnEvent(id++, txn, endpoint, "proposed", "accepted",
                               base + 10, kWindow));
  // Expired a millisecond in: the window had 59.999 s left to run.
  spans.push_back(MakeTxnEvent(id++, txn, endpoint, "accepted", "expired",
                               base + 1'000, kWindow));
  return spans;
}

}  // namespace nees::check
