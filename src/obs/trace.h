// Span-based tracing for the experiment stack. The paper reconstructed the
// MOST step timeline from NTP-synchronized site logs; here every layer of
// the reproduction (coordinator, NTCP client/server, plugins, network, DAQ,
// NSDS) records spans against a shared clock instead — under a SimClock the
// resulting trace is fully deterministic and fault-injection-aware.
//
// Modeled time: the simulated network and the actuator emulators *compute*
// delays (transmission micros, settle seconds) without sleeping. When the
// tracer is given a modeled SimClock, recording such a delay advances it, so
// span durations reflect the modeled wide-area timeline rather than host
// scheduling noise. Pass the same SimClock as both `clock` and `modeled`
// for a deterministic trace; pass a SystemClock and no modeled clock to
// measure real wall time instead.
//
// Storage: a span's name, category and tag keys are interned Atoms
// (obs/intern.h) and its tag values are typed — integers and names as
// words, free-form text as strings — so recording a span formats nothing.
// Text is rendered only by ExportJsonLines and BreakdownTable.
//
// Parenting: spans nest implicitly per thread (a span started while another
// is open on the same thread becomes its child). Cross-thread hops — the
// MPlugin's poll/notify hand-off, parallel per-site phases — pass an
// explicit parent id instead.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/mutex.h"

#include "obs/intern.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/result.h"

namespace nees::obs {

/// One span tag: an interned key and a typed value. Integers and names are
/// stored as words and rendered to text only on export; free-form values
/// (transaction ids, error text) stay strings. Every value exports as a JSON
/// string, so a typed tag and a text tag with the same rendering export
/// the same bytes.
struct Tag {
  enum class Kind : std::uint8_t { kInt, kName, kText };

  Atom key;
  Kind kind = Kind::kInt;
  std::int64_t number = 0;  // kInt: the value; kName: the value atom's raw id
  std::string text;         // kText: the value

  Tag() = default;
  template <std::integral T>
  Tag(Atom k, T value)
      : key(k), kind(Kind::kInt), number(static_cast<std::int64_t>(value)) {}
  Tag(Atom k, Atom value)
      : key(k), kind(Kind::kName), number(value.raw()) {}
  /// A literal value is a name (bounded by the program text).
  template <std::size_t N>
  Tag(Atom k, const char (&value)[N]) : Tag(k, Atom(value)) {}
  Tag(Atom k, std::string value)
      : key(k), kind(Kind::kText), text(std::move(value)) {}

  Atom name() const {
    return Atom::FromRaw(static_cast<std::uint32_t>(number));
  }
  /// The exported text of the value (unquoted, unescaped).
  std::string ValueText() const;

  /// Equal when the keys match and the values export the same text.
  friend bool operator==(const Tag& a, const Tag& b);
};

struct SpanRecord {
  std::uint64_t id = 0;         // 1-based; 0 is "no span"
  std::uint64_t parent_id = 0;  // 0 = root
  Atom name;                    // "psd.step", "ntcp.execute", ...
  Atom category;                // "step", "protocol", "network", "settle", ...
  std::int64_t start_micros = 0;
  std::int64_t end_micros = -1;  // -1 while open
  std::int64_t modeled_micros = 0;  // modeled delay charged to this span
  std::vector<Tag> tags;            // insertion order

  bool operator==(const SpanRecord&) const = default;
  /// Closed duration; open spans count as zero-length.
  std::int64_t DurationMicros() const {
    return end_micros < start_micros ? 0 : end_micros - start_micros;
  }
  /// First tag with `key`, or nullptr.
  const Tag* FindTag(Atom key) const {
    for (const Tag& tag : tags) {
      if (tag.key == key) return &tag;
    }
    return nullptr;
  }
};

class Tracer;

/// RAII handle for an open span. Movable; End() (or destruction) closes it.
/// A default-constructed Span is inactive and every operation is a no-op.
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  void End();
  void AddTag(Tag tag);
  template <typename V>
  void AddTag(Atom key, V&& value) {
    if (tracer_ != nullptr) AddTag(Tag(key, std::forward<V>(value)));
  }
  /// Charges a modeled delay to this span (advances the tracer's modeled
  /// clock, if any).
  void AddModeledMicros(std::int64_t micros);

  std::uint64_t id() const { return id_; }
  bool active() const { return tracer_ != nullptr; }

 private:
  friend class Tracer;
  Span(Tracer* tracer, std::uint64_t id) : tracer_(tracer), id_(id) {}

  Tracer* tracer_ = nullptr;
  std::uint64_t id_ = 0;
};

class Tracer {
 public:
  using Tags = std::vector<Tag>;

  /// `clock` stamps span boundaries; both must outlive the tracer. If
  /// `modeled` is non-null, modeled delays advance it (see file comment).
  explicit Tracer(util::Clock* clock, util::SimClock* modeled = nullptr);

  // --- spans ----------------------------------------------------------------
  Span StartSpan(Atom name, Atom category);
  /// Explicit parent; the span still joins the calling thread's stack so
  /// later same-thread spans nest under it.
  Span StartSpanWithParent(Atom name, Atom category, std::uint64_t parent_id);

  /// Non-RAII surface for producer/consumer hops where the span outlives
  /// the starting scope (e.g. MPlugin poll -> backend compute -> notify).
  std::uint64_t BeginSpanId(Atom name, Atom category, std::uint64_t parent_id,
                            Tags tags = {});
  void EndSpanId(std::uint64_t id);
  void AddTagById(std::uint64_t id, Tag tag);
  template <typename V>
  void AddTagById(std::uint64_t id, Atom key, V&& value) {
    AddTagById(id, Tag(key, std::forward<V>(value)));
  }
  void AddModeledMicrosById(std::uint64_t id, std::int64_t micros);

  // --- events ---------------------------------------------------------------
  /// Records a child of the calling thread's current span whose duration is
  /// the modeled delay (zero-length when `modeled_micros` is 0).
  void RecordEvent(Atom name, Atom category, std::int64_t modeled_micros = 0,
                   Tags tags = {});
  void RecordEventUnder(std::uint64_t parent_id, Atom name, Atom category,
                        std::int64_t modeled_micros = 0, Tags tags = {});
  /// Records an interval measured by the caller (e.g. queue dwell time).
  void RecordInterval(std::uint64_t parent_id, Atom name, Atom category,
                      std::int64_t start_micros, std::int64_t end_micros,
                      Tags tags = {});

  /// Innermost open span on the calling thread (0 if none).
  std::uint64_t CurrentSpanId() const;
  std::int64_t NowMicros() const { return clock_->NowMicros(); }

  MetricsRegistry& metrics() { return metrics_; }

  // --- export ---------------------------------------------------------------
  /// A copy of the spans so far, ordered by id, for live readers.
  std::vector<SpanRecord> Snapshot() const;
  /// Hands the spans over to an end-of-run consumer instead of copying
  /// them. The tracer is left with no spans and no open-span stacks; spans
  /// recorded afterwards start again at id 1. Metrics are kept.
  std::vector<SpanRecord> TakeSpans();
  std::size_t span_count() const;

  /// One JSON object per line, ids ascending, fixed key order — two runs
  /// with identical modeled timelines export byte-identical text.
  std::string ExportJsonLines() const;

  /// Per-category *exclusive* time (span duration minus its children's, so
  /// nested protocol/network/settle spans are not double-counted), as a
  /// util::TextTable sorted by total share.
  std::string BreakdownTable() const;

  void Clear();

 private:
  struct ThreadStack {
    std::thread::id thread;
    std::vector<std::uint64_t> open;
  };

  std::vector<std::uint64_t>& StackLocked() NEES_REQUIRES(mu_);
  SpanRecord& StartLocked(Atom name, Atom category, std::uint64_t parent_id,
                          bool implicit_parent, bool push_stack)
      NEES_REQUIRES(mu_);
  void EndLocked(std::uint64_t id) NEES_REQUIRES(mu_);
  /// A closed span whose duration is `modeled_micros` of modeled time;
  /// `implicit_parent` takes the calling thread's current span as parent.
  void RecordModeledEvent(std::uint64_t parent_id, bool implicit_parent,
                          Atom name, Atom category,
                          std::int64_t modeled_micros, Tags tags);
  void RecordClosedLocked(std::uint64_t parent_id, bool implicit_parent,
                          Atom name, Atom category, std::int64_t start_micros,
                          std::int64_t end_micros,
                          std::int64_t modeled_micros, Tags tags)
      NEES_REQUIRES(mu_);

  util::Clock* clock_;
  util::SimClock* modeled_;
  MetricsRegistry metrics_;

  mutable util::Mutex mu_{"obs.Tracer"};
  // spans_[i].id == i + 1
  std::vector<SpanRecord> spans_ NEES_GUARDED_BY(mu_);
  // Open-span stacks, one per thread that has recorded; a handful at most.
  std::vector<ThreadStack> stacks_ NEES_GUARDED_BY(mu_);
};

/// Serializes an arbitrary span vector in the Tracer::ExportJsonLines
/// format (one JSON object per line, fixed key order). Lets offline trace
/// tooling re-export edited span streams.
std::string ExportJsonLines(const std::vector<SpanRecord>& spans);

/// Fingerprint of a span stream for the same-seed determinism oracle:
/// util::WordHash over every field JSONL exports, one word per id, time,
/// atom pair or integer value and 8-byte words over text values. Atoms hash
/// as ids, so compare fingerprints only within one process.
std::uint64_t FingerprintSpans(const std::vector<SpanRecord>& spans);

/// Parses ExportJsonLines output back into records (round-trip tests and
/// offline trace tooling). Rejects malformed lines with kDataLoss. Names,
/// categories and tag keys are interned; a tag value that is a canonical
/// decimal integer (as export renders one) parses as kInt, any other value
/// as kText, so re-export is byte-identical.
util::Result<std::vector<SpanRecord>> ParseJsonLines(const std::string& text);

}  // namespace nees::obs
