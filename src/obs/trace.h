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
// Text is rendered only by ExportJsonLines and BreakdownTable. The tags of
// recorded spans live in the tracer's TagArena, so recording a span whose
// tag values are integers, names or short text allocates nothing. The two
// hottest events, "net.deliver" and "ntcp.txn", are not spans at all but
// fixed-width rows (DeliverRow, TxnRow) in the same id sequence; a Trace
// holds both, and Materialize turns rows back into the spans they stand
// for (DESIGN.md decision 22).
//
// Parenting: spans nest implicitly per thread (a span started while another
// is open on the same thread becomes its child). Cross-thread hops — the
// MPlugin's poll/notify hand-off, parallel per-site phases — pass an
// explicit parent id instead.
#pragma once

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <string_view>
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

/// Bump storage for the tags of the spans one tracer records. Tags are
/// retained until the run's spans are consumed, so per-span heap blocks
/// would cost one allocation per tagged span; the arena hands out slices of
/// 8 KiB chunks instead and frees them all when the last TagList using it
/// is gone (it is reference-counted by the tracer and every such list).
/// Allocation is not thread-safe: the tracer allocates under its lock, and
/// spans it hands over get the old arena to themselves.
class TagArena {
 public:
  static TagArena* Create() { return new TagArena(); }
  void Ref() { refs_.fetch_add(1, std::memory_order_relaxed); }
  void Unref() {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }
  void* Allocate(std::size_t bytes);

 private:
  TagArena() = default;
  static constexpr std::size_t kChunkBytes = 8 * 1024;
  std::atomic<std::uint32_t> refs_{1};
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* cursor_ = nullptr;
  std::size_t left_ = 0;
};

/// A span's tags, in insertion order: a vector of Tag that is the size of
/// a std::vector. A list the tracer records into takes its storage from
/// the tracer's TagArena (regrowth abandons the old slice to the arena); a
/// default-constructed, copied or parsed list uses the heap, so a copy
/// never shares the tracer's arena.
class TagList {
 public:
  TagList() = default;
  explicit TagList(TagArena* arena) : arena_(arena) {
    if (arena_ != nullptr) arena_->Ref();
  }
  TagList(std::initializer_list<Tag> tags) {
    Append(tags.begin(), tags.size());
  }
  TagList(const TagList& other) { Append(other.data_, other.size_); }
  TagList(TagList&& other) noexcept
      : data_(other.data_), size_(other.size_), capacity_(other.capacity_),
        arena_(other.arena_) {
    other.data_ = nullptr;
    other.size_ = other.capacity_ = 0;
    other.arena_ = nullptr;
  }
  TagList& operator=(const TagList& other) {
    if (this != &other) {
      clear();
      Append(other.data_, other.size_);
    }
    return *this;
  }
  TagList& operator=(TagList&& other) noexcept {
    if (this != &other) {
      Release();
      std::swap(data_, other.data_);
      std::swap(size_, other.size_);
      std::swap(capacity_, other.capacity_);
      std::swap(arena_, other.arena_);
    }
    return *this;
  }
  TagList& operator=(std::initializer_list<Tag> tags) {
    clear();
    Append(tags.begin(), tags.size());
    return *this;
  }
  ~TagList() { Release(); }

  template <typename... Args>
  Tag& emplace_back(Args&&... args) {
    if (size_ == capacity_) Grow(capacity_ == 0 ? 1 : 2 * capacity_);
    Tag* tag = ::new (data_ + size_) Tag(std::forward<Args>(args)...);
    ++size_;
    return *tag;
  }
  void push_back(Tag tag) { emplace_back(std::move(tag)); }
  void pop_back() { data_[--size_].~Tag(); }
  void clear() {
    for (std::uint32_t i = 0; i < size_; ++i) data_[i].~Tag();
    size_ = 0;
  }
  void reserve(std::size_t n) {
    if (n > capacity_) Grow(n);
  }
  /// Replaces the tags with `n` moved from `tags`.
  void AssignMoved(Tag* tags, std::size_t n) {
    clear();
    reserve(n);
    for (std::size_t i = 0; i < n; ++i) emplace_back(std::move(tags[i]));
  }
  /// Replaces the tags with copies of `n` from `tags`.
  void AssignCopied(const Tag* tags, std::size_t n) {
    clear();
    Append(tags, n);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Tag* begin() { return data_; }
  Tag* end() { return data_ + size_; }
  const Tag* begin() const { return data_; }
  const Tag* end() const { return data_ + size_; }
  Tag& operator[](std::size_t i) { return data_[i]; }
  const Tag& operator[](std::size_t i) const { return data_[i]; }
  Tag& back() { return data_[size_ - 1]; }
  const Tag& back() const { return data_[size_ - 1]; }

  friend bool operator==(const TagList& a, const TagList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  void Append(const Tag* tags, std::size_t n) {
    reserve(size_ + n);
    for (std::size_t i = 0; i < n; ++i) emplace_back(tags[i]);
  }
  /// Moves the tags to storage for `n`.
  void Grow(std::size_t n) {
    Tag* block = static_cast<Tag*>(
        arena_ != nullptr ? arena_->Allocate(n * sizeof(Tag))
                          : ::operator new(n * sizeof(Tag)));
    for (std::uint32_t i = 0; i < size_; ++i) {
      ::new (block + i) Tag(std::move(data_[i]));
      data_[i].~Tag();
    }
    if (arena_ == nullptr) ::operator delete(data_);
    data_ = block;
    capacity_ = static_cast<std::uint32_t>(n);
  }
  void Release() {
    clear();
    if (arena_ == nullptr) ::operator delete(data_);
    else arena_->Unref();
    data_ = nullptr;
    capacity_ = 0;
    arena_ = nullptr;
  }

  Tag* data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
  TagArena* arena_ = nullptr;  // null: heap storage
};

struct SpanRecord {
  std::uint64_t id = 0;         // 1-based; 0 is "no span"
  std::uint64_t parent_id = 0;  // 0 = root
  Atom name;                    // "psd.step", "ntcp.execute", ...
  Atom category;                // "step", "protocol", "network", "settle", ...
  std::int64_t start_micros = 0;
  std::int64_t end_micros = -1;  // -1 while open
  std::int64_t modeled_micros = 0;  // modeled delay charged to this span
  TagList tags;                     // insertion order

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

/// A "net.deliver" event (category "network") as a fixed-width row: the
/// tags it exports, from and to, are endpoint names, and its modeled delay
/// is the link's. Exports as a span with tags {from, to}.
struct DeliverRow {
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;
  std::int64_t start_micros = 0;
  std::int64_t end_micros = 0;
  std::int64_t modeled_micros = 0;
  Atom from;
  Atom to;

  static Atom Category();  // "network"
};

/// An "ntcp.txn" state transition (category "txn", no modeled time) as a
/// fixed-width row. The transaction id is free-form text, so the row holds
/// it as a slice of its Trace's text pool (see Trace::TxnId) instead of
/// interning it. Exports as a span with tags {txn, endpoint, from, to, step,
/// at, timeout} and a trailing {cause} when `cause` is valid.
struct TxnRow {
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;
  std::int64_t start_micros = 0;
  std::int64_t end_micros = 0;
  std::int64_t step = -1;
  std::int64_t at = 0;
  std::int64_t timeout = 0;
  std::uint32_t txn_offset = 0;
  std::uint32_t txn_size = 0;
  Atom endpoint;
  Atom from;
  Atom to;
  Atom cause;  // invalid: no cause

  static Atom Category();  // "txn"
};

/// What a producer passes to Tracer::RecordTxnTransition.
struct TxnTransition {
  std::string_view txn;
  Atom endpoint;
  Atom from;
  Atom to;
  std::int64_t step = -1;
  std::int64_t at = 0;
  std::int64_t timeout = 0;
  Atom cause;  // invalid: no cause
};

/// A recorded trace: spans plus the rows of the two hot event kinds, in one
/// stream. Records keep their append order; a tracer appends in id order
/// from 1, so a trace it hands over is dense (record i has id i + 1) and
/// its stream order is exactly the id order Materialize reproduces.
/// Consumers that know the row kinds (ExportJsonLines, FingerprintSpans,
/// check::LintSpans) read rows in place; everything else materializes.
class Trace {
 public:
  /// Appends a record. A record whose id is not the next in 1..n leaves
  /// the trace non-dense (hand-built and edited traces).
  SpanRecord& AddSpan(SpanRecord span);
  void AddDeliver(const DeliverRow& row);
  /// Copies `txn` into the text pool and points the row at it.
  void AddTxn(TxnRow row, std::string_view txn);

  std::size_t size() const { return order_.size(); }
  bool empty() const { return order_.empty(); }
  bool dense() const { return dense_; }
  void clear();

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<DeliverRow>& delivers() const { return delivers_; }
  const std::vector<TxnRow>& txns() const { return txns_; }
  std::string_view TxnId(const TxnRow& row) const {
    return std::string_view(text_).substr(row.txn_offset, row.txn_size);
  }

  /// Calls fn(const SpanRecord&), fn(const DeliverRow&) or fn(const
  /// TxnRow&) for every record, in stream order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const std::uint32_t where : order_) VisitAt(where, fn);
  }
  /// Calls fn on the record with `id` and returns true; false when there
  /// is none or the trace is not dense.
  template <typename Fn>
  bool Visit(std::uint64_t id, Fn&& fn) const {
    if (!dense_ || id == 0 || id > order_.size()) return false;
    VisitAt(order_[id - 1], fn);
    return true;
  }
  /// The span with `id` in a dense trace; nullptr for a row or no record.
  SpanRecord* FindSpan(std::uint64_t id);

 private:
  // order_ entries: the record's kind in the top two bits, its index in
  // that kind's vector below.
  enum Kind : std::uint32_t { kSpan = 0, kDeliver = 1, kTxn = 2 };
  static constexpr int kKindShift = 30;
  static constexpr std::uint32_t kIndexMask = (1u << kKindShift) - 1;

  template <typename Fn>
  void VisitAt(std::uint32_t where, Fn& fn) const {
    const std::uint32_t index = where & kIndexMask;
    switch (where >> kKindShift) {
      case kSpan: fn(spans_[index]); break;
      case kDeliver: fn(delivers_[index]); break;
      default: fn(txns_[index]); break;
    }
  }
  void Append(Kind kind, std::size_t index, std::uint64_t id);
  friend std::vector<SpanRecord> Materialize(Trace&& trace);

  std::vector<std::uint32_t> order_;
  std::vector<SpanRecord> spans_;
  std::vector<DeliverRow> delivers_;
  std::vector<TxnRow> txns_;
  std::string text_;  // transaction ids of txns_
  bool dense_ = true;
};

/// The trace as plain spans, in stream order: each row becomes the span it
/// exports as. The rvalue form moves the spans out instead of copying them.
std::vector<SpanRecord> Materialize(const Trace& trace);
std::vector<SpanRecord> Materialize(Trace&& trace);

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
  /// Tags for a record call, copied into the span.
  using Tags = std::initializer_list<Tag>;

  /// `clock` stamps span boundaries; both must outlive the tracer. If
  /// `modeled` is non-null, modeled delays advance it (see file comment).
  explicit Tracer(util::Clock* clock, util::SimClock* modeled = nullptr);
  ~Tracer();

  // --- spans ----------------------------------------------------------------
  Span StartSpan(Atom name, Atom category);
  /// Explicit parent; the span still joins the calling thread's stack so
  /// later same-thread spans nest under it.
  Span StartSpanWithParent(Atom name, Atom category, std::uint64_t parent_id);

  /// Non-RAII surface for producer/consumer hops where the span outlives
  /// the starting scope (e.g. MPlugin poll -> backend compute -> notify).
  std::uint64_t BeginSpanId(Atom name, Atom category, std::uint64_t parent_id,
                            Tags tags = {});
  /// As above, moving the tags from the caller's array.
  std::uint64_t BeginSpanId(Atom name, Atom category, std::uint64_t parent_id,
                            std::span<Tag> tags);
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

  // --- rows -----------------------------------------------------------------
  // The hot events as rows: each records what RecordEvent records for the
  // same name, category, delay and tags, in a fixed-width record instead
  // of a SpanRecord with a TagList. Rows take ids from the span sequence
  // and, like events, never join the span stack, so they are never
  // parents.

  /// A "net.deliver" event charging `modeled_micros` of link delay.
  void RecordDelivery(Atom from, Atom to, std::int64_t modeled_micros);
  /// A zero-length "ntcp.txn" event.
  void RecordTxnTransition(const TxnTransition& transition);

  /// Innermost open span on the calling thread (0 if none).
  std::uint64_t CurrentSpanId() const;
  std::int64_t NowMicros() const { return clock_->NowMicros(); }

  MetricsRegistry& metrics() { return metrics_; }

  // --- export ---------------------------------------------------------------
  /// A copy of the spans so far, rows materialized, ordered by id, for
  /// live readers.
  std::vector<SpanRecord> Snapshot() const;
  /// Hands the trace over to an end-of-run consumer instead of copying it.
  /// The tracer is left with no records and no open-span stacks; records
  /// made afterwards start again at id 1. Metrics are kept.
  Trace TakeTrace();
  /// TakeTrace with the rows materialized.
  std::vector<SpanRecord> TakeSpans();
  /// Spans plus rows.
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
  /// The tags a Tracer record call stores: copied from a braced list, or
  /// moved from a caller's array. Either way they land in the tracer's
  /// TagArena, so recording allocates no per-span block.
  class TagSource {
   public:
    TagSource() = default;
    explicit TagSource(std::span<const Tag> copy_from)
        : copy_from_(copy_from.data()), size_(copy_from.size()) {}
    explicit TagSource(std::span<Tag> move_from)
        : move_from_(move_from.data()), size_(move_from.size()) {}

    /// Replaces `out`'s tags, in `out`'s storage.
    void AssignTo(TagList& out) const {
      if (move_from_ != nullptr) {
        out.AssignMoved(move_from_, size_);
      } else if (copy_from_ != nullptr) {
        out.AssignCopied(copy_from_, size_);
      }
    }

   private:
    const Tag* copy_from_ = nullptr;
    Tag* move_from_ = nullptr;
    std::size_t size_ = 0;
  };
  static TagSource Copied(Tags tags) {
    return TagSource(std::span<const Tag>(tags.begin(), tags.size()));
  }

  struct ThreadStack {
    std::thread::id thread;
    std::vector<std::uint64_t> open;
  };

  std::uint64_t BeginSpanWith(Atom name, Atom category,
                              std::uint64_t parent_id, TagSource tags);
  std::vector<std::uint64_t>& StackLocked() NEES_REQUIRES(mu_);
  SpanRecord& StartLocked(Atom name, Atom category, std::uint64_t parent_id,
                          bool implicit_parent, bool push_stack)
      NEES_REQUIRES(mu_);
  /// The calling thread's current span, the parent of an event or row.
  std::uint64_t ImplicitParentLocked() NEES_REQUIRES(mu_);
  void EndLocked(std::uint64_t id) NEES_REQUIRES(mu_);
  /// A closed span whose duration is `modeled_micros` of modeled time;
  /// `implicit_parent` takes the calling thread's current span as parent.
  void RecordModeledEvent(std::uint64_t parent_id, bool implicit_parent,
                          Atom name, Atom category,
                          std::int64_t modeled_micros, TagSource tags);
  void RecordClosedLocked(std::uint64_t parent_id, bool implicit_parent,
                          Atom name, Atom category, std::int64_t start_micros,
                          std::int64_t end_micros,
                          std::int64_t modeled_micros, TagSource tags)
      NEES_REQUIRES(mu_);

  util::Clock* clock_;
  util::SimClock* modeled_;
  MetricsRegistry metrics_;

  mutable util::Mutex mu_{"obs.Tracer"};
  // Tag storage of the spans in trace_ (one reference held); replaced when
  // they are handed over.
  TagArena* arena_ NEES_GUARDED_BY(mu_);
  // Dense: record i has id i + 1.
  Trace trace_ NEES_GUARDED_BY(mu_);
  // Open-span stacks, one per thread that has recorded; a handful at most.
  std::vector<ThreadStack> stacks_ NEES_GUARDED_BY(mu_);
};

/// Serializes an arbitrary span vector in the Tracer::ExportJsonLines
/// format (one JSON object per line, fixed key order). Lets offline trace
/// tooling re-export edited span streams.
std::string ExportJsonLines(const std::vector<SpanRecord>& spans);
/// The same bytes as exporting Materialize(trace), rows written in place.
std::string ExportJsonLines(const Trace& trace);

/// Fingerprint of a span stream for the same-seed determinism oracle:
/// util::WordHash over every field JSONL exports, one word per id, time,
/// atom pair or integer value and 8-byte words over text values. Atoms hash
/// as ids, so compare fingerprints only within one process.
std::uint64_t FingerprintSpans(const std::vector<SpanRecord>& spans);
/// The same value as fingerprinting Materialize(trace), rows hashed in
/// place.
std::uint64_t FingerprintSpans(const Trace& trace);

/// Parses ExportJsonLines output back into records (round-trip tests and
/// offline trace tooling). Rejects malformed lines with kDataLoss. Names,
/// categories and tag keys are interned; a tag value that is a canonical
/// decimal integer (as export renders one) parses as kInt, any other value
/// as kText, so re-export is byte-identical.
util::Result<std::vector<SpanRecord>> ParseJsonLines(const std::string& text);

}  // namespace nees::obs
