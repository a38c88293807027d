#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <map>
#include <type_traits>

#include "util/strings.h"
#include "util/word_hash.h"

namespace nees::obs {

// ---------------------------------------------------------------------------
// Tag

std::string Tag::ValueText() const {
  switch (kind) {
    case Kind::kInt: return std::to_string(number);
    case Kind::kName: return std::string(name().str());
    case Kind::kText: return text;
  }
  return {};
}

bool operator==(const Tag& a, const Tag& b) {
  if (a.key != b.key) return false;
  if (a.kind == b.kind) {
    return a.kind == Tag::Kind::kText ? a.text == b.text
                                      : a.number == b.number;
  }
  return a.ValueText() == b.ValueText();
}

// ---------------------------------------------------------------------------
// TagArena

void* TagArena::Allocate(std::size_t bytes) {
  constexpr std::size_t kAlign = alignof(std::max_align_t);
  bytes = (bytes + kAlign - 1) & ~(kAlign - 1);
  if (bytes > kChunkBytes / 4) {
    // A large request gets a block of its own, so the current chunk's tail
    // is not abandoned for it.
    chunks_.emplace_back(new std::byte[bytes]);
    return chunks_.back().get();
  }
  if (bytes > left_) {
    chunks_.emplace_back(new std::byte[kChunkBytes]);
    cursor_ = chunks_.back().get();
    left_ = kChunkBytes;
  }
  void* out = cursor_;
  cursor_ += bytes;
  left_ -= bytes;
  return out;
}

// ---------------------------------------------------------------------------
// Rows and Trace

namespace {

const Atom kDeliverName("net.deliver");
const Atom kDeliverCategory("network");
const Atom kTxnName("ntcp.txn");
const Atom kTxnCategory("txn");
const Atom kTxnKey("txn");
const Atom kEndpointKey("endpoint");
const Atom kFromKey("from");
const Atom kToKey("to");
const Atom kStepKey("step");
const Atom kAtKey("at");
const Atom kTimeoutKey("timeout");
const Atom kCauseKey("cause");

}  // namespace

Atom DeliverRow::Category() { return kDeliverCategory; }
Atom TxnRow::Category() { return kTxnCategory; }

void Trace::Append(Kind kind, std::size_t index, std::uint64_t id) {
  if (id != order_.size() + 1) dense_ = false;
  order_.push_back((static_cast<std::uint32_t>(kind) << kKindShift) |
                   static_cast<std::uint32_t>(index));
}

SpanRecord& Trace::AddSpan(SpanRecord span) {
  Append(kSpan, spans_.size(), span.id);
  return spans_.emplace_back(std::move(span));
}

void Trace::AddDeliver(const DeliverRow& row) {
  Append(kDeliver, delivers_.size(), row.id);
  delivers_.push_back(row);
}

void Trace::AddTxn(TxnRow row, std::string_view txn) {
  Append(kTxn, txns_.size(), row.id);
  row.txn_offset = static_cast<std::uint32_t>(text_.size());
  row.txn_size = static_cast<std::uint32_t>(txn.size());
  text_.append(txn);
  txns_.push_back(row);
}

void Trace::clear() {
  order_.clear();
  spans_.clear();
  delivers_.clear();
  txns_.clear();
  text_.clear();
  dense_ = true;
}

SpanRecord* Trace::FindSpan(std::uint64_t id) {
  if (!dense_ || id == 0 || id > order_.size()) return nullptr;
  const std::uint32_t where = order_[id - 1];
  if ((where >> kKindShift) != kSpan) return nullptr;
  return &spans_[where & kIndexMask];
}

namespace {

/// One tag of a row, as the span the row stands for carries it; a text
/// value points into the row's Trace.
struct RowTag {
  Atom key;
  Tag::Kind kind = Tag::Kind::kInt;
  std::int64_t number = 0;  // kInt: the value; kName: the value atom's raw id
  std::string_view text;    // kText: the value
};

/// A row seen as the span it stands for. The ViewOf overloads below are
/// the one statement of each row kind's name, category and tags (keys,
/// order, kinds, the optional cause): Materialize, ExportJsonLines and
/// FingerprintSpans all read rows through them, so the three stay in step.
struct RowView {
  template <typename Row>
  RowView(const Row& row, Atom name, Atom category,
          std::int64_t modeled_micros)
      : id(row.id), parent_id(row.parent_id), name(name), category(category),
        start_micros(row.start_micros), end_micros(row.end_micros),
        modeled_micros(modeled_micros) {}

  std::uint64_t id;
  std::uint64_t parent_id;
  Atom name;
  Atom category;
  std::int64_t start_micros;
  std::int64_t end_micros;
  std::int64_t modeled_micros;
  std::array<RowTag, 8> tags;
  std::size_t tag_count = 0;

  void AddName(Atom key, Atom value) {
    tags[tag_count++] = {key, Tag::Kind::kName, value.raw(), {}};
  }
  void AddInt(Atom key, std::int64_t value) {
    tags[tag_count++] = {key, Tag::Kind::kInt, value, {}};
  }
  void AddText(Atom key, std::string_view value) {
    tags[tag_count++] = {key, Tag::Kind::kText, 0, value};
  }
  std::span<const RowTag> tag_list() const { return {tags.data(), tag_count}; }
};

RowView ViewOf(const Trace&, const DeliverRow& row) {
  RowView view(row, kDeliverName, kDeliverCategory, row.modeled_micros);
  view.AddName(kFromKey, row.from);
  view.AddName(kToKey, row.to);
  return view;
}

RowView ViewOf(const Trace& trace, const TxnRow& row) {
  RowView view(row, kTxnName, kTxnCategory, 0);
  view.AddText(kTxnKey, trace.TxnId(row));
  view.AddName(kEndpointKey, row.endpoint);
  view.AddName(kFromKey, row.from);
  view.AddName(kToKey, row.to);
  view.AddInt(kStepKey, row.step);
  view.AddInt(kAtKey, row.at);
  view.AddInt(kTimeoutKey, row.timeout);
  if (row.cause.valid()) view.AddName(kCauseKey, row.cause);
  return view;
}

SpanRecord MaterializeRow(const RowView& row) {
  SpanRecord span;
  span.id = row.id;
  span.parent_id = row.parent_id;
  span.name = row.name;
  span.category = row.category;
  span.start_micros = row.start_micros;
  span.end_micros = row.end_micros;
  span.modeled_micros = row.modeled_micros;
  span.tags.reserve(row.tag_count);
  for (const RowTag& tag : row.tag_list()) {
    switch (tag.kind) {
      case Tag::Kind::kInt: span.tags.emplace_back(tag.key, tag.number); break;
      case Tag::Kind::kName:
        span.tags.emplace_back(
            tag.key, Atom::FromRaw(static_cast<std::uint32_t>(tag.number)));
        break;
      case Tag::Kind::kText:
        span.tags.emplace_back(tag.key, std::string(tag.text));
        break;
    }
  }
  return span;
}

}  // namespace

std::vector<SpanRecord> Materialize(Trace&& trace) {
  std::vector<SpanRecord> spans;
  spans.reserve(trace.size());
  for (const std::uint32_t where : trace.order_) {
    const std::uint32_t index = where & Trace::kIndexMask;
    switch (where >> Trace::kKindShift) {
      case Trace::kSpan:
        spans.push_back(std::move(trace.spans_[index]));
        break;
      case Trace::kDeliver:
        spans.push_back(
            MaterializeRow(ViewOf(trace, trace.delivers_[index])));
        break;
      default:
        spans.push_back(MaterializeRow(ViewOf(trace, trace.txns_[index])));
        break;
    }
  }
  trace.clear();
  return spans;
}

std::vector<SpanRecord> Materialize(const Trace& trace) {
  return Materialize(Trace(trace));
}

// ---------------------------------------------------------------------------
// Span

Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_), id_(other.id_) {
  other.tracer_ = nullptr;
  other.id_ = 0;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    id_ = other.id_;
    other.tracer_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

Span::~Span() { End(); }

void Span::End() {
  if (tracer_ == nullptr) return;
  tracer_->EndSpanId(id_);
  tracer_ = nullptr;
}

void Span::AddTag(Tag tag) {
  if (tracer_ != nullptr) tracer_->AddTagById(id_, std::move(tag));
}

void Span::AddModeledMicros(std::int64_t micros) {
  if (tracer_ != nullptr) tracer_->AddModeledMicrosById(id_, micros);
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Tracer(util::Clock* clock, util::SimClock* modeled)
    : clock_(clock), modeled_(modeled), arena_(TagArena::Create()) {}

// Recorded spans hold their own arena references.
Tracer::~Tracer() { arena_->Unref(); }

std::vector<std::uint64_t>& Tracer::StackLocked() {
  const std::thread::id self = std::this_thread::get_id();
  for (ThreadStack& stack : stacks_) {
    if (stack.thread == self) return stack.open;
  }
  stacks_.push_back({self, {}});
  return stacks_.back().open;
}

SpanRecord& Tracer::StartLocked(Atom name, Atom category,
                                std::uint64_t parent_id, bool implicit_parent,
                                bool push_stack) {
  const std::uint64_t id = trace_.size() + 1;
  if (implicit_parent || push_stack) {
    std::vector<std::uint64_t>& stack = StackLocked();
    if (implicit_parent) parent_id = stack.empty() ? 0 : stack.back();
    if (push_stack) stack.push_back(id);
  }
  SpanRecord record;
  record.tags = TagList(arena_);
  record.id = id;
  record.parent_id = parent_id;
  record.name = name;
  record.category = category;
  return trace_.AddSpan(std::move(record));
}

std::uint64_t Tracer::ImplicitParentLocked() {
  const std::vector<std::uint64_t>& stack = StackLocked();
  return stack.empty() ? 0 : stack.back();
}

void Tracer::EndLocked(std::uint64_t id) {
  SpanRecord* span = trace_.FindSpan(id);
  if (span == nullptr) return;
  SpanRecord& record = *span;
  if (record.end_micros < 0) record.end_micros = clock_->NowMicros();
  // Unwind the starting thread's stack; tolerate cross-thread End.
  const auto erase_from = [id](std::vector<std::uint64_t>& stack) {
    auto it = std::find(stack.rbegin(), stack.rend(), id);
    if (it == stack.rend()) return false;
    stack.erase(std::next(it).base());
    return true;
  };
  if (erase_from(StackLocked())) return;
  for (ThreadStack& stack : stacks_) {
    if (erase_from(stack.open)) return;
  }
}

Span Tracer::StartSpan(Atom name, Atom category) {
  util::MutexLock lock(mu_);
  SpanRecord& record = StartLocked(name, category, 0,
                                   /*implicit_parent=*/true,
                                   /*push_stack=*/true);
  record.start_micros = clock_->NowMicros();
  return Span(this, record.id);
}

Span Tracer::StartSpanWithParent(Atom name, Atom category,
                                 std::uint64_t parent_id) {
  return Span(this, BeginSpanId(name, category, parent_id));
}

std::uint64_t Tracer::BeginSpanId(Atom name, Atom category,
                                  std::uint64_t parent_id, Tags tags) {
  return BeginSpanWith(name, category, parent_id, Copied(tags));
}

std::uint64_t Tracer::BeginSpanId(Atom name, Atom category,
                                  std::uint64_t parent_id,
                                  std::span<Tag> tags) {
  return BeginSpanWith(name, category, parent_id, TagSource(tags));
}

std::uint64_t Tracer::BeginSpanWith(Atom name, Atom category,
                                    std::uint64_t parent_id, TagSource tags) {
  util::MutexLock lock(mu_);
  SpanRecord& record = StartLocked(name, category, parent_id,
                                   /*implicit_parent=*/false,
                                   /*push_stack=*/true);
  record.start_micros = clock_->NowMicros();
  tags.AssignTo(record.tags);
  return record.id;
}

void Tracer::EndSpanId(std::uint64_t id) {
  util::MutexLock lock(mu_);
  EndLocked(id);
}

void Tracer::AddTagById(std::uint64_t id, Tag tag) {
  util::MutexLock lock(mu_);
  SpanRecord* span = trace_.FindSpan(id);
  if (span == nullptr) return;
  TagList& tags = span->tags;
  if (tags.empty()) tags.reserve(4);
  tags.push_back(std::move(tag));
}

void Tracer::AddModeledMicrosById(std::uint64_t id, std::int64_t micros) {
  if (micros > 0 && modeled_ != nullptr) modeled_->Advance(micros);
  util::MutexLock lock(mu_);
  SpanRecord* span = trace_.FindSpan(id);
  if (span != nullptr) span->modeled_micros += micros;
}

void Tracer::RecordClosedLocked(std::uint64_t parent_id, bool implicit_parent,
                                Atom name, Atom category,
                                std::int64_t start_micros,
                                std::int64_t end_micros,
                                std::int64_t modeled_micros,
                                TagSource tags) {
  SpanRecord& record = StartLocked(name, category, parent_id, implicit_parent,
                                   /*push_stack=*/false);
  record.start_micros = start_micros;
  record.end_micros = end_micros;
  record.modeled_micros = modeled_micros;
  tags.AssignTo(record.tags);
}

void Tracer::RecordModeledEvent(std::uint64_t parent_id, bool implicit_parent,
                                Atom name, Atom category,
                                std::int64_t modeled_micros, TagSource tags) {
  const std::int64_t start = clock_->NowMicros();
  if (modeled_micros > 0 && modeled_ != nullptr) {
    modeled_->Advance(modeled_micros);
  }
  const std::int64_t end = clock_->NowMicros();
  util::MutexLock lock(mu_);
  RecordClosedLocked(parent_id, implicit_parent, name, category, start, end,
                     modeled_micros, tags);
}

void Tracer::RecordEvent(Atom name, Atom category,
                         std::int64_t modeled_micros, Tags tags) {
  RecordModeledEvent(0, /*implicit_parent=*/true, name, category,
                     modeled_micros, Copied(tags));
}

void Tracer::RecordEventUnder(std::uint64_t parent_id, Atom name,
                              Atom category, std::int64_t modeled_micros,
                              Tags tags) {
  RecordModeledEvent(parent_id, /*implicit_parent=*/false, name, category,
                     modeled_micros, Copied(tags));
}

void Tracer::RecordInterval(std::uint64_t parent_id, Atom name,
                            Atom category, std::int64_t start_micros,
                            std::int64_t end_micros, Tags tags) {
  util::MutexLock lock(mu_);
  RecordClosedLocked(parent_id, /*implicit_parent=*/false, name, category,
                     start_micros, std::max(start_micros, end_micros), 0,
                     Copied(tags));
}

void Tracer::RecordDelivery(Atom from, Atom to, std::int64_t modeled_micros) {
  DeliverRow row;
  row.start_micros = clock_->NowMicros();
  if (modeled_micros > 0 && modeled_ != nullptr) {
    modeled_->Advance(modeled_micros);
  }
  row.end_micros = clock_->NowMicros();
  row.modeled_micros = modeled_micros;
  row.from = from;
  row.to = to;
  util::MutexLock lock(mu_);
  row.id = trace_.size() + 1;
  row.parent_id = ImplicitParentLocked();
  trace_.AddDeliver(row);
}

void Tracer::RecordTxnTransition(const TxnTransition& transition) {
  TxnRow row;
  row.start_micros = clock_->NowMicros();
  row.end_micros = clock_->NowMicros();
  row.step = transition.step;
  row.at = transition.at;
  row.timeout = transition.timeout;
  row.endpoint = transition.endpoint;
  row.from = transition.from;
  row.to = transition.to;
  row.cause = transition.cause;
  util::MutexLock lock(mu_);
  row.id = trace_.size() + 1;
  row.parent_id = ImplicitParentLocked();
  trace_.AddTxn(row, transition.txn);
}

std::uint64_t Tracer::CurrentSpanId() const {
  util::MutexLock lock(mu_);
  const std::thread::id self = std::this_thread::get_id();
  for (const ThreadStack& stack : stacks_) {
    if (stack.thread == self) {
      return stack.open.empty() ? 0 : stack.open.back();
    }
  }
  return 0;
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  util::MutexLock lock(mu_);
  return Materialize(trace_);
}

Trace Tracer::TakeTrace() {
  util::MutexLock lock(mu_);
  Trace trace = std::move(trace_);
  trace_.clear();
  stacks_.clear();
  // The taken spans keep the old arena; later spans must not share it with
  // a consumer that may edit them.
  arena_->Unref();
  arena_ = TagArena::Create();
  return trace;
}

std::vector<SpanRecord> Tracer::TakeSpans() { return Materialize(TakeTrace()); }

std::size_t Tracer::span_count() const {
  util::MutexLock lock(mu_);
  return trace_.size();
}

void Tracer::Clear() {
  {
    util::MutexLock lock(mu_);
    trace_.clear();
    stacks_.clear();
    arena_->Unref();
    arena_ = TagArena::Create();
  }
  metrics_.Clear();
}

// ---------------------------------------------------------------------------
// JSON-lines export / parse

namespace {

void AppendJsonString(std::string_view text, std::string& out) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Strict cursor parser for the fixed shape ExportJsonLines emits.
class LineParser {
 public:
  explicit LineParser(std::string_view line) : line_(line) {}

  bool Literal(std::string_view expected) {
    if (line_.substr(pos_, expected.size()) != expected) return false;
    pos_ += expected.size();
    return true;
  }

  bool Integer(std::int64_t* value) {
    std::size_t start = pos_;
    if (pos_ < line_.size() && line_[pos_] == '-') ++pos_;
    while (pos_ < line_.size() && line_[pos_] >= '0' && line_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == start) return false;
    long long parsed = 0;
    if (!util::ParseInt(std::string(line_.substr(start, pos_ - start)),
                        &parsed)) {
      return false;
    }
    *value = parsed;
    return true;
  }

  bool String(std::string* value) {
    value->clear();
    if (!Literal("\"")) return false;
    while (pos_ < line_.size() && line_[pos_] != '"') {
      char c = line_[pos_++];
      if (c != '\\') {
        *value += c;
        continue;
      }
      if (pos_ >= line_.size()) return false;
      const char escape = line_[pos_++];
      switch (escape) {
        case '"': *value += '"'; break;
        case '\\': *value += '\\'; break;
        case 'n': *value += '\n'; break;
        case 'r': *value += '\r'; break;
        case 't': *value += '\t'; break;
        case 'u': {
          if (pos_ + 4 > line_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = line_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          if (code > 0xff) return false;  // exporter only emits control chars
          *value += static_cast<char>(code);
          break;
        }
        default: return false;
      }
    }
    return Literal("\"");
  }

  bool Peek(char c) const { return pos_ < line_.size() && line_[pos_] == c; }
  bool AtEnd() const { return pos_ == line_.size(); }

 private:
  std::string_view line_;
  std::size_t pos_ = 0;
};

template <typename Int>
void AppendInt(Int value, std::string& out) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

/// A record up to its tag object's opening brace.
void AppendHeadJson(std::uint64_t id, std::uint64_t parent_id, Atom name,
                    Atom category, std::int64_t start_micros,
                    std::int64_t end_micros, std::int64_t modeled_micros,
                    std::string& out) {
  out += "{\"id\":";
  AppendInt(id, out);
  out += ",\"parent\":";
  AppendInt(parent_id, out);
  out += ",\"name\":";
  AppendJsonString(name.str(), out);
  out += ",\"cat\":";
  AppendJsonString(category.str(), out);
  out += ",\"start\":";
  AppendInt(start_micros, out);
  // Open spans export as zero-length at their start time.
  out += ",\"end\":";
  AppendInt(std::max(start_micros, end_micros), out);
  out += ",\"modeled\":";
  AppendInt(modeled_micros, out);
  out += ",\"tags\":{";
}

/// `"key":` after a comma unless it is the record's first tag.
void AppendKeyJson(Atom key, bool first, std::string& out) {
  if (!first) out += ',';
  AppendJsonString(key.str(), out);
  out += ':';
}

void AppendIntValueJson(std::int64_t value, std::string& out) {
  out += '"';
  AppendInt(value, out);
  out += '"';
}

/// `"key":"value"`, the value rendered from its kind.
void AppendTagJson(Atom key, Tag::Kind kind, std::int64_t number,
                   std::string_view text, bool first, std::string& out) {
  AppendKeyJson(key, first, out);
  switch (kind) {
    case Tag::Kind::kInt: AppendIntValueJson(number, out); break;
    case Tag::Kind::kName:
      AppendJsonString(
          Atom::FromRaw(static_cast<std::uint32_t>(number)).str(), out);
      break;
    case Tag::Kind::kText: AppendJsonString(text, out); break;
  }
}

void AppendSpanJson(const SpanRecord& span, std::string& out) {
  AppendHeadJson(span.id, span.parent_id, span.name, span.category,
                 span.start_micros, span.end_micros, span.modeled_micros,
                 out);
  bool first = true;
  for (const Tag& tag : span.tags) {
    AppendTagJson(tag.key, tag.kind, tag.number, tag.text, first, out);
    first = false;
  }
  out += "}}\n";
}

void AppendRowJson(const RowView& row, std::string& out) {
  AppendHeadJson(row.id, row.parent_id, row.name, row.category,
                 row.start_micros, row.end_micros, row.modeled_micros, out);
  bool first = true;
  for (const RowTag& tag : row.tag_list()) {
    AppendTagJson(tag.key, tag.kind, tag.number, tag.text, first, out);
    first = false;
  }
  out += "}}\n";
}

/// A tag value as parsed from text: a canonical decimal integer (what
/// export renders for kInt) becomes kInt, anything else stays text.
Tag ParsedTag(Atom key, std::string value) {
  std::int64_t number = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, error] = std::from_chars(value.data(), end, number);
  if (error == std::errc() && ptr == end && std::to_string(number) == value) {
    return Tag(key, number);
  }
  return Tag(key, std::move(value));
}

}  // namespace

std::string ExportJsonLines(const std::vector<SpanRecord>& spans) {
  std::string out;
  out.reserve(spans.size() * 128);
  for (const SpanRecord& span : spans) AppendSpanJson(span, out);
  return out;
}

std::string ExportJsonLines(const Trace& trace) {
  std::string out;
  out.reserve(trace.size() * 128);
  trace.ForEach([&](const auto& record) {
    if constexpr (std::is_same_v<std::decay_t<decltype(record)>,
                                 SpanRecord>) {
      AppendSpanJson(record, out);
    } else {
      AppendRowJson(ViewOf(trace, record), out);
    }
  });
  return out;
}

std::string Tracer::ExportJsonLines() const {
  util::MutexLock lock(mu_);
  return obs::ExportJsonLines(trace_);
}

util::Result<std::vector<SpanRecord>> ParseJsonLines(const std::string& text) {
  std::vector<SpanRecord> spans;
  int line_number = 0;
  std::string name, category;
  for (const std::string& line : util::Split(text, '\n')) {
    ++line_number;
    if (util::Trim(line).empty()) continue;
    LineParser parser(line);
    SpanRecord record;
    std::int64_t id = 0, parent = 0;
    const bool ok =
        parser.Literal("{\"id\":") && parser.Integer(&id) &&
        parser.Literal(",\"parent\":") && parser.Integer(&parent) &&
        parser.Literal(",\"name\":") && parser.String(&name) &&
        parser.Literal(",\"cat\":") && parser.String(&category) &&
        parser.Literal(",\"start\":") && parser.Integer(&record.start_micros) &&
        parser.Literal(",\"end\":") && parser.Integer(&record.end_micros) &&
        parser.Literal(",\"modeled\":") &&
        parser.Integer(&record.modeled_micros) &&
        parser.Literal(",\"tags\":{");
    if (!ok) {
      return util::DataLoss(
          util::Format("malformed trace line %d", line_number));
    }
    record.name = Atom(name);
    record.category = Atom(category);
    while (!parser.Peek('}')) {
      std::string key, value;
      if (!record.tags.empty() && !parser.Literal(",")) {
        return util::DataLoss(
            util::Format("malformed trace tags at line %d", line_number));
      }
      if (!parser.String(&key) || !parser.Literal(":") ||
          !parser.String(&value)) {
        return util::DataLoss(
            util::Format("malformed trace tags at line %d", line_number));
      }
      record.tags.push_back(ParsedTag(Atom(key), std::move(value)));
    }
    if (!parser.Literal("}}") || !parser.AtEnd()) {
      return util::DataLoss(
          util::Format("trailing garbage at line %d", line_number));
    }
    record.id = static_cast<std::uint64_t>(id);
    record.parent_id = static_cast<std::uint64_t>(parent);
    spans.push_back(std::move(record));
  }
  return spans;
}

namespace {

// FingerprintSpans words. A row hashes exactly the words of the span it
// materializes as.

void HashHead(std::uint64_t id, std::uint64_t parent_id, Atom name,
              Atom category, std::int64_t start_micros,
              std::int64_t end_micros, std::int64_t modeled_micros,
              std::size_t tag_count, util::WordHash& hash) {
  hash.Word(id);
  hash.Word(parent_id);
  hash.Word((std::uint64_t{name.raw()} << 32) | category.raw());
  hash.Word(static_cast<std::uint64_t>(start_micros));
  hash.Word(static_cast<std::uint64_t>(end_micros));
  hash.Word(static_cast<std::uint64_t>(modeled_micros));
  hash.Word(tag_count);
}

void HashTag(Atom key, Tag::Kind kind, std::int64_t number,
             std::string_view text, util::WordHash& hash) {
  hash.Word((std::uint64_t{key.raw()} << 8) |
            static_cast<std::uint64_t>(kind));
  if (kind == Tag::Kind::kText) {
    hash.String(text);
  } else {
    hash.Word(static_cast<std::uint64_t>(number));
  }
}

void HashRecord(const SpanRecord& span, util::WordHash& hash) {
  HashHead(span.id, span.parent_id, span.name, span.category,
           span.start_micros, span.end_micros, span.modeled_micros,
           span.tags.size(), hash);
  for (const Tag& tag : span.tags) {
    HashTag(tag.key, tag.kind, tag.number, tag.text, hash);
  }
}

void HashRecord(const RowView& row, util::WordHash& hash) {
  HashHead(row.id, row.parent_id, row.name, row.category, row.start_micros,
           row.end_micros, row.modeled_micros, row.tag_count, hash);
  for (const RowTag& tag : row.tag_list()) {
    HashTag(tag.key, tag.kind, tag.number, tag.text, hash);
  }
}

}  // namespace

std::uint64_t FingerprintSpans(const std::vector<SpanRecord>& spans) {
  util::WordHash hash;
  hash.Word(spans.size());
  for (const SpanRecord& span : spans) HashRecord(span, hash);
  return hash.value();
}

std::uint64_t FingerprintSpans(const Trace& trace) {
  util::WordHash hash;
  hash.Word(trace.size());
  trace.ForEach([&](const auto& record) {
    if constexpr (std::is_same_v<std::decay_t<decltype(record)>,
                                 SpanRecord>) {
      HashRecord(record, hash);
    } else {
      HashRecord(ViewOf(trace, record), hash);
    }
  });
  return hash.value();
}

// ---------------------------------------------------------------------------
// Breakdown report

std::string Tracer::BreakdownTable() const {
  const std::vector<SpanRecord> spans = Snapshot();

  // Exclusive time: each span's duration minus the time covered by its
  // children, so "protocol" is not billed for the "network" transfer nested
  // inside it, and "step" only keeps what no child explains.
  std::map<std::uint64_t, std::int64_t> child_micros;
  for (const SpanRecord& span : spans) {
    if (span.parent_id != 0) {
      child_micros[span.parent_id] += span.DurationMicros();
    }
  }

  struct CategoryTotals {
    std::uint64_t spans = 0;
    std::int64_t inclusive_micros = 0;
    util::SampleStats exclusive;
  };
  std::map<std::string_view, CategoryTotals> categories;
  std::int64_t total_exclusive = 0;
  for (const SpanRecord& span : spans) {
    const std::int64_t inclusive = span.DurationMicros();
    auto it = child_micros.find(span.id);
    const std::int64_t children = it == child_micros.end() ? 0 : it->second;
    const std::int64_t exclusive = std::max<std::int64_t>(
        0, inclusive - children);
    CategoryTotals& totals = categories[span.category.str()];
    ++totals.spans;
    totals.inclusive_micros += inclusive;
    totals.exclusive.Add(static_cast<double>(exclusive));
    total_exclusive += exclusive;
  }

  std::vector<std::pair<std::string_view, const CategoryTotals*>> ordered;
  ordered.reserve(categories.size());
  for (const auto& [name, totals] : categories) {
    ordered.emplace_back(name, &totals);
  }
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    const double a_sum = a.second->exclusive.sum();
    const double b_sum = b.second->exclusive.sum();
    if (a_sum != b_sum) return a_sum > b_sum;
    return a.first < b.first;
  });

  util::TextTable table({"category", "spans", "excl total [ms]",
                         "mean [us]", "p95 [us]", "max [us]", "share"});
  for (const auto& [name, totals] : ordered) {
    const double sum = totals->exclusive.sum();
    table.AddRow(
        {std::string(name), std::to_string(totals->spans),
         util::Format("%.3f", sum / 1000.0),
         util::Format("%.1f", totals->exclusive.mean()),
         util::Format("%.1f", totals->exclusive.Percentile(95)),
         util::Format("%.1f", totals->exclusive.max()),
         util::Format("%5.1f%%",
                      total_exclusive > 0 ? 100.0 * sum / total_exclusive
                                          : 0.0)});
  }
  return table.ToString();
}

}  // namespace nees::obs
