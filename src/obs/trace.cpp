#include "obs/trace.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>

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
  if (implicit_parent || push_stack) {
    std::vector<std::uint64_t>& stack = StackLocked();
    if (implicit_parent) parent_id = stack.empty() ? 0 : stack.back();
    if (push_stack) stack.push_back(spans_.size() + 1);
  }
  SpanRecord& record = spans_.emplace_back();
  record.tags = TagList(arena_);
  record.id = spans_.size();
  record.parent_id = parent_id;
  record.name = name;
  record.category = category;
  return record;
}

void Tracer::EndLocked(std::uint64_t id) {
  if (id == 0 || id > spans_.size()) return;
  SpanRecord& record = spans_[id - 1];
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
  if (id == 0 || id > spans_.size()) return;
  TagList& tags = spans_[id - 1].tags;
  if (tags.empty()) tags.reserve(4);
  tags.push_back(std::move(tag));
}

void Tracer::AddModeledMicrosById(std::uint64_t id, std::int64_t micros) {
  if (micros > 0 && modeled_ != nullptr) modeled_->Advance(micros);
  util::MutexLock lock(mu_);
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].modeled_micros += micros;
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

void Tracer::RecordEvent(Atom name, Atom category,
                         std::int64_t modeled_micros, std::span<Tag> tags) {
  RecordModeledEvent(0, /*implicit_parent=*/true, name, category,
                     modeled_micros, TagSource(tags));
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
  return spans_;
}

std::vector<SpanRecord> Tracer::TakeSpans() {
  util::MutexLock lock(mu_);
  std::vector<SpanRecord> spans = std::move(spans_);
  spans_.clear();
  stacks_.clear();
  // The taken spans keep the old arena; later spans must not share it with
  // a consumer that may edit them.
  arena_->Unref();
  arena_ = TagArena::Create();
  return spans;
}

std::size_t Tracer::span_count() const {
  util::MutexLock lock(mu_);
  return spans_.size();
}

void Tracer::Clear() {
  {
    util::MutexLock lock(mu_);
    spans_.clear();
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

void AppendSpanJson(const SpanRecord& span, std::string& out) {
  out += "{\"id\":";
  AppendInt(span.id, out);
  out += ",\"parent\":";
  AppendInt(span.parent_id, out);
  out += ",\"name\":";
  AppendJsonString(span.name.str(), out);
  out += ",\"cat\":";
  AppendJsonString(span.category.str(), out);
  out += ",\"start\":";
  AppendInt(span.start_micros, out);
  // Open spans export as zero-length at their start time.
  out += ",\"end\":";
  AppendInt(std::max(span.start_micros, span.end_micros), out);
  out += ",\"modeled\":";
  AppendInt(span.modeled_micros, out);
  out += ",\"tags\":{";
  bool first = true;
  for (const Tag& tag : span.tags) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(tag.key.str(), out);
    out += ':';
    switch (tag.kind) {
      case Tag::Kind::kInt:
        out += '"';
        AppendInt(tag.number, out);
        out += '"';
        break;
      case Tag::Kind::kName: AppendJsonString(tag.name().str(), out); break;
      case Tag::Kind::kText: AppendJsonString(tag.text, out); break;
    }
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

std::string Tracer::ExportJsonLines() const {
  util::MutexLock lock(mu_);
  return obs::ExportJsonLines(spans_);
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

std::uint64_t FingerprintSpans(const std::vector<SpanRecord>& spans) {
  util::WordHash hash;
  hash.Word(spans.size());
  for (const SpanRecord& span : spans) {
    hash.Word(span.id);
    hash.Word(span.parent_id);
    hash.Word((std::uint64_t{span.name.raw()} << 32) | span.category.raw());
    hash.Word(static_cast<std::uint64_t>(span.start_micros));
    hash.Word(static_cast<std::uint64_t>(span.end_micros));
    hash.Word(static_cast<std::uint64_t>(span.modeled_micros));
    hash.Word(span.tags.size());
    for (const Tag& tag : span.tags) {
      hash.Word((std::uint64_t{tag.key.raw()} << 8) |
                static_cast<std::uint64_t>(tag.kind));
      if (tag.kind == Tag::Kind::kText) {
        hash.String(tag.text);
      } else {
        hash.Word(static_cast<std::uint64_t>(tag.number));
      }
    }
  }
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
