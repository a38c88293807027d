// Process-wide interning of bounded names. Endpoint and RPC-method names
// travel as 4-byte ids on every Message; span names, categories, tag keys
// and name-valued tags (endpoint, site and state names) are stored the same
// way in every SpanRecord. One table serves both, so an endpoint id *is* the
// atom a trace records for that endpoint and no conversion is needed.
//
// The table is append-only and its storage is never freed, so every view it
// hands out stays valid for the life of the process. It must stay bounded:
// intern only names drawn from a bounded set (program literals, endpoint
// and site names, enum names). Free-form values — transaction ids, error
// text, run ids — stay strings. A farm recycles its tenant slot names, so a
// long-running host interns a fixed set.
//
// Id 0 is reserved as "invalid / empty name"; real ids start at 1, which
// lets open-addressed tables use 0 as their empty-slot sentinel. Lookups
// read the append-only storage without taking the table lock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace nees::obs {

class MetricsRegistry;

class InternTable {
 public:
  static InternTable& Instance();

  /// Returns the id for `name`, interning it on first sight. "" -> 0.
  std::uint32_t Intern(std::string_view name);

  /// The interned name, or "" for id 0 or an id never handed out. The view
  /// is stable for the process lifetime. Lock-free.
  std::string_view Lookup(std::uint32_t id) const;

  /// True for id 0 ("" is always decodable) and every id handed out.
  bool Known(std::uint32_t id) const;

  /// Distinct names interned so far. The table only ever grows — under a
  /// multi-tenant farm every concurrent tenant slot mints its own
  /// namespaced endpoints (slots are reused wave to wave), so this is the
  /// observable proxy for the name footprint.
  std::size_t size() const;
  /// Total bytes of interned name storage (the strings themselves).
  std::size_t interned_bytes() const;

  /// Publishes the growth counters as gauges:
  ///   net.endpoints.interned        (count)
  ///   net.endpoints.interned_bytes  (name storage)
  void PublishGauges(MetricsRegistry& metrics) const;

 private:
  InternTable();
  struct Impl;
  Impl* impl_;  // leaked with the singleton: views must outlive everything
};

/// An interned name. Only string literals convert implicitly: they come
/// from the program text, so they are bounded by construction. A runtime
/// name is interned with the explicit constructor, which a call site should
/// use only for names from a bounded set (see the file comment). Hot paths
/// keep namespace-scope Atoms so recording a span never touches the table.
class Atom {
 public:
  constexpr Atom() = default;
  template <std::size_t N>
  Atom(const char (&literal)[N])  // NOLINT: implicit by design
      : Atom(std::string_view(literal)) {}
  explicit Atom(std::string_view name)
      : value_(InternTable::Instance().Intern(name)) {}

  static constexpr Atom FromRaw(std::uint32_t raw) {
    Atom atom;
    atom.value_ = raw;
    return atom;
  }

  constexpr std::uint32_t raw() const { return value_; }
  constexpr bool valid() const { return value_ != 0; }
  /// The name; "" when invalid.
  std::string_view str() const {
    return InternTable::Instance().Lookup(value_);
  }

  friend constexpr bool operator==(Atom a, Atom b) {
    return a.value_ == b.value_;
  }
  /// Text comparisons are for readers and tests; hot paths compare atoms.
  friend bool operator==(Atom a, std::string_view text) {
    return a.str() == text;
  }
  template <std::size_t N>
  friend bool operator==(Atom a, const char (&text)[N]) {
    return a.str() == std::string_view(text);
  }

 private:
  std::uint32_t value_ = 0;
};

std::ostream& operator<<(std::ostream& os, Atom atom);

}  // namespace nees::obs
