// Interned wire names. Endpoint and RPC-method names used to travel as
// std::string on every Message, costing a heap copy per field per hop; the
// process-wide intern table (obs/intern.h) holds each distinct name once and
// the hot path carries 4-byte ids instead. An endpoint id is the same id the
// tracer records for that endpoint, so traces tag endpoints without copying.
//
// Id 0 is reserved as "invalid / empty name"; real ids start at 1, which
// lets open-addressed tables use 0 as their empty-slot sentinel.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/intern.h"

namespace nees::net {

/// The wire-name table is the process-wide intern table.
using EndpointTable = obs::InternTable;

/// Interned endpoint name. Implicitly constructible from strings so
/// existing `message.from = "coordinator"` call sites keep working; the
/// numeric raw() value is only accepted explicitly (FromRaw) because a bare
/// u32 on the wire must be validated against the table first.
class EndpointId {
 public:
  constexpr EndpointId() = default;
  EndpointId(std::string_view name)
      : value_(EndpointTable::Instance().Intern(name)) {}
  EndpointId(const std::string& name)
      : EndpointId(std::string_view(name)) {}
  EndpointId(const char* name) : EndpointId(std::string_view(name)) {}

  static constexpr EndpointId FromRaw(std::uint32_t raw) {
    EndpointId id;
    id.value_ = raw;
    return id;
  }

  constexpr std::uint32_t raw() const { return value_; }
  constexpr bool valid() const { return value_ != 0; }
  /// Lazy name view for traces/errors; "" when invalid.
  std::string_view name() const {
    return EndpointTable::Instance().Lookup(value_);
  }
  /// Convenience copy for call sites that build owned strings.
  std::string str() const { return std::string(name()); }
  /// The same id as a trace atom (one table serves both).
  constexpr obs::Atom atom() const { return obs::Atom::FromRaw(value_); }

  friend constexpr bool operator==(EndpointId a, EndpointId b) {
    return a.value_ == b.value_;
  }
  friend constexpr bool operator!=(EndpointId a, EndpointId b) {
    return a.value_ != b.value_;
  }
  friend constexpr bool operator<(EndpointId a, EndpointId b) {
    return a.value_ < b.value_;
  }

 private:
  std::uint32_t value_ = 0;
};

/// Interned RPC method name; same table, distinct type so a method id can
/// never be passed where an endpoint id is expected.
class MethodId {
 public:
  constexpr MethodId() = default;
  MethodId(std::string_view name)
      : value_(EndpointTable::Instance().Intern(name)) {}
  MethodId(const std::string& name) : MethodId(std::string_view(name)) {}
  MethodId(const char* name) : MethodId(std::string_view(name)) {}

  static constexpr MethodId FromRaw(std::uint32_t raw) {
    MethodId id;
    id.value_ = raw;
    return id;
  }

  constexpr std::uint32_t raw() const { return value_; }
  constexpr bool valid() const { return value_ != 0; }
  std::string_view name() const {
    return EndpointTable::Instance().Lookup(value_);
  }
  std::string str() const { return std::string(name()); }
  constexpr obs::Atom atom() const { return obs::Atom::FromRaw(value_); }

  friend constexpr bool operator==(MethodId a, MethodId b) {
    return a.value_ == b.value_;
  }
  friend constexpr bool operator!=(MethodId a, MethodId b) {
    return a.value_ != b.value_;
  }

 private:
  std::uint32_t value_ = 0;
};

std::ostream& operator<<(std::ostream& os, EndpointId id);
std::ostream& operator<<(std::ostream& os, MethodId id);

}  // namespace nees::net
