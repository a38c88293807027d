// The one safety-limit test shared by the NTCP plugins' Validate and the
// testbed's travel and force interlocks.
#pragma once

#include <cmath>

namespace nees::util {

/// True when `value` is finite and at most `limit` in magnitude. A NaN
/// fails every comparison, so `std::fabs(value) > limit` alone would let it
/// through to an actuator or past an interlock.
inline bool WithinLimit(double value, double limit) {
  return std::isfinite(value) && std::fabs(value) <= limit;
}

}  // namespace nees::util
