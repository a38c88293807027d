#include "net/endpoint.h"

#include <ostream>

namespace nees::net {

std::ostream& operator<<(std::ostream& os, EndpointId id) {
  return os << id.name();
}

std::ostream& operator<<(std::ostream& os, MethodId id) {
  return os << id.name();
}

}  // namespace nees::net
