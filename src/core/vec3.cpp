// Stream printers for the core value types (vec3.hpp, aabb.hpp): what
// test failure messages and debug output print.
#include <ostream>

#include "core/aabb.hpp"
#include "core/vec3.hpp"

namespace rtnn {

std::ostream& operator<<(std::ostream& os, const Vec3& v) {
  return os << '(' << v.x << ", " << v.y << ", " << v.z << ')';
}

std::ostream& operator<<(std::ostream& os, const Int3& v) {
  return os << '(' << v.x << ", " << v.y << ", " << v.z << ')';
}

std::ostream& operator<<(std::ostream& os, const Aabb& b) {
  return os << "[lo=" << b.lo << " hi=" << b.hi << ']';
}

}  // namespace rtnn
