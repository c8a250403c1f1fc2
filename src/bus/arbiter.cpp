#include "bus/arbiter.hpp"

namespace secbus::bus {

int RoundRobinArbiter::pick(const std::vector<bool>& requesting) {
  const int n = static_cast<int>(requesting.size());
  if (n == 0) return -1;
  for (int offset = 1; offset <= n; ++offset) {
    const int candidate = (last_granted_ + offset) % n;
    if (requesting[static_cast<std::size_t>(candidate)]) {
      last_granted_ = candidate;
      return candidate;
    }
  }
  return -1;
}

}  // namespace secbus::bus
