// Test helper: runs one scope under the lockstep oracle (or explicitly
// not) through the one test hook, sim::set_lockstep_for_testing, and
// restores the default wake-driven kernel when it ends, even when an
// assertion bails out of the test.
#pragma once

#include "sim/kernel.hpp"

namespace secbus::sim {

class LockstepGuard {
 public:
  explicit LockstepGuard(bool lockstep) { set_lockstep_for_testing(lockstep); }
  ~LockstepGuard() { set_lockstep_for_testing(false); }
  LockstepGuard(const LockstepGuard&) = delete;
  LockstepGuard& operator=(const LockstepGuard&) = delete;
};

}  // namespace secbus::sim
