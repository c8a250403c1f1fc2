// Bus arbitration.
//
// The shared bus grants one master per transfer, in rotating-priority round
// robin (PLB-like fairness). A flooding master therefore cannot starve the
// other IPs of grants; what it costs them is bus occupancy, which the Local
// Firewall's rate limiter contains.
#pragma once

#include <vector>

namespace secbus::bus {

// Rotating-priority round robin: the master after the last-granted one gets
// the highest priority, guaranteeing starvation freedom.
class RoundRobinArbiter {
 public:
  // Chooses one of the requesting masters (requesting[i] == true). Returns
  // the granted index, or -1 when nobody requests. Called once per grant.
  [[nodiscard]] int pick(const std::vector<bool>& requesting);
  void reset() { last_granted_ = -1; }

 private:
  int last_granted_ = -1;
};

}  // namespace secbus::bus
