// Flooding master: the DoS vector that stays *inside* its policy.
//
// Section III.A lists "injecting dummy data to create overwhelming traffic"
// as a DoS goal. A flooding IP that violates its policy is killed at its own
// firewall (containment); a flooder whose traffic is policy-legal can only
// be throttled by arbitration. This component issues back-to-back writes as
// fast as its interface accepts them, so benches can measure both regimes.
#pragma once

#include <string>

#include "ip/master.hpp"

namespace secbus::attack {

class FloodMaster final : public ip::Master {
 public:
  struct Config {
    sim::Addr target = 0;
    std::uint64_t region = 4096;     // cycled write window
    std::uint16_t burst_beats = 8;   // words per write
    std::uint64_t total_writes = 0;  // 0 = flood forever
  };

  FloodMaster(std::string name, sim::MasterId id, Config cfg);

  void tick(sim::Cycle now) override;
  // Wakes to drain a ready response or to issue the next write; no per-cycle
  // bookkeeping, so the default (empty) skip() is exact.
  [[nodiscard]] sim::Cycle next_wake(sim::Cycle now) const override;
  void reset() override;

  [[nodiscard]] std::uint64_t issued() const noexcept { return issued_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }
  [[nodiscard]] bool done() const noexcept override {
    return cfg_.total_writes != 0 && completed_ + rejected_ >= cfg_.total_writes;
  }

 private:
  Config cfg_;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t offset_ = 0;
  bool outstanding_ = false;
};

}  // namespace secbus::attack
