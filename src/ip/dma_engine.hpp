// Dedicated IP: a DMA copy engine.
//
// The case-study system contains "one dedicated IP"; a DMA engine is the
// canonical example and produces the burst traffic that stresses the
// firewalls' ADF/burst handling. It copies `length` bytes from `src` to
// `dst` in word bursts, one read+write pair in flight at a time.
#pragma once

#include <string>

#include "ip/master.hpp"

namespace secbus::obs {
class Registry;
}

namespace secbus::ip {

class DmaEngine final : public Master {
 public:
  struct Job {
    sim::Addr src = 0;
    sim::Addr dst = 0;
    std::uint64_t length = 0;       // bytes, multiple of 4
    std::uint16_t burst_beats = 8;  // words per burst
  };

  struct Stats {
    std::uint64_t bursts = 0;
    std::uint64_t bytes_copied = 0;
    std::uint64_t errors = 0;
    sim::Cycle started_at = 0;
    sim::Cycle finished_at = 0;
  };

  DmaEngine(std::string name, sim::MasterId id);

  // Starts a copy job; only one job at a time.
  void start(const Job& job);

  void tick(sim::Cycle now) override;
  // Wakes to issue the next burst or when its response is ready; no per-cycle
  // bookkeeping, so the default (empty) skip() is exact.
  [[nodiscard]] sim::Cycle next_wake(sim::Cycle now) const override;
  void reset() override;

  // No job in flight (never started, finished or aborted).
  [[nodiscard]] bool done() const noexcept override {
    return state_ == State::kIdle;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  // Zeroes the statistics only; the engine state machine and any job in
  // flight are untouched.
  void reset_stats() noexcept { stats_ = {}; }

  // Publishes the copy counters under `prefix` ("<prefix>.bursts", ...).
  void contribute_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  enum class State { kIdle, kReading, kWriting };

  [[nodiscard]] std::uint16_t beats_for_chunk() const noexcept;

  Job job_;
  std::uint64_t progress_ = 0;  // bytes copied so far
  bus::Payload chunk_;
  State state_ = State::kIdle;
  bool pending_issue_ = false;
  std::uint64_t seq_ = 0;
  Stats stats_;
};

}  // namespace secbus::ip
