// Trace-driven bus master: replays a captured memory-access trace.
//
// Replay makes workloads portable across SoC variants: capture once from a
// live Processor (Workload::capture_trace), then drive the *identical*
// access stream through differently-secured systems, so any timing delta is
// attributable to the protection mechanisms alone (the methodology behind
// overhead comparisons that random regeneration would blur).
#pragma once

#include <string>
#include <vector>

#include "bus/ports.hpp"
#include "ip/trace_io.hpp"
#include "sim/component.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace secbus::ip {

class TraceReplayer final : public sim::Component {
 public:
  TraceReplayer(std::string name, sim::MasterId id,
                std::vector<TraceRecord> trace, std::uint64_t payload_seed = 1);

  void connect(bus::MasterEndpoint& endpoint) noexcept {
    port_ = &endpoint;
    port_->response.set_consumer(*this);
  }

  void tick(sim::Cycle now) override;
  // Same wake/skip rule as ScriptedMaster: the record's delay counts down.
  [[nodiscard]] sim::Cycle next_wake(sim::Cycle now) const override;
  void skip(sim::Cycle now, sim::Cycle n) override;
  void reset() override;

  [[nodiscard]] bool done() const noexcept {
    return next_ >= trace_.size() && state_ == State::kIdle;
  }

  struct Stats {
    std::uint64_t issued = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    util::RunningStat latency;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t trace_length() const noexcept { return trace_.size(); }

 private:
  enum class State { kIdle, kDelay, kWaiting };

  sim::MasterId id_;
  std::vector<TraceRecord> trace_;
  std::uint64_t payload_seed_;
  util::Xoshiro256 rng_;
  bus::MasterEndpoint* port_ = nullptr;

  std::size_t next_ = 0;
  sim::Cycle delay_remaining_ = 0;
  State state_ = State::kIdle;
  std::uint64_t seq_ = 0;
  Stats stats_;
};

}  // namespace secbus::ip
