// Processor traffic model.
//
// The case study runs three MicroBlaze soft cores; simulating their ISA adds
// nothing to the paper's claims (which are about the interconnect), so each
// processor is modeled as a closed-loop traffic source: compute for a few
// cycles, issue one memory transaction, block until the response returns,
// repeat. The compute/communication ratio and the internal/external traffic
// mix are first-class workload knobs because Section V identifies exactly
// those two ratios as what determines the firewalls' end-to-end overhead.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "ip/master.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace secbus::obs {
class Registry;
}

namespace secbus::ip {

class Processor final : public Master {
 public:
  // A memory window this processor's synthetic program touches.
  struct Target {
    sim::Addr base = 0;
    std::uint64_t size = 0;
    double weight = 1.0;   // relative pick probability
    bool external = false; // statistics tag: external-memory traffic
  };

  struct Workload {
    std::vector<Target> targets;
    double write_fraction = 0.4;
    // Relative weights of the 8/16/32-bit data formats (ADF mix).
    double w_byte = 0.1;
    double w_half = 0.1;
    double w_word = 0.8;
    std::uint16_t max_burst_beats = 4;
    // Uniform compute gap between transactions (the computation side of the
    // compute:communication ratio).
    sim::Cycle compute_min = 4;
    sim::Cycle compute_max = 12;
    // Stop after this many completed transactions (0 = run forever).
    std::uint64_t total_transactions = 0;
    // Software threads multiplexed on this core; issued transactions carry
    // thread ids 0..threads-1 round-robin (thread-specific security).
    unsigned threads = 1;
  };

  struct Stats {
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;  // responses with a non-OK status
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t external_accesses = 0;
    std::uint64_t internal_accesses = 0;
    std::uint64_t bytes_moved = 0;
    std::uint64_t compute_cycles = 0;
    std::uint64_t stall_cycles = 0;  // waiting for a response
    util::RunningStat latency;       // issue -> response, cycles
    // Same samples, bucketed per cycle for exact percentile extraction;
    // merged fabric-wide into SocResults and the batch reports.
    util::LatencyHistogram latency_hist;
  };

  Processor(std::string name, sim::MasterId id, std::uint64_t seed,
            Workload workload);

  void tick(sim::Cycle now) override;
  // One wake per transaction: the cycle that issues the next request. The
  // gap after a transaction is drawn when it issues, so while waiting the
  // wake is v + 1 + gap, v being the cycle the response is taken (the later
  // of `now` and its ready cycle); it is v itself when that response
  // completes the transaction budget, so a bounded run ends where a
  // per-cycle run does.
  [[nodiscard]] sim::Cycle next_wake(sim::Cycle now) const override;
  // Skipped cycles accrue stall_cycles before v and compute_cycles after
  // it; a span that passes v takes the response at v (receive(v)), exactly
  // as tick(v) would.
  void skip(sim::Cycle now, sim::Cycle n) override;
  void reset() override;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  // Zeroes the statistics only (workload position, RNG and any in-flight
  // transaction are untouched). Note a bounded workload's done() predicate
  // counts completed transactions, so resetting mid-run re-arms the
  // transaction budget — that is what a measurement-phase restart means.
  void reset_stats() noexcept { stats_ = {}; }

  // Publishes the traffic counters and the latency distribution under
  // `prefix` ("<prefix>.issued", "<prefix>.latency.p95", ...).
  void contribute_metrics(obs::Registry& reg, const std::string& prefix) const;
  [[nodiscard]] bool done() const noexcept override {
    return workload_.total_transactions != 0 &&
           stats_.completed + stats_.failed >= workload_.total_transactions;
  }

 private:
  enum class State { kComputing, kWaiting };

  [[nodiscard]] bus::BusTransaction next_transaction(sim::Cycle now);
  // Takes the ready response at cycle `now`: latency sample, counters, and
  // the gap drawn at issue starts counting down.
  void receive(sim::Cycle now);
  // True when the response awaited completes the transaction budget.
  [[nodiscard]] bool last_response() const noexcept;
  // `n` bytes of write data drawn from the processor's RNG.
  [[nodiscard]] bus::Payload random_payload(std::size_t n);

  std::uint64_t seed_;
  Workload workload_;
  // The pick weights of workload_.targets and of the byte/half/word
  // formats, with their totals: fixed at construction, summed once.
  std::vector<double> target_weights_;
  double target_total_ = 0.0;
  std::array<double, 3> format_weights_{};
  double format_total_ = 0.0;
  util::Xoshiro256 rng_;

  State state_ = State::kComputing;
  // The compute gap left; while waiting, the whole gap that follows the
  // response.
  sim::Cycle compute_remaining_ = 0;
  std::uint64_t seq_ = 0;
  bool pending_external_ = false;
  Stats stats_;
};

}  // namespace secbus::ip
