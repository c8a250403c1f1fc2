// External DDR memory model with an open-row bank timing model.
//
// The case study's external memory holds code and data; it sits *outside* the
// trusted FPGA boundary, so its BackingStore is reachable by the attack
// framework (physical probing of the DDR bus, Section III.B). Timing is a
// simplified row-buffer model: each bank keeps one open row; a hit pays CAS
// latency only, a miss pays precharge + activate + CAS. Periodic refresh
// stalls can be enabled for completeness.
#pragma once

#include <string>
#include <vector>

#include "bus/ports.hpp"
#include "mem/backing_store.hpp"

namespace secbus::obs {
class Registry;
}

namespace secbus::mem {

class DdrMemory final : public bus::SlaveDevice {
 public:
  struct Config {
    sim::Addr base = 0;
    std::uint64_t size = 0;
    unsigned banks = 8;
    std::uint64_t row_bytes = 2048;  // bytes per row per bank
    sim::Cycle t_cas = 5;            // column access (row hit)
    sim::Cycle t_rcd = 5;            // activate -> column
    sim::Cycle t_rp = 5;             // precharge
    // Refresh: every `refresh_interval` cycles the next access pays
    // `refresh_penalty` extra cycles. 0 disables refresh modeling.
    sim::Cycle refresh_interval = 0;
    sim::Cycle refresh_penalty = 11;
  };

  struct Stats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;
    std::uint64_t refresh_stalls = 0;

    [[nodiscard]] double hit_rate() const noexcept {
      const double total = static_cast<double>(row_hits + row_misses);
      return total > 0.0 ? static_cast<double>(row_hits) / total : 0.0;
    }
  };

  DdrMemory(std::string name, const Config& cfg);

  bus::AccessResult access(bus::BusTransaction& t, sim::Cycle now) override;
  [[nodiscard]] std::string_view slave_name() const override { return name_; }

  // Line port: the LCF's raw line transfers, with no transaction around
  // them. Each returns the latency and counts the Stats that access() of a
  // read or write of the same bytes would, through the same bank/row timing.
  // The line must lie inside the device.
  sim::Cycle read_line(sim::Addr addr, std::span<std::uint8_t> out, sim::Cycle now);
  sim::Cycle write_line(sim::Addr addr, std::span<const std::uint8_t> in,
                        sim::Cycle now);

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  // The raw cell array. Exposed because it is *physically outside* the FPGA:
  // the attack framework peeks/pokes it directly to model bus probing and
  // memory tampering. The LCF's job is to make such tampering detectable.
  BackingStore& store() noexcept { return store_; }
  const BackingStore& store() const noexcept { return store_; }

  void reset_timing_state();

  // Zeroes the access statistics; bank/row timing state and the stored
  // contents are untouched (reset_timing_state handles the former).
  void reset_stats() noexcept { stats_ = {}; }

  // Publishes access and row-buffer counters under `prefix`
  // ("<prefix>.reads", "<prefix>.row_hit_rate", ...).
  void contribute_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  struct BankState {
    bool row_open = false;
    std::uint64_t open_row = 0;
  };

  [[nodiscard]] unsigned bank_of(sim::Addr addr) const noexcept;
  [[nodiscard]] std::uint64_t row_of(sim::Addr addr) const noexcept;
  // Latency of an access starting at addr in cycle `now`: opens the bank's
  // row and counts the row hit or miss and any refresh stall.
  sim::Cycle open_row(sim::Addr addr, sim::Cycle now);

  std::string name_;
  Config cfg_;
  BackingStore store_;
  std::vector<BankState> bank_state_;
  Stats stats_;
  sim::Cycle last_refresh_epoch_ = 0;
};

}  // namespace secbus::mem
