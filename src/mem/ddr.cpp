#include "mem/ddr.hpp"

#include "obs/registry.hpp"
#include "util/assert.hpp"

namespace secbus::mem {

DdrMemory::DdrMemory(std::string name, const Config& cfg)
    : name_(std::move(name)),
      cfg_(cfg),
      store_(cfg.base, cfg.size),
      bank_state_(cfg.banks) {
  SECBUS_ASSERT(cfg.size > 0, "DDR must have nonzero size");
  SECBUS_ASSERT(cfg.banks > 0, "DDR needs at least one bank");
  SECBUS_ASSERT(cfg.row_bytes > 0, "DDR row size must be nonzero");
}

unsigned DdrMemory::bank_of(sim::Addr addr) const noexcept {
  // Row-interleaved banking: consecutive rows map to consecutive banks.
  return static_cast<unsigned>(((addr - cfg_.base) / cfg_.row_bytes) % cfg_.banks);
}

std::uint64_t DdrMemory::row_of(sim::Addr addr) const noexcept {
  return ((addr - cfg_.base) / cfg_.row_bytes) / cfg_.banks;
}

sim::Cycle DdrMemory::open_row(sim::Addr addr, sim::Cycle now) {
  const std::uint64_t row = row_of(addr);
  BankState& state = bank_state_[bank_of(addr)];

  sim::Cycle latency;
  if (state.row_open && state.open_row == row) {
    latency = cfg_.t_cas;
    ++stats_.row_hits;
  } else {
    latency = (state.row_open ? cfg_.t_rp : 0) + cfg_.t_rcd + cfg_.t_cas;
    ++stats_.row_misses;
    state.row_open = true;
    state.open_row = row;
  }

  if (cfg_.refresh_interval > 0) {
    const sim::Cycle epoch = now / cfg_.refresh_interval;
    if (epoch != last_refresh_epoch_) {
      last_refresh_epoch_ = epoch;
      latency += cfg_.refresh_penalty;
      ++stats_.refresh_stalls;
    }
  }
  return latency;
}

bus::AccessResult DdrMemory::access(bus::BusTransaction& t, sim::Cycle now) {
  if (t.addr < cfg_.base || t.end_addr() > cfg_.base + cfg_.size) {
    return {1, bus::TransStatus::kSlaveError};
  }
  sim::Cycle latency;
  if (t.is_write()) {
    latency = write_line(
        t.addr, std::span<const std::uint8_t>(t.data.data(), t.data.size()), now);
  } else {
    t.data.resize(t.payload_bytes());
    latency = read_line(
        t.addr, std::span<std::uint8_t>(t.data.data(), t.data.size()), now);
  }
  return {latency, bus::TransStatus::kOk};
}

sim::Cycle DdrMemory::read_line(sim::Addr addr, std::span<std::uint8_t> out,
                                sim::Cycle now) {
  const sim::Cycle latency = open_row(addr, now);
  store_.read(addr, out);
  ++stats_.reads;
  return latency;
}

sim::Cycle DdrMemory::write_line(sim::Addr addr, std::span<const std::uint8_t> in,
                                 sim::Cycle now) {
  const sim::Cycle latency = open_row(addr, now);
  store_.write(addr, in);
  ++stats_.writes;
  return latency;
}

void DdrMemory::contribute_metrics(obs::Registry& reg,
                                   const std::string& prefix) const {
  reg.counter(prefix + ".reads", stats_.reads);
  reg.counter(prefix + ".writes", stats_.writes);
  reg.counter(prefix + ".row_hits", stats_.row_hits);
  reg.counter(prefix + ".row_misses", stats_.row_misses);
  reg.counter(prefix + ".refresh_stalls", stats_.refresh_stalls);
  reg.gauge(prefix + ".row_hit_rate", stats_.hit_rate());
}

void DdrMemory::reset_timing_state() {
  for (auto& b : bank_state_) b = BankState{};
  stats_ = {};
  last_refresh_epoch_ = 0;
}

}  // namespace secbus::mem
