#include "mem/bram.hpp"

#include "util/assert.hpp"

namespace secbus::mem {

Bram::Bram(std::string name, const Config& cfg)
    : name_(std::move(name)), cfg_(cfg), store_(cfg.base, cfg.size) {
  SECBUS_ASSERT(cfg.size > 0, "BRAM must have nonzero size");
  SECBUS_ASSERT(cfg.access_latency >= 1, "BRAM latency must be >= 1");
}

bus::AccessResult Bram::access(bus::BusTransaction& t, sim::Cycle) {
  const sim::Addr rel_end = t.end_addr();
  if (t.addr < cfg_.base || rel_end > cfg_.base + cfg_.size) {
    return {1, bus::TransStatus::kSlaveError};
  }
  if (t.is_write()) {
    store_.write(t.addr, std::span<const std::uint8_t>(t.data.data(), t.data.size()));
    ++writes_;
  } else {
    t.data.resize(t.payload_bytes());
    store_.read(t.addr, std::span<std::uint8_t>(t.data.data(), t.data.size()));
    ++reads_;
  }
  return {cfg_.access_latency, bus::TransStatus::kOk};
}

}  // namespace secbus::mem
