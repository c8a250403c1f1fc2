#include "attack/flood_master.hpp"

#include <algorithm>

#include "bus/system_bus.hpp"

namespace secbus::attack {

FloodMaster::FloodMaster(std::string name, sim::MasterId id, Config cfg)
    : Master(std::move(name), id), cfg_(cfg) {}

void FloodMaster::tick(sim::Cycle now) {
  if (port_ == nullptr) return;

  // Drain responses (the flooder does not care about results, but counting
  // rejections shows firewall throttling).
  while (port_->response.ready(now)) {
    if (port_->response.front().status == bus::TransStatus::kOk) {
      ++completed_;
    } else {
      ++rejected_;
    }
    port_->response.drop_front();
    outstanding_ = false;
  }

  if (done() || outstanding_) return;
  if (cfg_.total_writes != 0 && issued_ >= cfg_.total_writes) return;

  const std::uint64_t bytes =
      static_cast<std::uint64_t>(cfg_.burst_beats) * 4;
  bus::Payload payload;
  payload.assign(bytes, 0xDD);  // dummy data, inline up to 64 bytes
  bus::BusTransaction t = bus::make_write(
      id_, cfg_.target + offset_, std::move(payload), bus::DataFormat::kWord);
  t.id = bus::make_trans_id(id_, ++seq_);
  t.issued_at = now;
  offset_ = (offset_ + bytes) % cfg_.region;
  ++issued_;
  outstanding_ = true;
  port_->request.push(std::move(t));
}

sim::Cycle FloodMaster::next_wake(sim::Cycle now) const {
  if (port_ == nullptr) return sim::kNeverCycle;
  const bool can_issue =
      !done() && !outstanding_ &&
      (cfg_.total_writes == 0 || issued_ < cfg_.total_writes);
  return can_issue ? now : std::max(now, port_->response.ready_at());
}

void FloodMaster::reset() {
  issued_ = completed_ = rejected_ = 0;
  seq_ = 0;
  offset_ = 0;
  outstanding_ = false;
}

}  // namespace secbus::attack
