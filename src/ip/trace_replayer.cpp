#include "ip/trace_replayer.hpp"

#include "bus/system_bus.hpp"

namespace secbus::ip {

TraceReplayer::TraceReplayer(std::string name, sim::MasterId id,
                             std::vector<TraceRecord> trace,
                             std::uint64_t payload_seed)
    : Component(std::move(name)),
      id_(id),
      trace_(std::move(trace)),
      payload_seed_(payload_seed),
      rng_(payload_seed) {}

void TraceReplayer::tick(sim::Cycle now) {
  if (port_ == nullptr) return;
  switch (state_) {
    case State::kIdle: {
      if (next_ >= trace_.size()) return;
      delay_remaining_ = trace_[next_].delay;
      state_ = State::kDelay;
      [[fallthrough]];
    }
    case State::kDelay: {
      if (delay_remaining_ > 0) {
        --delay_remaining_;
        return;
      }
      const TraceRecord& rec = trace_[next_];
      bus::BusTransaction t;
      if (rec.op == bus::BusOp::kWrite) {
        std::vector<std::uint8_t> payload(
            static_cast<std::size_t>(rec.burst) * bus::beat_bytes(rec.format));
        rng_.fill({payload.data(), payload.size()});
        t = bus::make_write(id_, rec.addr, std::move(payload), rec.format);
      } else {
        t = bus::make_read(id_, rec.addr, rec.format, rec.burst);
      }
      t.id = bus::make_trans_id(id_, ++seq_);
      t.issued_at = now;
      ++stats_.issued;
      port_->request.push(std::move(t));
      ++next_;
      state_ = State::kWaiting;
      return;
    }
    case State::kWaiting: {
      if (port_->response.empty()) return;
      const bus::BusTransaction resp = *port_->response.pop();
      stats_.latency.add(static_cast<double>(now - resp.issued_at));
      if (resp.status == bus::TransStatus::kOk) {
        ++stats_.ok;
      } else {
        ++stats_.failed;
      }
      state_ = State::kIdle;
      return;
    }
  }
}

sim::Cycle TraceReplayer::next_wake(sim::Cycle now) const {
  if (port_ == nullptr) return sim::kNeverCycle;
  switch (state_) {
    case State::kIdle:
      return next_ < trace_.size() ? now : sim::kNeverCycle;
    case State::kDelay:
      return now + delay_remaining_;
    case State::kWaiting:
      return port_->response.empty() ? sim::kNeverCycle : now;
  }
  return now;
}

void TraceReplayer::skip(sim::Cycle /*now*/, sim::Cycle n) {
  if (state_ == State::kDelay) delay_remaining_ -= n;
}

void TraceReplayer::reset() {
  next_ = 0;
  delay_remaining_ = 0;
  state_ = State::kIdle;
  seq_ = 0;
  stats_ = {};
  rng_ = util::Xoshiro256(payload_seed_);
}

}  // namespace secbus::ip
