#include "ip/processor.hpp"

#include <algorithm>

#include "bus/system_bus.hpp"
#include "obs/registry.hpp"
#include "util/assert.hpp"

namespace secbus::ip {

Processor::Processor(std::string name, sim::MasterId id, std::uint64_t seed,
                     Workload workload)
    : Master(std::move(name), id),
      seed_(seed),
      workload_(std::move(workload)),
      rng_(seed) {
  SECBUS_ASSERT(!workload_.targets.empty(), "processor workload needs targets");
  SECBUS_ASSERT(workload_.compute_max >= workload_.compute_min,
                "compute gap range inverted");
  SECBUS_ASSERT(workload_.max_burst_beats >= 1, "burst beats must be >= 1");
  SECBUS_ASSERT(workload_.threads >= 1, "at least one thread");
  for (const Target& t : workload_.targets) target_weights_.push_back(t.weight);
  target_total_ = util::Xoshiro256::weight_total(target_weights_);
  format_weights_ = {workload_.w_byte, workload_.w_half, workload_.w_word};
  format_total_ = util::Xoshiro256::weight_total(format_weights_);
  compute_remaining_ =
      rng_.range(workload_.compute_min, workload_.compute_max);
}

bus::Payload Processor::random_payload(std::size_t n) {
  bus::Payload payload;
  payload.resize(n);
  rng_.fill(payload.span());
  return payload;
}

bus::BusTransaction Processor::next_transaction(sim::Cycle now) {
  // Pick a target window, a direction, a format and a burst length, then an
  // aligned address such that the whole burst stays inside the window.
  const std::size_t target_idx =
      rng_.weighted_pick(target_weights_, target_total_);
  const Target& target = workload_.targets[target_idx];
  pending_external_ = target.external;

  const std::size_t fmt_idx =
      rng_.weighted_pick(format_weights_, format_total_);
  const bus::DataFormat fmt = fmt_idx == 0   ? bus::DataFormat::kByte
                              : fmt_idx == 1 ? bus::DataFormat::kHalfWord
                                             : bus::DataFormat::kWord;

  const auto burst = static_cast<std::uint16_t>(
      rng_.range(1, workload_.max_burst_beats));
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(burst) * bus::beat_bytes(fmt);
  SECBUS_ASSERT(target.size >= bytes, "target window smaller than one burst");

  const std::uint64_t slots = (target.size - bytes) / bus::beat_bytes(fmt) + 1;
  const sim::Addr addr =
      target.base + rng_.below(slots) * bus::beat_bytes(fmt);

  const bool is_write = rng_.chance(workload_.write_fraction);
  // Built in place: both branches are prvalues, so nothing is moved into t.
  bus::BusTransaction t =
      is_write ? bus::make_write(id_, addr, random_payload(bytes), fmt)
               : bus::make_read(id_, addr, fmt, burst);
  ++(is_write ? stats_.writes : stats_.reads);
  t.id = bus::make_trans_id(id_, ++seq_);
  t.thread = static_cast<bus::ThreadId>(seq_ % workload_.threads);
  t.issued_at = now;
  return t;
}

void Processor::tick(sim::Cycle now) {
  if (port_ == nullptr) return;

  switch (state_) {
    case State::kComputing: {
      if (done()) return;
      ++stats_.compute_cycles;
      if (compute_remaining_ > 0) {
        --compute_remaining_;
        return;
      }
      port_->request.push(next_transaction(now));
      ++stats_.issued;
      (pending_external_ ? stats_.external_accesses : stats_.internal_accesses) += 1;
      // The gap after this transaction, drawn now: nothing else draws from
      // rng_ before the response, so the sequence is the receive-time one.
      compute_remaining_ =
          rng_.range(workload_.compute_min, workload_.compute_max);
      state_ = State::kWaiting;
      break;
    }
    case State::kWaiting: {
      if (!port_->response.ready(now)) {
        ++stats_.stall_cycles;
        return;
      }
      receive(now);
      break;
    }
  }
}

void Processor::receive(sim::Cycle now) {
  const bus::BusTransaction& resp = port_->response.front();
  stats_.latency.add(static_cast<double>(now - resp.issued_at));
  stats_.latency_hist.add(now - resp.issued_at);
  if (resp.status == bus::TransStatus::kOk) {
    ++stats_.completed;
    stats_.bytes_moved += resp.payload_bytes();
  } else {
    ++stats_.failed;
  }
  port_->response.drop_front();
  state_ = State::kComputing;
}

bool Processor::last_response() const noexcept {
  return workload_.total_transactions != 0 &&
         stats_.completed + stats_.failed + 1 >= workload_.total_transactions;
}

sim::Cycle Processor::next_wake(sim::Cycle now) const {
  if (port_ == nullptr) return sim::kNeverCycle;
  if (state_ == State::kComputing) {
    return done() ? sim::kNeverCycle : now + compute_remaining_;
  }
  const sim::Cycle ready = port_->response.ready_at();
  if (ready == sim::kNeverCycle) return sim::kNeverCycle;
  const sim::Cycle v = std::max(now, ready);
  return last_response() ? v : v + 1 + compute_remaining_;
}

void Processor::skip(sim::Cycle now, sim::Cycle n) {
  if (port_ == nullptr) return;
  const sim::Cycle end = now + n;
  if (state_ == State::kWaiting) {
    const sim::Cycle ready = port_->response.ready_at();
    if (ready >= end) {
      stats_.stall_cycles += n;
      return;
    }
    // The response is taken at v inside the span, as tick(v) would; the
    // cycles after it count down the gap drawn at issue.
    const sim::Cycle v = std::max(now, ready);
    stats_.stall_cycles += v - now;
    receive(v);
    now = v + 1;
    n = end - now;
  }
  if (!done()) {
    stats_.compute_cycles += n;
    compute_remaining_ -= n;
  }
}

void Processor::contribute_metrics(obs::Registry& reg,
                                   const std::string& prefix) const {
  reg.counter(prefix + ".issued", stats_.issued);
  reg.counter(prefix + ".completed", stats_.completed);
  reg.counter(prefix + ".failed", stats_.failed);
  reg.counter(prefix + ".reads", stats_.reads);
  reg.counter(prefix + ".writes", stats_.writes);
  reg.counter(prefix + ".external_accesses", stats_.external_accesses);
  reg.counter(prefix + ".internal_accesses", stats_.internal_accesses);
  reg.counter(prefix + ".bytes_moved", stats_.bytes_moved);
  reg.counter(prefix + ".compute_cycles", stats_.compute_cycles);
  reg.counter(prefix + ".stall_cycles", stats_.stall_cycles);
  reg.hist(prefix + ".latency", stats_.latency_hist);
}

void Processor::reset() {
  rng_ = util::Xoshiro256(seed_);
  state_ = State::kComputing;
  compute_remaining_ = rng_.range(workload_.compute_min, workload_.compute_max);
  seq_ = 0;
  stats_ = {};
}

}  // namespace secbus::ip
