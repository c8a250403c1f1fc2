#include "ip/dma_engine.hpp"

#include <algorithm>

#include "bus/system_bus.hpp"
#include "obs/registry.hpp"
#include "util/assert.hpp"

namespace secbus::ip {

DmaEngine::DmaEngine(std::string name, sim::MasterId id)
    : Master(std::move(name), id) {}

void DmaEngine::start(const Job& job) {
  SECBUS_ASSERT(state_ == State::kIdle, "DMA already busy");
  SECBUS_ASSERT(job.length % 4 == 0, "DMA length must be word-aligned");
  SECBUS_ASSERT(job.burst_beats >= 1, "DMA burst must be >= 1 beat");
  job_ = job;
  progress_ = 0;
  stats_ = {};
  state_ = job.length > 0 ? State::kReading : State::kIdle;
  pending_issue_ = true;
}

std::uint16_t DmaEngine::beats_for_chunk() const noexcept {
  const std::uint64_t remaining_words = (job_.length - progress_) / 4;
  return static_cast<std::uint16_t>(
      std::min<std::uint64_t>(job_.burst_beats, remaining_words));
}

void DmaEngine::tick(sim::Cycle now) {
  if (port_ == nullptr || state_ == State::kIdle) return;

  // Stamped when the job's first read issues: the only issue in kReading
  // at progress 0.
  if (state_ == State::kReading && progress_ == 0 && pending_issue_) {
    stats_.started_at = now;
  }

  switch (state_) {
    case State::kIdle:
      return;
    case State::kReading: {
      if (pending_issue_) {
        bus::BusTransaction t = bus::make_read(
            id_, job_.src + progress_, bus::DataFormat::kWord, beats_for_chunk());
        t.id = bus::make_trans_id(id_, ++seq_);
        t.issued_at = now;
        port_->request.push(std::move(t));
        pending_issue_ = false;
        return;
      }
      if (!port_->response.ready(now)) return;
      bus::BusTransaction resp = port_->response.take();
      if (resp.status != bus::TransStatus::kOk) {
        ++stats_.errors;
        state_ = State::kIdle;  // abort the job on error
        stats_.finished_at = now;
        return;
      }
      chunk_ = std::move(resp.data);
      state_ = State::kWriting;
      pending_issue_ = true;
      return;
    }
    case State::kWriting: {
      if (pending_issue_) {
        bus::BusTransaction t = bus::make_write(id_, job_.dst + progress_,
                                                chunk_, bus::DataFormat::kWord);
        t.id = bus::make_trans_id(id_, ++seq_);
        t.issued_at = now;
        port_->request.push(std::move(t));
        pending_issue_ = false;
        return;
      }
      if (!port_->response.ready(now)) return;
      const bus::TransStatus status = port_->response.front().status;
      port_->response.drop_front();
      if (status != bus::TransStatus::kOk) {
        ++stats_.errors;
        state_ = State::kIdle;
        stats_.finished_at = now;
        return;
      }
      ++stats_.bursts;
      stats_.bytes_copied += chunk_.size();
      progress_ += chunk_.size();
      if (progress_ >= job_.length) {
        state_ = State::kIdle;
        stats_.finished_at = now;
      } else {
        state_ = State::kReading;
        pending_issue_ = true;
      }
      return;
    }
  }
}

sim::Cycle DmaEngine::next_wake(sim::Cycle now) const {
  if (port_ == nullptr || state_ == State::kIdle) return sim::kNeverCycle;
  return pending_issue_ ? now : std::max(now, port_->response.ready_at());
}

void DmaEngine::contribute_metrics(obs::Registry& reg,
                                   const std::string& prefix) const {
  reg.counter(prefix + ".bursts", stats_.bursts);
  reg.counter(prefix + ".bytes_copied", stats_.bytes_copied);
  reg.counter(prefix + ".errors", stats_.errors);
  reg.counter(prefix + ".started_at", stats_.started_at);
  reg.counter(prefix + ".finished_at", stats_.finished_at);
}

void DmaEngine::reset() {
  state_ = State::kIdle;
  progress_ = 0;
  chunk_.clear();
  seq_ = 0;
  stats_ = {};
  pending_issue_ = false;
}

}  // namespace secbus::ip
