#include "sim/trace.hpp"

#include <array>
#include <cstdio>

#include "util/assert.hpp"

namespace secbus::sim {

const char* to_string(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::kTransIssued: return "trans_issued";
    case TraceKind::kSecpolReq: return "secpol_req";
    case TraceKind::kCheckResult: return "check_result";
    case TraceKind::kTransOnBus: return "trans_on_bus";
    case TraceKind::kTransComplete: return "trans_complete";
    case TraceKind::kTransDiscarded: return "trans_discarded";
    case TraceKind::kAlert: return "alert";
    case TraceKind::kCipherOp: return "cipher_op";
    case TraceKind::kIntegrityOp: return "integrity_op";
    case TraceKind::kPolicyUpdate: return "policy_update";
    case TraceKind::kAttackAction: return "attack_action";
  }
  return "?";
}

const char* EventTrace::intern(const char* source) {
  if (source == nullptr) source = "";
  if (const auto it = intern_by_ptr_.find(source); it != intern_by_ptr_.end()) {
    return it->second;
  }
  const char* owned = nullptr;
  if (const auto it = intern_by_content_.find(std::string_view(source));
      it != intern_by_content_.end()) {
    owned = it->second;  // same name from a new pointer (component rebuilt)
  } else {
    names_.emplace_back(source);
    owned = names_.back().c_str();
    intern_by_content_.emplace(std::string_view(names_.back()), owned);
  }
  intern_by_ptr_.emplace(source, owned);
  return owned;
}

void EventTrace::record(const TraceEvent& ev) {
  ++total_;
  ++per_kind_[static_cast<std::size_t>(ev.kind) % per_kind_.size()];
  if (capacity_ == 0) return;
  TraceEvent stored = ev;
  stored.source = intern(ev.source);
  if (ring_.size() < capacity_) {
    ring_.push_back(stored);
  } else {
    ring_[head_] = stored;
    head_ = (head_ + 1) % capacity_;
  }
}

std::vector<TraceEvent> EventTrace::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t EventTrace::count_of(TraceKind kind) const noexcept {
  return per_kind_[static_cast<std::size_t>(kind) % per_kind_.size()];
}

void EventTrace::clear() {
  ring_.clear();
  head_ = 0;
  total_ = 0;
  per_kind_ = {};
  intern_by_ptr_.clear();
}

std::string EventTrace::format(std::size_t max_lines) const {
  const auto events = snapshot();
  const std::size_t start =
      events.size() > max_lines ? events.size() - max_lines : 0;
  std::string out;
  char line[192];
  for (std::size_t i = start; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    std::snprintf(line, sizeof(line),
                  "%10llu  %-16s %-22s trans=%llu addr=0x%08llx detail=%llu\n",
                  static_cast<unsigned long long>(ev.cycle), to_string(ev.kind),
                  ev.source, static_cast<unsigned long long>(ev.trans),
                  static_cast<unsigned long long>(ev.addr),
                  static_cast<unsigned long long>(ev.detail));
    out += line;
  }
  return out;
}

}  // namespace secbus::sim
