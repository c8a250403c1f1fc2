// Simulation event trace.
//
// A bounded ring of typed events (transaction lifecycle, firewall checks,
// alerts). The Figure-1 bench and the examples replay this trace to show the
// `secpol_req` / `check_results` / `alert_signals` activity the paper's
// architecture diagram wires between LF blocks.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/types.hpp"

namespace secbus::sim {

enum class TraceKind : std::uint8_t {
  kTransIssued,     // master handed a transaction to its firewall
  kSecpolReq,       // firewall LFCB raised secpol_req toward the SB
  kCheckResult,     // SB delivered check_results to the FI
  kTransOnBus,      // bus granted and started the transfer
  kTransComplete,   // response delivered back to the master
  kTransDiscarded,  // FI discarded the transaction (rule violation)
  kAlert,           // alert_signals pulsed (violation or integrity failure)
  kCipherOp,        // LCF confidentiality core processed blocks
  kIntegrityOp,     // LCF integrity core processed blocks
  kPolicyUpdate,    // configuration memory rewritten (reconfiguration)
  kAttackAction,    // attack framework acted on the system
};

[[nodiscard]] const char* to_string(TraceKind kind) noexcept;

struct TraceEvent {
  Cycle cycle = 0;
  TraceKind kind = TraceKind::kTransIssued;
  // Emitting component (firewall/bus/attacker) name. record() interns the
  // string, so callers may pass any pointer that is valid *for the call* —
  // events returned by snapshot() point at trace-owned copies and stay
  // valid after the emitting component is torn down.
  const char* source = "";
  TransactionId trans = 0;
  Addr addr = 0;
  std::uint64_t detail = 0;  // kind-specific payload (violation code, bytes, ...)
};

class EventTrace {
 public:
  // capacity == 0 disables recording entirely (benches run untraced).
  explicit EventTrace(std::size_t capacity = 0) : capacity_(capacity) {}

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }

  void record(const TraceEvent& ev);

  // Events in arrival order (oldest first), up to capacity (older dropped).
  // Every `source` points into this trace's intern table: valid as long as
  // the trace lives, independent of the recording components' lifetimes.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  [[nodiscard]] std::uint64_t total_recorded() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t count_of(TraceKind kind) const noexcept;

  void clear();

  // Human-readable rendering of the most recent `max_lines` events.
  [[nodiscard]] std::string format(std::size_t max_lines = 64) const;

 private:
  // Trace-owned copy of `source` (content-deduplicated). The by-pointer map
  // short-circuits the common case: components record thousands of events
  // through the same name().c_str() pointer.
  [[nodiscard]] const char* intern(const char* source);

  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // index of oldest element when full
  std::uint64_t total_ = 0;
  std::array<std::uint64_t, 16> per_kind_{};

  std::deque<std::string> names_;  // pointer-stable intern storage
  std::unordered_map<const char*, const char*> intern_by_ptr_;
  std::unordered_map<std::string_view, const char*> intern_by_content_;
};

}  // namespace secbus::sim
