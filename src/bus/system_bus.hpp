// Shared system bus (PLB-style, single outstanding transaction).
//
// Timing model per transaction:
//   grant -> 1 address cycle -> slave access latency -> burst_len data beats
// The bus is held for the whole transaction (no split transactions), which is
// what makes external-memory traffic with cryptographic latencies expensive —
// the effect the paper's Section V discusses when it recommends promoting
// internal communication.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bus/address_map.hpp"
#include "bus/arbiter.hpp"
#include "bus/ports.hpp"
#include "bus/transaction.hpp"
#include "sim/component.hpp"
#include "sim/trace.hpp"
#include "util/ring.hpp"
#include "util/stats.hpp"

namespace secbus::obs {
class Registry;
}

namespace secbus::bus {

// Builds a transaction id unique per (master, per-master sequence number).
[[nodiscard]] constexpr sim::TransactionId make_trans_id(sim::MasterId master,
                                                         std::uint64_t seq) noexcept {
  return (static_cast<sim::TransactionId>(master) << 48) | (seq & 0xFFFFFFFFFFFFULL);
}

class SystemBus final : public sim::Component {
 public:
  struct MasterStats {
    std::string name;
    std::uint64_t grants = 0;
    std::uint64_t errors = 0;
    util::RunningStat wait_cycles;     // issue -> grant
    util::RunningStat service_cycles;  // grant -> completion
    util::RunningStat total_cycles;    // issue -> completion
  };

  struct BusStats {
    std::uint64_t busy_cycles = 0;
    std::uint64_t idle_cycles = 0;
    std::uint64_t transactions = 0;
    std::uint64_t decode_errors = 0;
    std::uint64_t bytes_transferred = 0;
    // Traffic forwarded *into* this segment by a Bridge (fabric topologies
    // only; the cycles it occupies are charged via reserve()).
    std::uint64_t bridged_in = 0;
    std::uint64_t bridged_in_bytes = 0;

    [[nodiscard]] double occupancy() const noexcept {
      const double total = static_cast<double>(busy_cycles + idle_cycles);
      return total > 0.0 ? static_cast<double>(busy_cycles) / total : 0.0;
    }
  };

  explicit SystemBus(std::string name);

  // --- wiring (construction time only) --------------------------------
  // Registers a master; returns its endpoint. The returned reference stays
  // valid for the bus's lifetime.
  MasterEndpoint& attach_master(sim::MasterId id, std::string master_name);

  // Registers a slave device; returns the slave id to use in map_region.
  sim::SlaveId add_slave(SlaveDevice& dev);

  // Maps [base, base+size) to a registered slave.
  void map_region(sim::Addr base, std::uint64_t size, sim::SlaveId slave,
                  std::string region_name);

  [[nodiscard]] const AddressMap& address_map() const noexcept { return map_; }

  // Registered slave device for a decoded slave id (bridge forwarding path).
  [[nodiscard]] SlaveDevice* slave_device(sim::SlaveId id) noexcept {
    return id < slaves_.size() ? slaves_[id] : nullptr;
  }

  // --- fabric integration (bridge-forwarded traffic) --------------------
  // Bridge crossings book *service windows* on this segment: incoming
  // crossings queue after the booking tail (so bridged traffic serializes),
  // and local masters get no grant while a booked window is active (so they
  // contend with bridged traffic). Only actual crossing service — hop +
  // slave latency + data beats — is ever booked; a crossing's queueing wait
  // deliberately never enters another segment's bookings, because letting
  // origin-hold waits feed other segments' waits compounds without bound on
  // deep fabrics (circuit-switched head-of-line explosion).
  //
  // First cycle >= now at which a new crossing may enter this segment:
  // after the booked crossings, and after the current *local* transaction
  // if one is in flight. A current transaction that is itself crossing a
  // bridge is deliberately excluded — its hold time contains queueing waits
  // on other segments, and stacking waits on waits compounds without bound
  // on deep fabrics.
  [[nodiscard]] sim::Cycle free_at(sim::Cycle now) const noexcept {
    sim::Cycle t = booking_tail_ > now ? booking_tail_ : now;
    if (state_ != State::kIdle && !current_is_crossing_ &&
        now + phase_remaining_ > t) {
      t = now + phase_remaining_;
    }
    return t;
  }
  // Books [start, end); start must come from free_at(), so windows are
  // non-overlapping and ascending.
  void book(sim::Cycle start, sim::Cycle end);
  [[nodiscard]] sim::Cycle booked_until() const noexcept {
    return booking_tail_;
  }
  // Booked windows not yet pruned (they end after the last executed cycle).
  [[nodiscard]] std::size_t booked_windows() const noexcept {
    return bookings_.size();
  }
  // Accounting hook for bridge-forwarded traffic terminating here.
  void note_bridged_in(std::uint64_t bytes) noexcept {
    ++stats_.bridged_in;
    stats_.bridged_in_bytes += bytes;
  }

  // Event trace shared with firewalls (optional; capacity 0 = off).
  void set_trace(sim::EventTrace* trace) noexcept { trace_ = trace; }

  // --- simulation ------------------------------------------------------
  void tick(sim::Cycle now) override;
  // Wakes when the data phase completes, or, with a request waiting, at the
  // first cycle not covered by a booked window; idle until input otherwise.
  [[nodiscard]] sim::Cycle next_wake(sim::Cycle now) const override;
  // Counts down the data phase, charges skipped cycles to busy_cycles
  // (data phase or booked window) or idle_cycles, and prunes bookings.
  void skip(sim::Cycle now, sim::Cycle n) override;
  void reset() override;

  // Zeroes the segment and per-master statistics (master names survive)
  // without disturbing the simulation state, so phase boundaries can snap
  // metrics without double-counting. reset() implies it.
  void reset_stats() noexcept;

  // Publishes segment counters and per-master stats under `prefix`
  // ("<prefix>.transactions", "<prefix>.master.<name>.grants", ...).
  void contribute_metrics(obs::Registry& reg, const std::string& prefix) const;

  // --- results ----------------------------------------------------------
  [[nodiscard]] const BusStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<MasterStats>& master_stats() const noexcept {
    return master_stats_;
  }
  [[nodiscard]] std::size_t master_count() const noexcept {
    return endpoints_.size();
  }
  // Endpoint of the i-th attached master (attach order).
  [[nodiscard]] const MasterEndpoint& endpoint(std::size_t i) const {
    return *endpoints_.at(i);
  }

 private:
  enum class State { kIdle, kAddress, kDataAndSlave };

  // True when a booked crossing window covers `now`; prunes expired windows.
  [[nodiscard]] bool booked_at(sim::Cycle now) noexcept;
  // Drops the windows that end at or before `now`.
  void prune_bookings(sim::Cycle now) noexcept;
  [[nodiscard]] bool no_requests_waiting() const noexcept;
  void start_transaction(sim::Cycle now, std::size_t master_index);
  void finish_transaction(sim::Cycle now);
  // The transaction in service (state_ != kIdle).
  BusTransaction& current() noexcept;

  RoundRobinArbiter arbiter_;
  AddressMap map_;
  std::vector<std::unique_ptr<MasterEndpoint>> endpoints_;
  std::vector<sim::MasterId> master_ids_;
  std::vector<SlaveDevice*> slaves_;
  std::vector<MasterStats> master_stats_;
  sim::EventTrace* trace_ = nullptr;

  State state_ = State::kIdle;
  // Bridge service windows: ascending, non-overlapping [start, end) pairs;
  // the head is pruned as simulation time passes. Bounded by the number of
  // in-flight crossings (each master has at most one outstanding).
  util::Ring<std::pair<sim::Cycle, sim::Cycle>> bookings_;
  sim::Cycle booking_tail_ = 0;  // end of the last booked window
  bool current_is_crossing_ = false;  // current() is serviced by a Bridge
  // The granted master. Its transaction stays at the front of its request
  // queue while in service, and moves to its response queue, or through
  // its endpoint's gate, at the end.
  std::size_t current_master_ = 0;
  sim::Cycle phase_remaining_ = 0;
  AccessResult pending_result_;
  // Arbitration input, one flag per master; reused across cycles.
  std::vector<bool> requesting_;
  BusStats stats_;
};

}  // namespace secbus::bus
