#include "ip/processor.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bus/system_bus.hpp"
#include "core/local_firewall.hpp"
#include "mem/bram.hpp"
#include "sim/kernel.hpp"

#include "../sim/lockstep_guard.hpp"

namespace secbus::ip {
namespace {

Processor::Workload basic_workload(std::uint64_t total = 50) {
  Processor::Workload w;
  w.targets.push_back({0x0000, 0x800, 0.7, false});
  w.targets.push_back({0x0800, 0x800, 0.3, true});
  w.write_fraction = 0.5;
  w.total_transactions = total;
  return w;
}

struct ProcessorFixture : public ::testing::Test {
  void SetUp() override {
    bus_obj = std::make_unique<bus::SystemBus>("bus");
    const auto sid = bus_obj->add_slave(bram);
    bus_obj->map_region(0x0000, 0x1000, sid, "bram");
  }

  Processor& make_cpu(std::uint64_t seed, Processor::Workload w) {
    cpu = std::make_unique<Processor>("cpu0", 0, seed, std::move(w));
    cpu->connect(bus_obj->attach_master(0, "cpu0"));
    kernel.add(*cpu);
    kernel.add(*bus_obj);
    return *cpu;
  }

  sim::SimKernel kernel;
  mem::Bram bram{"bram", mem::Bram::Config{0x0000, 0x1000, 1}};
  std::unique_ptr<bus::SystemBus> bus_obj;
  std::unique_ptr<Processor> cpu;
};

TEST_F(ProcessorFixture, CompletesConfiguredTransactionCount) {
  auto& c = make_cpu(1, basic_workload(50));
  EXPECT_TRUE(kernel.run_until_idle(100'000));
  EXPECT_TRUE(c.done());
  EXPECT_EQ(c.stats().completed, 50u);
  EXPECT_EQ(c.stats().failed, 0u);
  EXPECT_EQ(c.stats().issued, 50u);
  EXPECT_EQ(c.stats().reads + c.stats().writes, 50u);
}

TEST_F(ProcessorFixture, TracksInternalExternalMix) {
  auto& c = make_cpu(2, basic_workload(200));
  EXPECT_TRUE(kernel.run_until_idle(200'000));
  const auto& s = c.stats();
  EXPECT_EQ(s.internal_accesses + s.external_accesses, 200u);
  // 70/30 split within statistical slack.
  EXPECT_GT(s.internal_accesses, 100u);
  EXPECT_GT(s.external_accesses, 20u);
}

TEST_F(ProcessorFixture, WriteFractionRespected) {
  Processor::Workload w = basic_workload(300);
  w.write_fraction = 0.8;
  auto& c = make_cpu(3, std::move(w));
  EXPECT_TRUE(kernel.run_until_idle(300'000));
  EXPECT_GT(c.stats().writes, 200u);
  EXPECT_LT(c.stats().reads, 100u);
}

TEST_F(ProcessorFixture, ComputeGapsAccumulate) {
  Processor::Workload w = basic_workload(20);
  w.compute_min = 10;
  w.compute_max = 10;
  auto& c = make_cpu(4, std::move(w));
  EXPECT_TRUE(kernel.run_until_idle(100'000));
  // At least 10 compute cycles per transaction.
  EXPECT_GE(c.stats().compute_cycles, 200u);
  EXPECT_GT(c.stats().stall_cycles, 0u);
}

TEST_F(ProcessorFixture, LatencyMeasured) {
  auto& c = make_cpu(5, basic_workload(30));
  EXPECT_TRUE(kernel.run_until_idle(100'000));
  EXPECT_EQ(c.stats().latency.count(), 30u);
  // Minimum: 1 addr + 1 BRAM + 1 beat, plus queue hand-offs.
  EXPECT_GE(c.stats().latency.min(), 3.0);
}

TEST_F(ProcessorFixture, DeterministicForSameSeed) {
  auto& c = make_cpu(42, basic_workload(100));
  EXPECT_TRUE(kernel.run_until_idle(200'000));
  const auto bytes_first = c.stats().bytes_moved;
  const auto latency_first = c.stats().latency.mean();

  // Fresh identical setup.
  sim::SimKernel kernel2;
  mem::Bram bram2{"bram", mem::Bram::Config{0x0000, 0x1000, 1}};
  bus::SystemBus bus2("bus");
  const auto sid = bus2.add_slave(bram2);
  bus2.map_region(0x0000, 0x1000, sid, "bram");
  Processor cpu2("cpu0", 0, 42, basic_workload(100));
  cpu2.connect(bus2.attach_master(0, "cpu0"));
  kernel2.add(cpu2);
  kernel2.add(bus2);
  EXPECT_TRUE(kernel2.run_until_idle(200'000));

  EXPECT_EQ(cpu2.stats().bytes_moved, bytes_first);
  EXPECT_DOUBLE_EQ(cpu2.stats().latency.mean(), latency_first);
}

TEST_F(ProcessorFixture, ResetRestartsCleanly) {
  auto& c = make_cpu(6, basic_workload(10));
  EXPECT_TRUE(kernel.run_until_idle(50'000));
  EXPECT_TRUE(c.done());
  kernel.reset();
  EXPECT_FALSE(c.done());
  EXPECT_EQ(c.stats().issued, 0u);
  EXPECT_TRUE(kernel.run_until_idle(50'000));
  EXPECT_EQ(c.stats().completed, 10u);
}

TEST_F(ProcessorFixture, FailedResponsesCountAsProgress) {
  // Unmapped target: every access decode-errors, but the processor must
  // still terminate (no deadlock on failure).
  Processor::Workload w;
  w.targets.push_back({0x4000, 0x400, 1.0, false});  // unmapped on this bus
  w.total_transactions = 10;
  auto& c = make_cpu(7, std::move(w));
  EXPECT_TRUE(kernel.run_until_idle(50'000));
  EXPECT_TRUE(c.done());
  EXPECT_EQ(c.stats().failed, 10u);
  EXPECT_EQ(c.stats().completed, 0u);
}

// The fold: a waiting CPU takes its response in the tick that issues its
// next request, and skip() applies a response it passes. Capped runs and
// reset_stats() callbacks inside the window [v, v + 1 + gap] between taking
// a response (v) and the next issue must read exactly as in the lockstep
// oracle, which ticks the CPU at v.

using sim::LockstepGuard;

Processor::Workload fold_workload(std::uint64_t total) {
  Processor::Workload w;
  w.targets.push_back({0x0000, 0x800, 0.6, false});
  w.targets.push_back({0x0800, 0x800, 0.3, true});
  // Outside the policy and the map: blocked by the LF, decode error on
  // the raw bus, so failed responses are folded too.
  w.targets.push_back({0x4000, 0x400, 0.1, false});
  w.write_fraction = 0.5;
  w.compute_min = 0;
  w.compute_max = 5;
  w.total_transactions = total;
  return w;
}

// Two CPUs on one BRAM bus, registered as a SoC registers them (CPUs, then
// firewall, then bus): cpu0 behind a Local Firewall, whose responses carry
// a delivery cycle, and cpu1 on a raw bus endpoint, whose plain pushes are
// ready at once.
struct FoldRig {
  FoldRig() {
    config_mem.install(1, core::PolicyBuilder(1)
                              .allow(0x0000, 0x1000, core::RwAccess::kReadWrite)
                              .build());
    const auto sid = bus_obj.add_slave(bram);
    bus_obj.map_region(0x0000, 0x1000, sid, "bram");
    fw.connect_bus(bus_obj.attach_master(0, "cpu0"));
    cpu0.connect(fw.ip_side());
    cpu1.connect(bus_obj.attach_master(1, "cpu1"));
    kernel.add(cpu0);
    kernel.add(cpu1);
    kernel.add(fw);
    kernel.add(bus_obj);
  }

  Processor& cpu(int i) { return i == 0 ? cpu0 : cpu1; }

  sim::SimKernel kernel;
  core::ConfigurationMemory config_mem;
  core::SecurityEventLog log;
  mem::Bram bram{"bram", mem::Bram::Config{0x0000, 0x1000, 1}};
  bus::SystemBus bus_obj{"bus"};
  core::LocalFirewall fw{"lf0", 1, config_mem, log};
  Processor cpu0{"cpu0", 0, 11, fold_workload(7)};
  Processor cpu1{"cpu1", 1, 17, fold_workload(5)};
};

// Every Stats field, doubles bit for bit.
std::string dump(const Processor::Stats& s) {
  std::ostringstream o;
  o << std::hexfloat << "issued=" << s.issued << " completed=" << s.completed
    << " failed=" << s.failed << " reads=" << s.reads
    << " writes=" << s.writes << " external=" << s.external_accesses
    << " internal=" << s.internal_accesses << " bytes=" << s.bytes_moved
    << " compute=" << s.compute_cycles << " stall=" << s.stall_cycles;
  const util::RunningStat::Snapshot lat = s.latency.snapshot();
  o << " latency=" << lat.count << ',' << lat.mean << ',' << lat.m2 << ','
    << lat.sum << ',' << lat.min << ',' << lat.max;
  const util::LatencyHistogram& h = s.latency_hist;
  o << " hist=" << h.count() << ',' << h.sum() << ',' << h.overflow() << ','
    << h.min() << ',' << h.max() << ':';
  h.for_each_bucket(
      [&o](std::uint64_t cycle, std::uint64_t n) { o << ' ' << cycle << 'x' << n; });
  return o.str();
}

struct ResetAt {
  int cpu;
  sim::Cycle cycle;
};

// Runs a fresh rig for `cap` cycles (to idle when it comes first), with an
// optional reset_stats() callback, and dumps what a caller could read.
std::string run_rig(bool lockstep, sim::Cycle cap, std::optional<ResetAt> reset) {
  LockstepGuard guard(lockstep);
  FoldRig rig;
  if (reset) {
    Processor& cpu = rig.cpu(reset->cpu);
    rig.kernel.schedule(reset->cycle, [&cpu] { cpu.reset_stats(); });
  }
  const bool idle = rig.kernel.run_until_idle(cap);
  return "idle=" + std::to_string(idle) +
         " now=" + std::to_string(rig.kernel.now()) +
         "\ncpu0 " + dump(rig.cpu0.stats()) + "\ncpu1 " + dump(rig.cpu1.stats());
}

// A CPU's window: it takes a response at v and issues its next request at
// `issue` (v + 1 + gap); after the budget's last response, issue = v + 1.
struct Window {
  int cpu;
  sim::Cycle v;
  sim::Cycle issue;
};

// Every window of both CPUs, read off a lockstep run one cycle at a time.
std::vector<Window> probe_windows() {
  LockstepGuard guard(true);
  FoldRig rig;
  std::vector<Window> windows;
  std::uint64_t taken[2] = {0, 0};
  std::uint64_t issued[2] = {0, 0};
  std::optional<std::size_t> open[2];
  for (bool idle = false; !idle;) {
    const sim::Cycle t = rig.kernel.now();
    idle = rig.kernel.run_until_idle(1);
    if (rig.kernel.now() == t) break;  // idle before stepping t
    for (int i = 0; i < 2; ++i) {
      const Processor::Stats& s = rig.cpu(i).stats();
      if (s.issued > issued[i]) {
        issued[i] = s.issued;
        if (open[i]) windows[*open[i]].issue = t;
        open[i].reset();
      }
      if (s.completed + s.failed > taken[i]) {
        taken[i] = s.completed + s.failed;
        windows.push_back({i, t, t + 1});
        open[i] = windows.size() - 1;
      }
    }
  }
  return windows;
}

std::string describe(const Window& w) {
  return "cpu" + std::to_string(w.cpu) + " window [" + std::to_string(w.v) +
         ", " + std::to_string(w.issue) + "]";
}

TEST(ProcessorFold, WindowsCoverBothEndpointsAndGaps) {
  const std::vector<Window> windows = probe_windows();
  ASSERT_EQ(windows.size(), 12u);  // 7 + 5 responses
  bool cpu_seen[2] = {false, false};
  bool zero_gap = false;
  bool long_gap = false;
  for (const Window& w : windows) {
    cpu_seen[w.cpu] = true;
    zero_gap |= w.issue == w.v + 1;
    long_gap |= w.issue >= w.v + 4;
  }
  EXPECT_TRUE(cpu_seen[0] && cpu_seen[1]);
  EXPECT_TRUE(zero_gap);
  EXPECT_TRUE(long_gap);
  // Both CPUs see failed responses (LF block, bus decode error).
  LockstepGuard guard(false);
  FoldRig rig;
  ASSERT_TRUE(rig.kernel.run_until_idle(100'000));
  EXPECT_GT(rig.cpu0.stats().failed, 0u);
  EXPECT_GT(rig.cpu1.stats().failed, 0u);
}

TEST(ProcessorFold, RunCappedInsideAWindowMatchesLockstep) {
  for (const Window& w : probe_windows()) {
    for (sim::Cycle cap = w.v; cap <= w.issue + 1; ++cap) {
      EXPECT_EQ(run_rig(true, cap, std::nullopt),
                run_rig(false, cap, std::nullopt))
          << describe(w) << ", capped at " << cap;
    }
  }
}

TEST(ProcessorFold, ResetStatsInsideAWindowMatchesLockstep) {
  for (const Window& w : probe_windows()) {
    for (sim::Cycle at = w.v; at <= w.issue; ++at) {
      const ResetAt reset{w.cpu, at};
      std::vector<sim::Cycle> caps;
      for (sim::Cycle cap = at; cap <= w.issue + 1; ++cap) caps.push_back(cap);
      caps.push_back(100'000);
      for (const sim::Cycle cap : caps) {
        EXPECT_EQ(run_rig(true, cap, reset), run_rig(false, cap, reset))
            << describe(w) << ", reset_stats at " << at << ", capped at "
            << cap;
      }
    }
  }
}

}  // namespace
}  // namespace secbus::ip
