// Differential suite: the next-event kernel against the lockstep oracle.
//
// Every builtin scenario and every example campaign runs in both kernel
// modes with the full metric registry collected; the serialized JobResults
// must be byte-identical. Traced runs must also emit the identical event
// stream. A jump that drops, adds or shifts a single cycle of bookkeeping
// anywhere (bus occupancy, CPU stall/compute counters, check countdowns)
// shows up here as a differing byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/campaign.hpp"
#include "obs/registry.hpp"
#include "scenario/registry.hpp"
#include "scenario/result_io.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "soc/presets.hpp"
#include "soc/soc.hpp"

#include "lockstep_guard.hpp"

namespace secbus::sim {
namespace {

struct ModeRun {
  std::vector<std::string> results;  // job_result_to_json per job
  std::uint64_t cycles_skipped = 0;
  std::uint64_t ticks_dispatched = 0;
};

ModeRun run_jobs(const std::vector<scenario::ScenarioSpec>& jobs,
                 bool lockstep) {
  LockstepGuard guard(lockstep);
  ModeRun out;
  for (const scenario::ScenarioSpec& spec : jobs) {
    scenario::RunHooks hooks;
    hooks.collect_metrics = true;
    hooks.inspect = [&out](soc::Soc& sys, const scenario::JobResult&) {
      out.cycles_skipped += sys.kernel().cycles_skipped();
      out.ticks_dispatched += sys.kernel().ticks_dispatched();
    };
    out.results.push_back(
        scenario::job_result_to_json(scenario::run_scenario(spec, hooks))
            .dump());
  }
  return out;
}

// Runs `jobs` in both modes and compares them job by job.
void expect_modes_identical(const std::string& label,
                            const std::vector<scenario::ScenarioSpec>& jobs) {
  const ModeRun oracle = run_jobs(jobs, /*lockstep=*/true);
  const ModeRun fast = run_jobs(jobs, /*lockstep=*/false);
  ASSERT_EQ(oracle.results.size(), fast.results.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(oracle.results[i], fast.results[i])
        << label << " job " << i << " (" << jobs[i].variant
        << ") differs between kernel modes";
  }
  EXPECT_EQ(oracle.cycles_skipped, 0u) << label;
  EXPECT_GT(fast.cycles_skipped, 0u) << label << ": nothing was jumped";
  EXPECT_LT(fast.ticks_dispatched, oracle.ticks_dispatched) << label;
}

TEST(KernelModes, EveryBuiltinScenarioIsByteIdentical) {
  for (const scenario::NamedScenario& named : scenario::builtin_scenarios()) {
    expect_modes_identical(named.spec.name,
                           scenario::expand(named.spec, named.axes));
  }
}

class ExampleCampaign : public ::testing::TestWithParam<const char*> {};

TEST_P(ExampleCampaign, IsByteIdenticalAcrossKernelModes) {
  const std::string path = std::string(SECBUS_REPO_DIR) +
                           "/examples/campaigns/" + GetParam() + ".json";
  campaign::CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(campaign::load_campaign_file(path, spec, &error)) << error;
  expect_modes_identical(GetParam(), campaign::expand_campaign(spec));
}

INSTANTIATE_TEST_SUITE_P(Examples, ExampleCampaign,
                         ::testing::Values("attack_grid", "ci_smoke",
                                           "placement_mesh"));

// One traced event, with the interned source name resolved to its text.
using Event = std::tuple<Cycle, int, std::string, TransactionId, Addr,
                         std::uint64_t>;

std::vector<Event> traced_events(const scenario::ScenarioSpec& spec,
                                 bool lockstep) {
  LockstepGuard guard(lockstep);
  std::vector<Event> events;
  scenario::RunHooks hooks;
  hooks.trace_capacity = std::size_t{1} << 20;  // whole run fits the ring
  hooks.inspect = [&events](soc::Soc& sys, const scenario::JobResult&) {
    ASSERT_LE(sys.trace().total_recorded(), std::size_t{1} << 20);
    for (const TraceEvent& ev : sys.trace().snapshot()) {
      events.emplace_back(ev.cycle, static_cast<int>(ev.kind), ev.source,
                          ev.trans, ev.addr, ev.detail);
    }
  };
  (void)scenario::run_scenario(spec, hooks);
  return events;
}

void expect_trace_identical(const scenario::ScenarioSpec& spec) {
  const std::vector<Event> oracle = traced_events(spec, /*lockstep=*/true);
  const std::vector<Event> fast = traced_events(spec, /*lockstep=*/false);
  ASSERT_FALSE(oracle.empty()) << spec.name;
  ASSERT_EQ(oracle.size(), fast.size()) << spec.name;
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(oracle[i], fast[i]) << spec.name << " event " << i;
  }
}

scenario::ScenarioSpec builtin(const char* name) {
  const scenario::NamedScenario* named = scenario::find_scenario(name);
  EXPECT_NE(named, nullptr) << name;
  return named != nullptr ? named->spec : scenario::ScenarioSpec{};
}

TEST(KernelModes, TracedMeshCipheredEventStreamIsIdentical) {
  expect_trace_identical(builtin("mesh2x2_ciphered"));
}

TEST(KernelModes, TracedExternalReplayEventStreamIsIdentical) {
  scenario::ScenarioSpec spec = builtin("external-replay");
  spec.soc.protection = soc::ProtectionLevel::kFull;
  expect_trace_identical(spec);
}

TEST(KernelModes, TracedFloodThrottledEventStreamIsIdentical) {
  expect_trace_identical(builtin("flood-throttled"));
}

// The DMA engine appears in no scenario, so it gets its own run: a DMA copy
// through the LCF.
std::string dma_run_metrics(bool lockstep) {
  LockstepGuard guard(lockstep);
  soc::SocConfig cfg = soc::tiny_test_config();
  cfg.dedicated_ip = true;
  soc::Soc system(cfg);
  system.start_dma(ip::DmaEngine::Job{system.plan().bram_scratch.base + 0x400,
                                      system.plan().shared_code.base, 256, 8});
  const soc::SocResults r = system.run(5'000'000);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(system.dma()->stats().bytes_copied, 256u);
  obs::Registry reg;
  system.snapshot_metrics(reg);
  return reg.to_json().dump();
}

TEST(KernelModes, DmaCopyThroughLcfIsIdentical) {
  EXPECT_EQ(dma_run_metrics(/*lockstep=*/true),
            dma_run_metrics(/*lockstep=*/false));
}

}  // namespace
}  // namespace secbus::sim
