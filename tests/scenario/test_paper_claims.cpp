// The paper's Section V cost claims, checked on the builtin design-space
// sweeps (the Section III detection claims live in tests/attack/). Each
// builtin runs exactly as `secbus_cli run <name>` would; the assertions are
// the trends the paper states, worded here as the data shows them.
//
// Table I area rows (LF/LCF registers, LUTs and BRAMs per rule count) are
// pinned in area_test_cost_model and are not repeated here.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"

namespace secbus::scenario {
namespace {

std::vector<JobResult> run_jobs(const std::vector<ScenarioSpec>& specs) {
  BatchOptions options;
  options.threads = 0;  // all hardware threads
  return run_batch(specs, options);
}

std::vector<JobResult> run_builtin(const NamedScenario& entry) {
  return run_jobs(expand(entry.spec, entry.axes));
}

const JobResult& job(const std::vector<JobResult>& jobs, std::size_t cpus,
                     std::string_view security) {
  for (const JobResult& j : jobs) {
    if (j.cpus == cpus && j.security == security) return j;
  }
  ADD_FAILURE() << "no job with cpus=" << cpus << ", security=" << security;
  return jobs.front();
}

// secured / plain execution cycles, minus one.
double cycle_overhead(const JobResult& secured, const JobResult& plain) {
  return static_cast<double>(secured.soc.cycles) /
             static_cast<double>(plain.soc.cycles) -
         1.0;
}

// centralized-scaling (plaintext memory isolates the check cost).
//
// The distributed design pays the same per-access check at every CPU count:
// 13 cycles on the Section V CPU LF, not the 12 of Table II, because its 5
// rules exceed the Security Builder's 4-rule calibration (12 + ceil(1/2)).
// The centralized manager's queue wait stays nearly flat (about 3-4 cycles
// from 2 to 6 CPUs) and its overhead relative to no security *falls* with
// the CPU count, because bus contention grows the unsecured latency too.
// What grows with the CPU count is the absolute latency gap between
// centralized and distributed checking.
TEST(PaperClaims, CentralizedGapGrowsWithCpus) {
  const NamedScenario* found = find_scenario("centralized-scaling");
  ASSERT_NE(found, nullptr);
  const NamedScenario& entry = *found;
  const std::vector<JobResult> jobs = run_builtin(entry);
  ASSERT_EQ(jobs.size(), entry.job_count());
  for (const JobResult& j : jobs) {
    EXPECT_TRUE(j.soc.completed) << j.variant;
  }

  const std::vector<std::size_t>& cpus = entry.axes.cpus;
  ASSERT_GE(cpus.size(), 2u);
  const sim::Cycle flat = job(jobs, cpus.front(), "distributed").sb_check_latency;
  EXPECT_EQ(flat, entry.spec.soc.sb_check_cycles + 1);
  double previous_gap = 0.0;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    const JobResult& dist = job(jobs, cpus[i], "distributed");
    const JobResult& cent = job(jobs, cpus[i], "centralized");
    EXPECT_EQ(dist.sb_check_latency, flat) << "cpus=" << cpus[i];
    const double gap =
        cent.soc.avg_access_latency - dist.soc.avg_access_latency;
    if (i > 0) {
      EXPECT_GT(gap, previous_gap) << "cpus=" << cpus[i];
    }
    previous_gap = gap;
  }
}

// line-size-sweep (full protection, 30% external traffic).
//
// Each doubling of the LCF line removes exactly one hash-tree level and
// never adds read-modify-writes. Every access still drags a whole line
// through the Confidentiality and Integrity Cores while the bus is held, so
// CC and IC cycles and end-to-end execution time all grow with line size.
// Small lines win for word-grained traffic; large lines only pay off for
// bulk streaming.
TEST(PaperClaims, LineSizeTradesTreeDepthForCryptoCycles) {
  const NamedScenario* found = find_scenario("line-size-sweep");
  ASSERT_NE(found, nullptr);
  const std::vector<JobResult> jobs = run_builtin(*found);
  ASSERT_GE(jobs.size(), 2u);
  for (const JobResult& j : jobs) {
    EXPECT_TRUE(j.soc.completed) << j.variant;
  }
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    const JobResult& small = jobs[i - 1];
    const JobResult& large = jobs[i];
    ASSERT_EQ(large.line_bytes, 2 * small.line_bytes) << large.variant;
    EXPECT_EQ(large.lcf.tree_depth + 1, small.lcf.tree_depth) << large.variant;
    EXPECT_LE(large.lcf.read_modify_writes, small.lcf.read_modify_writes)
        << large.variant;
    EXPECT_GT(large.lcf.cc_cycles, small.lcf.cc_cycles) << large.variant;
    EXPECT_GT(large.lcf.ic_cycles, small.lcf.ic_cycles) << large.variant;
    EXPECT_GT(large.soc.cycles, small.soc.cycles) << large.variant;
  }
}

// policy-scaling: "A more aggressive security policy will lead to a larger
// cost". The Security Builder is calibrated at 4 rules and adds one cycle
// per two rules beyond that; the Section V CPU LF starts at 5 rules.
TEST(PaperClaims, CheckLatencyTracksRuleCount) {
  constexpr std::uint64_t kCpuLfRules = 5;
  constexpr std::uint64_t kCalibratedRules = 4;
  const NamedScenario* found = find_scenario("policy-scaling");
  ASSERT_NE(found, nullptr);
  const NamedScenario& entry = *found;
  const std::vector<JobResult> jobs = run_builtin(entry);
  ASSERT_EQ(jobs.size(), entry.job_count());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobResult& j = jobs[i];
    EXPECT_TRUE(j.soc.completed) << j.variant;
    const std::uint64_t beyond = kCpuLfRules + j.extra_rules - kCalibratedRules;
    EXPECT_EQ(j.sb_check_latency,
              entry.spec.soc.sb_check_cycles + (beyond + 1) / 2)
        << j.variant;
    if (i > 0) {
      EXPECT_GE(j.soc.cycles, jobs[i - 1].soc.cycles) << j.variant;
    }
  }
}

// comm-ratio: "The impact of the protection mechanisms on the global
// execution time depends on the percentage of computation time versus
// communication time. Furthermore the latency overhead is also impacted by
// the percentage of internal communication versus external communication."
// External accesses pay CC and IC on top of the SB check, so the overhead
// rises with the external share.
TEST(PaperClaims, OverheadRisesWithExternalShare) {
  const NamedScenario* found = find_scenario("comm-ratio");
  ASSERT_NE(found, nullptr);
  const NamedScenario& entry = *found;
  const std::vector<JobResult> jobs = run_builtin(entry);
  const std::size_t n = entry.axes.external_fraction.size();
  ASSERT_GE(n, 2u);
  ASSERT_EQ(jobs.size(), 2 * n);
  // expand() crosses security (outer) over external_fraction (inner).
  double previous = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const JobResult& plain = jobs[i];
    const JobResult& secured = jobs[n + i];
    ASSERT_EQ(std::string_view(plain.security), "none");
    ASSERT_EQ(std::string_view(secured.security), "distributed");
    EXPECT_TRUE(plain.soc.completed) << plain.variant;
    EXPECT_TRUE(secured.soc.completed) << secured.variant;
    const double overhead = cycle_overhead(secured, plain);
    if (i > 0) {
      EXPECT_GT(overhead, previous) << secured.variant;
    }
    previous = overhead;
  }
}

// The same base at its 30% external share, with the compute gap between
// accesses widened: the firewalls only sit on the memory path, so the
// overhead falls as computation dominates communication.
TEST(PaperClaims, OverheadFallsWithComputeGap) {
  constexpr sim::Cycle kGaps[] = {0, 4, 16, 64, 256};
  const NamedScenario* found = find_scenario("comm-ratio");
  ASSERT_NE(found, nullptr);
  const NamedScenario& entry = *found;
  std::vector<ScenarioSpec> specs;
  for (const soc::SecurityMode security :
       {soc::SecurityMode::kNone, soc::SecurityMode::kDistributed}) {
    for (const sim::Cycle gap : kGaps) {
      ScenarioSpec spec = entry.spec;
      spec.soc.security = security;
      spec.soc.compute_min = gap;
      spec.soc.compute_max = gap + 4;
      spec.variant = std::string("security=") + to_string(security) +
                     ",gap=" + std::to_string(gap);
      specs.push_back(std::move(spec));
    }
  }
  const std::vector<JobResult> jobs = run_jobs(specs);
  const std::size_t n = std::size(kGaps);
  double previous = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const JobResult& plain = jobs[i];
    const JobResult& secured = jobs[n + i];
    EXPECT_TRUE(plain.soc.completed) << plain.variant;
    EXPECT_TRUE(secured.soc.completed) << secured.variant;
    const double overhead = cycle_overhead(secured, plain);
    if (i > 0) {
      EXPECT_LT(overhead, previous) << secured.variant;
    }
    previous = overhead;
  }
}

}  // namespace
}  // namespace secbus::scenario
