// secbus_perfbench: the measuring process of the repository benchmark.
//
// One process runs one workload in one mode and prints one JSON line as its
// last line of output; perfbench/run.py starts several of these per
// benchmark run and turns their lines into the benchmark's result. This
// program links libsecbus and calls public entry points only, and every
// host-time span is taken here, around a call into one layer.
//
// Every workload runs as a closed loop: one runner thread, and the next job
// starts when the previous one returns. A pass runs the workload's whole job
// list; a timed window runs whole passes.
//
// Modes:
//   setup    load, validate and expand the input, then one cold pass;
//            reports setup_s and the pass digest.
//   measure  setup, then untraced passes for --seconds; reports the
//            end-to-end metrics.
//   trace    setup with per-job count snapshots, an untraced window and a
//            traced window of --seconds/2 each; reports the per-layer
//            metrics and writes the spans as Chrome-trace JSON under --out.
//   counts   setup with per-job count snapshots only: the second process of
//            the exact-count self-check.
//
// Usage:
//   secbus_perfbench --mode setup|measure|trace|counts
//                    --workload attack_grid|ciphered_datapath|fabric_star32
//                    --seed N [--seconds S] [--campaign FILE] [--out DIR]
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "campaign/shard.hpp"
#include "campaign/telemetry.hpp"
#include "crypto/aes128.hpp"
#include "crypto/aes_modes.hpp"
#include "crypto/sha256.hpp"
#include "obs/registry.hpp"
#include "scenario/report.hpp"
#include "scenario/result_io.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "soc/presets.hpp"
#include "soc/soc.hpp"
#include "util/csv.hpp"
#include "util/fileio.hpp"
#include "util/json.hpp"

namespace {

using namespace secbus;
using Clock = std::chrono::steady_clock;
using scenario::JobResult;
using scenario::ScenarioSpec;
using util::Json;

// --- workload shapes --------------------------------------------------------

// ciphered_datapath: long benign distributed-mode jobs, each with its own
// seed and so its own LCF key. 72 distinct keys exceed the 64-entry setup
// cache, so a cyclic pass never hits it: the bypass workload for setup work.
constexpr std::size_t kCipheredJobs = 72;
constexpr std::uint64_t kCipheredTransactionsPerCpu = 1500;
// A 64 KiB protected region keeps the per-job format (every job misses the
// cache) a small share of the job, as the pilot shape intended.
constexpr std::uint64_t kCipheredProtectedBytes = 64 * 1024;
// fabric_star32: soc::star32_config() (32 CPUs, 4 star leaves, full
// protection), short enough per job that a pass of 32 jobs takes about 1.5 s.
constexpr std::size_t kStarJobs = 32;
constexpr std::uint64_t kStarTransactionsPerCpu = 30;
// A timed window runs whole passes until both --seconds and this many passes
// are reached, so every job's median is taken over several repeats.
constexpr std::size_t kMinTimedPasses = 5;

Clock::time_point g_epoch = Clock::now();

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double clock_ms(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

// CPU time of the runner thread (ms). The end-to-end times are CPU time: on a
// shared host, the time a thread spends descheduled is its neighbours' load,
// not the program's cost.
double thread_cpu_ms() { return clock_ms(CLOCK_THREAD_CPUTIME_ID); }

volatile std::uint64_t g_probe_sink = 0;

// Host-speed probe: a fixed ~0.25 ms of integer work with four independent
// dependency chains, timed in runner-thread CPU time. On a shared host the
// thread's speed drifts by 10-30% as neighbours load the core it runs on
// (wide, high-ILP code slows most, and so does the simulator), and the
// quiet speed itself moves between clock states from one process to the
// next; a probe next to each job measures how fast the host was at that
// moment. It calls no libsecbus code, so a change to the program never
// moves it.
double host_probe_ms() {
  const double c0 = thread_cpu_ms();
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  for (int i = 0; i < 85000; ++i) {
    a ^= a << 13; a ^= a >> 7; a ^= a << 17;
    b ^= b << 13; b ^= b >> 7; b ^= b << 17;
    c ^= c << 13; c ^= c >> 7; c ^= c << 17;
    d ^= d << 13; d ^= d >> 7; d ^= d << 17;
  }
  g_probe_sink = a + b + c + d;
  return thread_cpu_ms() - c0;
}

std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return fnv1a(&v, sizeof v, h);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Digest of a job's canonical result document: the correctness gate's unit.
std::uint64_t job_digest(const JobResult& r) {
  const std::string text = scenario::job_result_to_json(r).dump(0);
  return fnv1a(text.data(), text.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

// --- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  std::string campaign;         // report and shard file stem
  bool emits = false;           // full `campaign run` emission every pass
  campaign::CampaignSpec spec;  // emitting workloads re-expand it per pass
  std::vector<ScenarioSpec> jobs;
};

Json* member(Json& j, std::string_view key) {
  if (!j.is_object()) return nullptr;
  for (auto& [name, value] : j.members()) {
    if (name == key) return &value;
  }
  return nullptr;
}

bool load_attack_grid(const std::string& path, std::uint64_t seed,
                      Workload& w, std::string* error) {
  std::string text;
  if (!util::read_file(path, text, error)) return false;
  Json doc;
  if (!Json::parse(text, doc, error)) {
    *error = path + ": " + *error;
    return false;
  }
  // The seed argument replaces the file's base seed; the grid's "seeds"
  // count then derives every job seed from it.
  Json* base = member(doc, "base");
  Json* soc = base != nullptr ? member(*base, "soc") : nullptr;
  if (soc == nullptr) {
    *error = path + ": expected base.soc";
    return false;
  }
  soc->set("seed", Json::number(seed));
  if (!campaign::campaign_from_json(doc, w.spec, error)) return false;
  w.name = "attack_grid";
  w.campaign = w.spec.name;
  w.emits = true;
  w.jobs = campaign::expand_campaign(w.spec);
  return true;
}

ScenarioSpec generated_job(const char* name, std::size_t index,
                           soc::SocConfig cfg, std::uint64_t seed) {
  ScenarioSpec s;
  s.name = name;
  s.soc = std::move(cfg);
  s.soc.seed = scenario::derive_seed(seed, index);
  s.variant = "job=" + std::to_string(index);
  return s;
}

void make_ciphered_datapath(std::uint64_t seed, Workload& w) {
  w.name = "ciphered_datapath";
  w.campaign = "ciphered-datapath";
  // One job in three is cipher-only, and every other job is read-mostly, so
  // six consecutive jobs hold each protection x mix pair. Cipher-only jobs
  // all cost less than cipher+integrity ones; at one in three, the job-time
  // median falls inside a class instead of on the boundary between two.
  for (std::size_t i = 0; i < kCipheredJobs; ++i) {
    soc::SocConfig cfg = soc::section5_config();
    cfg.security = soc::SecurityMode::kDistributed;
    cfg.processors = 3;
    cfg.transactions_per_cpu = kCipheredTransactionsPerCpu;
    cfg.external_fraction = 0.6;
    cfg.ddr_protected_size = kCipheredProtectedBytes;
    cfg.protection = i % 3 == 0 ? soc::ProtectionLevel::kCipherOnly
                                : soc::ProtectionLevel::kFull;
    cfg.write_fraction = i % 2 == 0 ? 0.1 : 0.7;
    ScenarioSpec s = generated_job("ciphered-datapath", i, cfg, seed);
    s.variant += std::string(",protection=") + soc::to_string(cfg.protection) +
                 (cfg.write_fraction < 0.5 ? ",mix=read-mostly"
                                           : ",mix=write-heavy");
    w.jobs.push_back(std::move(s));
  }
}

void make_fabric_star32(std::uint64_t seed, Workload& w) {
  w.name = "fabric_star32";
  w.campaign = "fabric-star32";
  for (std::size_t i = 0; i < kStarJobs; ++i) {
    soc::SocConfig cfg = soc::star32_config();
    cfg.transactions_per_cpu = kStarTransactionsPerCpu;
    w.jobs.push_back(generated_job("fabric-star32", i, cfg, seed));
  }
}

// Load, validate and expand: the first thing a fresh run pays.
bool load_workload(const std::string& name, std::uint64_t seed,
                   const std::string& campaign_path, Workload& w,
                   std::string* error) {
  if (name == "attack_grid") {
    return load_attack_grid(campaign_path, seed, w, error);
  }
  if (name == "ciphered_datapath") {
    make_ciphered_datapath(seed, w);
  } else if (name == "fabric_star32") {
    make_fabric_star32(seed, w);
  } else {
    *error = "unknown workload '" + name + "'";
    return false;
  }
  for (const ScenarioSpec& job : w.jobs) {
    campaign::CampaignSpec one;
    one.name = w.campaign;
    one.base = job;
    if (!campaign::validate_campaign(one, error)) return false;
  }
  return true;
}

// --- exact work counts --------------------------------------------------------

// Simulated work counts of one job, read from the kernel accessors and from
// Soc::snapshot_metrics by string key. A key family that no longer exists
// leaves its `present` bit clear: absent, never a silent 0.
enum CountId : std::size_t {
  kBusTransactions,
  kBridgeCrossings,
  kBusBusy,
  kBusIdle,
  kWaitSamples,
  kLfChecks,
  kLfBlocked,
  kCcBytes,
  kIcHashes,
  kReadModifyWrites,
  kCountIds,
};

struct JobCounts {
  std::uint64_t cycles = 0;
  std::uint64_t ticks = 0;
  std::array<std::uint64_t, kCountIds> n{};
  std::uint32_t present = 0;
  bool wait_present = false;
  double wait_cycles = 0.0;  // sum over bus masters of mean x count

  bool operator==(const JobCounts&) const = default;
  [[nodiscard]] bool has(CountId id) const { return (present >> id) & 1u; }
};

bool starts_with(std::string_view s, std::string_view p) {
  return s.substr(0, p.size()) == p;
}

bool ends_with(std::string_view s, std::string_view p) {
  return s.size() >= p.size() && s.substr(s.size() - p.size()) == p;
}

JobCounts collect_counts(soc::Soc& soc) {
  JobCounts c;
  c.cycles = soc.kernel().now();
  c.ticks = soc.kernel().ticks_executed();
  obs::Registry reg;
  soc.snapshot_metrics(reg);
  for (const obs::Metric& m : reg.metrics()) {
    const std::string_view name = m.name;
    const auto add = [&](CountId id) {
      c.n[id] += m.count;
      c.present |= 1u << id;
    };
    if (starts_with(name, "bus.seg")) {
      if (name.find(".master.") != std::string_view::npos) {
        if (!m.is_counter && ends_with(name, ".wait_cycles.mean")) {
          const std::string count_key =
              std::string(name.substr(0, name.size() - 5)) + ".count";
          const std::uint64_t samples = reg.counter_value(count_key);
          c.wait_cycles += m.value * static_cast<double>(samples);
          c.wait_present = true;
        } else if (m.is_counter && ends_with(name, ".wait_cycles.count")) {
          add(kWaitSamples);
        }
      } else if (m.is_counter && ends_with(name, ".transactions")) {
        add(kBusTransactions);
      } else if (m.is_counter && ends_with(name, ".busy_cycles")) {
        add(kBusBusy);
      } else if (m.is_counter && ends_with(name, ".idle_cycles")) {
        add(kBusIdle);
      }
    } else if (!m.is_counter) {
      continue;
    } else if (starts_with(name, "bus.bridge.") &&
               ends_with(name, ".forwarded")) {
      add(kBridgeCrossings);
    } else if (starts_with(name, "core.lf_")) {
      if (ends_with(name, ".secpol_reqs")) add(kLfChecks);
      if (ends_with(name, ".blocked")) add(kLfBlocked);
    } else if (starts_with(name, "core.lcf_")) {
      if (ends_with(name, ".cc.bytes")) add(kCcBytes);
      if (ends_with(name, ".ic.hash_invocations")) add(kIcHashes);
      if (ends_with(name, ".read_modify_writes")) add(kReadModifyWrites);
    }
  }
  // A flat fabric has no bridges: zero crossings whenever the bus reports.
  if (c.has(kBusTransactions)) c.present |= 1u << kBridgeCrossings;
  return c;
}

std::uint64_t counts_digest(const std::vector<JobCounts>& all) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const JobCounts& c : all) {
    h = fold(h, c.cycles);
    h = fold(h, c.ticks);
    for (const std::uint64_t v : c.n) h = fold(h, v);
    h = fold(h, c.present);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &c.wait_cycles, sizeof bits);
    h = fold(h, c.wait_present ? bits : ~0ULL);
  }
  return h;
}

// --- one pass ---------------------------------------------------------------

// Host-time spans of the traced run, kept in memory and written as
// Chrome-trace JSON when the run ends.
struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  std::size_t pass;
  std::size_t job;  // kNoJob for pass-level spans
};
constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);

// Per-job layer times of a traced pass (ms).
struct JobLayers {
  double build = 0.0;     // standalone construction of the job's SocConfig
  double run = 0.0;       // run_scenario entry to inspect, minus build
  double teardown = 0.0;  // inspect return to run_scenario return
};

struct Pass {
  // Released once the gate has checked them (Pass::release), so a long
  // window's peak RSS stays that of one pass.
  std::vector<JobResult> results;
  std::vector<double> job_ms;      // host wall time per job, submission order
  std::vector<double> job_cpu_ms;  // runner-thread CPU time per job
  // Timed and traced passes: host_probe_ms() before each job and after the
  // last.
  std::vector<double> probe_ms;
  double probe_wall_ms = 0.0;  // traced passes: wall time of the probe spans
  std::vector<std::uint64_t> accesses;  // simulated accesses per job
  std::vector<JobLayers> layers;       // traced passes only
  std::vector<JobCounts> counts;       // counted and traced passes only
  double total_ms = 0.0;  // expand + jobs + emit
  double cpu_ms = 0.0;    // the same, in runner-thread CPU time, less probes
  double expand_ms = 0.0;
  double emit_ms = 0.0;
  std::uint64_t emit_bytes = 0;
  std::vector<JobResult> merged;  // emitting workloads: the shard round trip
  bool emit_ok = true;

  void release() {
    std::vector<JobResult>().swap(results);
    std::vector<JobResult>().swap(merged);
  }
};

struct EmitPaths {
  std::string cells, jobs, json, shard;
};

EmitPaths emit_paths(const std::string& out_dir, const std::string& stem) {
  const auto in_out = [&](const std::string& file) {
    return (std::filesystem::path(out_dir) / file).string();
  };
  return {in_out(stem + ".cells.csv"), in_out(stem + ".jobs.csv"),
          in_out(stem + ".campaign.json"),
          in_out(campaign::shard_file_name(stem, 0, 1))};
}

// `campaign run`'s emission, plus a one-shard result file written and merged
// back: CampaignReport::from, cells CSV, jobs CSV, campaign JSON.
bool emit_campaign(const Workload& w, const std::vector<ScenarioSpec>& specs,
                   const std::vector<JobResult>& results, const EmitPaths& out,
                   std::vector<JobResult>& merged) {
  const campaign::CampaignReport report =
      campaign::CampaignReport::from(w.campaign, results);
  util::CsvWriter cells(out.cells);
  campaign::write_cells_csv(cells, report);
  cells.flush();
  util::CsvWriter jobs(out.jobs);
  scenario::write_batch_csv(jobs, results);
  jobs.flush();
  std::string error;
  bool ok = cells.ok() && jobs.ok() &&
            util::write_file(out.json, campaign::campaign_json(report), &error);
  campaign::ShardResultFile file;
  file.campaign = w.campaign;
  file.jobs_total = results.size();
  file.grid_fp = campaign::grid_fingerprint(specs);
  file.results = results;
  ok = ok && campaign::write_shard_file(out.shard, file, &error);
  std::string merged_name;
  ok = ok && campaign::merge_shard_files({out.shard}, &merged_name, &merged,
                                         &error);
  if (!ok) std::fprintf(stderr, "emission failed: %s\n", error.c_str());
  return ok;
}

std::uint64_t file_bytes(const EmitPaths& out) {
  std::uint64_t total = 0;
  for (const std::string* p : {&out.cells, &out.jobs, &out.json, &out.shard}) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(*p, ec);
    if (!ec) total += size;
  }
  return total;
}

// How a pass runs its jobs: through run_batch with a host probe around each
// job (timed), through run_batch with a count snapshot per job (counted), or
// job by job with probes and spans around each layer call (traced).
enum class PassKind { kTimed, kCounted, kTraced };

class Runner {
 public:
  Runner(const Workload& w, std::string out_dir)
      : w_(w), out_(emit_paths(out_dir, w.campaign)) {}

  Pass run(PassKind kind, std::size_t pass_no, std::vector<Span>* spans) {
    Pass p;
    const double c0 = thread_cpu_ms();
    const auto t0 = Clock::now();
    std::vector<ScenarioSpec> expanded;
    if (w_.emits) expanded = campaign::expand_campaign(w_.spec);
    const std::vector<ScenarioSpec>& specs = w_.emits ? expanded : w_.jobs;
    const auto t1 = Clock::now();
    if (kind == PassKind::kTraced) {
      run_traced_jobs(specs, p, pass_no, *spans);
    } else {
      run_batch_jobs(specs, kind, p);
    }
    const auto t2 = Clock::now();
    for (const JobResult& r : p.results) {
      p.accesses.push_back(r.soc.transactions_ok + r.soc.transactions_failed);
    }
    if (w_.emits) p.emit_ok = emit_campaign(w_, specs, p.results, out_, p.merged);
    const auto t3 = Clock::now();
    p.cpu_ms = thread_cpu_ms() - c0;
    for (const double ms : p.probe_ms) p.cpu_ms -= ms;
    p.expand_ms = ms_between(t0, t1);
    p.emit_ms = ms_between(t2, t3);
    p.total_ms = ms_between(t0, t3);
    if (w_.emits) p.emit_bytes = file_bytes(out_);
    if (kind == PassKind::kTraced) {
      spans->push_back({"pass", t0, t3, pass_no, kNoJob});
      spans->push_back({"expand", t0, t1, pass_no, kNoJob});
      if (w_.emits) spans->push_back({"emit", t2, t3, pass_no, kNoJob});
    }
    return p;
  }

  // Re-derives every emitted artifact from the merged shard results and
  // compares it with the in-memory results and the bytes on disk. Marks the
  // jobs whose round trip differs (all of them when a report differs).
  void verify_emission(const Pass& p, const std::vector<std::uint64_t>& digests,
                       std::vector<char>& failed) const {
    const auto fail_all = [&] { std::fill(failed.begin(), failed.end(), 1); };
    if (!p.emit_ok || p.merged.size() != p.results.size()) return fail_all();
    for (std::size_t i = 0; i < p.merged.size(); ++i) {
      if (job_digest(p.merged[i]) != digests[i]) failed[i] = 1;
    }
    const campaign::CampaignReport report =
        campaign::CampaignReport::from(w_.campaign, p.merged);
    util::CsvWriter cells;
    campaign::write_cells_csv(cells, report);
    util::CsvWriter jobs;
    scenario::write_batch_csv(jobs, p.merged);
    std::string cells_disk, jobs_disk, json_disk;
    const bool read = util::read_file(out_.cells, cells_disk) &&
                      util::read_file(out_.jobs, jobs_disk) &&
                      util::read_file(out_.json, json_disk);
    if (!read || cells.buffer() != cells_disk || jobs.buffer() != jobs_disk ||
        campaign::campaign_json(report) != json_disk) {
      fail_all();
    }
  }

 private:
  void run_batch_jobs(const std::vector<ScenarioSpec>& specs, PassKind kind,
                      Pass& p) {
    scenario::BatchOptions batch;
    batch.threads = 1;
    if (kind == PassKind::kCounted) {
      // One runner thread: inspect calls arrive in submission order.
      batch.hooks.inspect = [&p](soc::Soc& soc, const JobResult&) {
        p.counts.push_back(collect_counts(soc));
      };
    }
    p.job_ms.assign(specs.size(), 0.0);
    p.job_cpu_ms.assign(specs.size(), 0.0);
    const bool probed = kind == PassKind::kTimed;
    if (probed) p.probe_ms.push_back(host_probe_ms());
    auto last = Clock::now();
    double last_cpu = thread_cpu_ms();
    batch.on_job_done = [&](const JobResult& r, std::size_t, std::size_t) {
      p.job_ms[r.index] = ms_between(last, Clock::now());
      p.job_cpu_ms[r.index] = thread_cpu_ms() - last_cpu;
      if (probed) p.probe_ms.push_back(host_probe_ms());
      last = Clock::now();
      last_cpu = thread_cpu_ms();
    };
    p.results = scenario::run_batch(specs, batch);
  }

  // Spans per job: probe (host_probe_ms() before the job; one more follows
  // the last job), build (standalone construction of the job's SocConfig),
  // build_probe (a second construction: the cache-warm cost run_scenario's
  // own build pays, subtracted from run), discard (destroying both), run
  // (run_scenario entry to inspect), snapshot (count collection inside
  // inspect) and teardown (inspect return to run_scenario return).
  void run_traced_jobs(const std::vector<ScenarioSpec>& specs, Pass& p,
                       std::size_t pass_no, std::vector<Span>& spans) {
    Clock::time_point inspect_begin, inspect_end;
    JobCounts counts;
    scenario::RunHooks hooks;
    hooks.inspect = [&](soc::Soc& soc, const JobResult&) {
      inspect_begin = Clock::now();
      counts = collect_counts(soc);
      inspect_end = Clock::now();
    };
    p.results.resize(specs.size());
    p.job_ms.assign(specs.size(), 0.0);
    p.job_cpu_ms.assign(specs.size(), 0.0);
    p.layers.assign(specs.size(), JobLayers{});
    p.counts.assign(specs.size(), JobCounts{});
    const auto probe = [&](std::size_t job) {
      const auto start = Clock::now();
      p.probe_ms.push_back(host_probe_ms());
      const auto end = Clock::now();
      p.probe_wall_ms += ms_between(start, end);
      spans.push_back({"probe", start, end, pass_no, job});
    };
    for (std::size_t i = 0; i < specs.size(); ++i) {
      probe(i);
      const double c0 = thread_cpu_ms();
      const auto t0 = Clock::now();
      std::optional<soc::Soc> built(std::in_place, specs[i].soc);
      const auto t1 = Clock::now();
      std::optional<soc::Soc> probe(std::in_place, specs[i].soc);
      const auto t2 = Clock::now();
      built.reset();
      probe.reset();
      const auto t3 = Clock::now();
      JobResult r = scenario::run_scenario(specs[i], hooks);
      const auto t4 = Clock::now();
      p.job_cpu_ms[i] = thread_cpu_ms() - c0;
      r.index = i;
      p.results[i] = std::move(r);
      p.counts[i] = counts;

      JobLayers& l = p.layers[i];
      l.build = ms_between(t0, t1);
      l.run = ms_between(t3, inspect_begin) - ms_between(t1, t2);
      l.teardown = ms_between(inspect_end, t4);
      p.job_ms[i] = ms_between(t0, t4);
      spans.push_back({"job", t0, t4, pass_no, i});
      spans.push_back({"build", t0, t1, pass_no, i});
      spans.push_back({"build_probe", t1, t2, pass_no, i});
      spans.push_back({"discard", t2, t3, pass_no, i});
      spans.push_back({"run", t3, inspect_begin, pass_no, i});
      spans.push_back({"snapshot", inspect_begin, inspect_end, pass_no, i});
      spans.push_back({"teardown", inspect_end, t4, pass_no, i});
    }
    probe(kNoJob);
  }

  const Workload& w_;
  EmitPaths out_;
};

// --- correctness gate -------------------------------------------------------

struct Gate {
  std::vector<std::uint64_t> reference;  // first pass, per job
  std::uint64_t pass_digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Checks one pass: every job completed, every digest equals the first
  // pass's, and (emitting workloads) the emission round trip reproduces the
  // in-memory results. The first pass becomes the reference.
  void check(const Runner& runner, const Workload& w, const Pass& p) {
    std::vector<std::uint64_t> digests(p.results.size());
    for (std::size_t i = 0; i < p.results.size(); ++i) {
      digests[i] = job_digest(p.results[i]);
    }
    std::vector<char> bad(p.results.size(), 0);
    if (reference.empty()) {
      reference = digests;
      pass_digest = 0xcbf29ce484222325ULL;
      for (const std::uint64_t d : digests) pass_digest = fold(pass_digest, d);
    }
    for (std::size_t i = 0; i < p.results.size(); ++i) {
      if (!p.results[i].soc.completed || i >= reference.size() ||
          digests[i] != reference[i]) {
        bad[i] = 1;
      }
    }
    if (w.emits) runner.verify_emission(p, digests, bad);
    attempted += p.results.size();
    for (const char b : bad) failed += b != 0 ? 1 : 0;
  }
};

// --- metrics helpers --------------------------------------------------------

// The timed figures are stated for a reference host on which one probe takes
// this long (about the quiet probe time of the 2.1 GHz Xeon VM the benchmark
// was sized on).
constexpr double kReferenceProbeMs = 0.25;

// Steady-state cost of one pass in runner-thread CPU time, on the reference
// host. Each job's time is divided by the mean of the probes just before and
// after it, which cancels how fast the host was while the job ran; the
// median of that over the timed passes, times kReferenceProbeMs, is the
// job's cost. The pass's work outside the jobs (expand, emission) is scaled
// the same way by its pass's median probe. Every job is deterministic, so
// all of its passes did the same work.
struct Steady {
  std::vector<double> job_ms;  // per job, in submission order
  double pass_ms = 0.0;
  double jobs_per_s = 0.0;
  double accesses_per_s = 0.0;
};

Steady steady(const std::vector<Pass>& passes) {
  Steady s;
  const std::size_t n = passes.front().job_cpu_ms.size();
  std::vector<std::vector<double>> per_job(n);
  std::vector<double> outside;
  for (const Pass& p : passes) {
    double jobs = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double probe = 0.5 * (p.probe_ms[i] + p.probe_ms[i + 1]);
      per_job[i].push_back(p.job_cpu_ms[i] / probe);
      jobs += p.job_cpu_ms[i];
    }
    outside.push_back(std::max(0.0, p.cpu_ms - jobs) / median(p.probe_ms));
  }
  for (const std::vector<double>& ratios : per_job) {
    s.job_ms.push_back(median(ratios) * kReferenceProbeMs);
    s.pass_ms += s.job_ms.back();
  }
  s.pass_ms += median(outside) * kReferenceProbeMs;
  std::uint64_t accesses = 0;
  for (const std::uint64_t a : passes.front().accesses) accesses += a;
  s.jobs_per_s = static_cast<double>(n) * 1e3 / s.pass_ms;
  s.accesses_per_s = static_cast<double>(accesses) * 1e3 / s.pass_ms;
  return s;
}

// Whole passes until both the wall-time budget and min_passes are met.
std::vector<Pass> timed_window(Runner& runner, const Workload& w, Gate& gate,
                               PassKind kind, double seconds,
                               std::size_t min_passes, std::size_t& pass_no,
                               std::vector<Span>* spans) {
  std::vector<Pass> passes;
  double elapsed_ms = 0.0;
  while (elapsed_ms < seconds * 1e3 || passes.size() < min_passes) {
    Pass p = runner.run(kind, pass_no++, spans);
    gate.check(runner, w, p);
    p.release();
    elapsed_ms += p.total_ms;
    passes.push_back(std::move(p));
  }
  return passes;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Process-wide setup-cache counters, read through the campaign telemetry
// registry by string key so the benchmark keeps building if the cache is
// removed; a vanished key reads as absent.
struct CacheCounters {
  std::optional<std::uint64_t> hits;
  std::optional<std::uint64_t> misses;
};

CacheCounters read_cache_counters() {
  campaign::ProgressSampler sampler;
  sampler.begin("perfbench", 0, 1);
  const obs::Registry reg =
      campaign::worker_metrics_snapshot(sampler.sample(0, 0, false));
  CacheCounters c;
  if (const obs::Metric* m = reg.find("core.format_cache.hits")) c.hits = m->count;
  if (const obs::Metric* m = reg.find("core.format_cache.misses")) {
    c.misses = m->count;
  }
  return c;
}

// Keeps the timed crypto calls' results observable.
volatile std::uint64_t g_crypto_sink = 0;

// Unit costs of the public crypto calls on the active backend at the
// workload's line size: median of 5 rounds of ~10 ms each.
template <typename Fn>
double unit_ns(Fn&& fn, std::size_t units_per_call) {
  std::vector<double> rounds;
  for (int round = 0; round < 5; ++round) {
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    auto t1 = t0;
    do {
      for (int k = 0; k < 256; ++k) fn();
      calls += 256;
      t1 = Clock::now();
    } while (ms_between(t0, t1) < 10.0);
    rounds.push_back(ms_between(t0, t1) * 1e6 /
                     static_cast<double>(calls * units_per_call));
  }
  return median(rounds);
}

double aes_ns_per_block(std::size_t line_bytes) {
  crypto::Aes128Key key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const crypto::Aes128 aes(key);
  std::vector<std::uint8_t> line(line_bytes, 0x5a);
  std::uint64_t addr = 0;
  const double ns = unit_ns(
      [&] {
        crypto::memory_xcrypt_line(aes, 0x1234, addr, 1, line, line);
        addr += line_bytes;
      },
      line_bytes / crypto::kAesBlockBytes);
  g_crypto_sink = g_crypto_sink + line[0];
  return ns;
}

double sha256_ns_per_call(std::size_t line_bytes) {
  std::vector<std::uint8_t> line(line_bytes, 0xa5);
  const double ns = unit_ns(
      [&] { line[0] = crypto::Sha256::digest(line)[0]; }, 1);
  g_crypto_sink = g_crypto_sink + line[0];
  return ns;
}

// --- modes ------------------------------------------------------------------

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 10.0;
  std::string campaign_path = "perfbench/workloads/attack_grid.json";
  std::string out_dir = ".perfbench_out";
};

void print_line(const Json& doc) { std::printf("%s\n", doc.dump(0).c_str()); }

// Everything one process holds for its workload: the input, the runner and
// the correctness gate, plus what setup measured.
struct Session {
  Workload w;
  std::optional<Runner> runner;
  Gate gate;
  double load_expand_ms = 0.0;
  // Process CPU time from start to the end of the cold pass, less its
  // probes, on the reference host when the cold pass was probed.
  double setup_s = 0.0;
  Pass cold;
};

bool do_setup(const Options& opt, PassKind kind, Session& s) {
  std::string error;
  const auto t0 = Clock::now();
  if (!load_workload(opt.workload, opt.seed, opt.campaign_path, s.w, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  const auto t1 = Clock::now();
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  s.runner.emplace(s.w, opt.out_dir);
  s.cold = s.runner->run(kind, 0, nullptr);
  s.load_expand_ms = ms_between(t0, t1);
  double setup_ms = clock_ms(CLOCK_PROCESS_CPUTIME_ID);
  if (!s.cold.probe_ms.empty()) {
    for (const double ms : s.cold.probe_ms) setup_ms -= ms;
    setup_ms *= kReferenceProbeMs / median(s.cold.probe_ms);
  }
  s.setup_s = setup_ms * 1e-3;
  s.gate.check(*s.runner, s.w, s.cold);
  s.cold.release();
  return true;
}

Json result_header(const Options& opt, const Gate& gate) {
  Json doc = Json::object();
  doc.set("mode", Json::string(opt.mode));
  doc.set("workload", Json::string(opt.workload));
  doc.set("seed", Json::number(opt.seed));
  doc.set("pass_digest", Json::string(hex64(gate.pass_digest)));
  doc.set("attempted", Json::number(gate.attempted));
  doc.set("failed", Json::number(gate.failed));
  return doc;
}

int mode_setup(const Options& opt) {
  Session s;
  if (!do_setup(opt, PassKind::kTimed, s)) return 2;
  Json doc = result_header(opt, s.gate);
  doc.set("setup_s", Json::number(s.setup_s));
  print_line(doc);
  return 0;
}

int mode_measure(const Options& opt) {
  Session s;
  if (!do_setup(opt, PassKind::kTimed, s)) return 2;
  std::size_t pass_no = 1;
  const std::vector<Pass> passes =
      timed_window(*s.runner, s.w, s.gate, PassKind::kTimed, opt.seconds,
                   kMinTimedPasses, pass_no, nullptr);
  const Steady t = steady(passes);
  Json doc = result_header(opt, s.gate);
  doc.set("setup_s", Json::number(s.setup_s));
  doc.set("jobs_per_s", Json::number(t.jobs_per_s));
  doc.set("sim_accesses_per_s", Json::number(t.accesses_per_s));
  doc.set("job_ms_p50", Json::number(percentile(t.job_ms, 0.50)));
  doc.set("job_ms_p95", Json::number(percentile(t.job_ms, 0.95)));
  doc.set("jobs", Json::number(static_cast<std::uint64_t>(t.job_ms.size())));
  doc.set("passes", Json::number(static_cast<std::uint64_t>(passes.size())));
  doc.set("peak_rss_mib", Json::number(peak_rss_mib()));
  print_line(doc);
  return 0;
}

// Totals of a counted pass; the LCF work is split by the job's read/write
// mix. Keys whose registry family is absent are left out.
Json count_totals(const std::vector<ScenarioSpec>& specs,
                  const std::vector<JobCounts>& counts) {
  JobCounts total;
  std::array<std::array<std::uint64_t, kCountIds>, 2> by_mix{};
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const JobCounts& c = counts[i];
    total.cycles += c.cycles;
    total.ticks += c.ticks;
    total.wait_cycles += c.wait_cycles;
    total.present |= c.present;
    const int mix = specs[i].soc.write_fraction < 0.5 ? 0 : 1;
    for (std::size_t k = 0; k < kCountIds; ++k) {
      total.n[k] += c.n[k];
      by_mix[mix][k] += c.n[k];
    }
  }
  Json j = Json::object();
  j.set("sim.cycles", Json::number(total.cycles));
  j.set("sim.ticks", Json::number(total.ticks));
  const auto put = [&](const char* key, CountId id) {
    if (total.has(id)) j.set(key, Json::number(total.n[id]));
  };
  put("bus.transactions", kBusTransactions);
  put("bus.bridge_crossings", kBridgeCrossings);
  put("bus.busy_cycles", kBusBusy);
  put("bus.idle_cycles", kBusIdle);
  put("bus.wait_samples", kWaitSamples);
  if (total.has(kWaitSamples)) {
    j.set("bus.wait_cycles", Json::number(total.wait_cycles));
  }
  put("core.lf.checks", kLfChecks);
  put("core.lf.blocked", kLfBlocked);
  const auto put_mix = [&](const std::string& key, CountId id) {
    if (!total.has(id)) return;
    j.set(key + ".read_mostly", Json::number(by_mix[0][id]));
    j.set(key + ".write_heavy", Json::number(by_mix[1][id]));
  };
  put_mix("core.lcf.cc_bytes", kCcBytes);
  put_mix("core.lcf.ic_hash_invocations", kIcHashes);
  put_mix("core.lcf.read_modify_writes", kReadModifyWrites);
  return j;
}

int mode_counts(const Options& opt) {
  Session s;
  if (!do_setup(opt, PassKind::kCounted, s)) return 2;
  Json doc = result_header(opt, s.gate);
  doc.set("count_digest", Json::string(hex64(counts_digest(s.cold.counts))));
  doc.set("counts", count_totals(s.w.jobs, s.cold.counts));
  print_line(doc);
  return 0;
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  const auto us = [](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - g_epoch).count();
  };
  Json events = Json::array();
  for (const Span& s : spans) {
    Json e = Json::object();
    e.set("name", Json::string(s.name));
    e.set("cat", Json::string("perfbench"));
    e.set("ph", Json::string("X"));
    e.set("ts", Json::number(us(s.start)));
    e.set("dur", Json::number(us(s.end) - us(s.start)));
    e.set("pid", Json::number(std::uint64_t{1}));
    e.set("tid", Json::number(std::uint64_t{1}));
    Json args = Json::object();
    args.set("pass", Json::number(static_cast<std::uint64_t>(s.pass)));
    if (s.job != kNoJob) {
      args.set("job", Json::number(static_cast<std::uint64_t>(s.job)));
    }
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", Json::string("ms"));
  return util::write_file(path, doc.dump(0));
}

struct Layer {
  std::string name;
  double value;
  const char* unit;
};

int mode_trace(const Options& opt) {
  Session s;
  const CacheCounters cache0 = read_cache_counters();
  if (!do_setup(opt, PassKind::kCounted, s)) return 2;
  const std::vector<JobCounts>& reference = s.cold.counts;
  const CacheCounters cache1 = read_cache_counters();

  std::size_t pass_no = 1;
  const std::vector<Pass> untraced =
      timed_window(*s.runner, s.w, s.gate, PassKind::kTimed, opt.seconds / 2, 1,
                   pass_no, nullptr);
  const CacheCounters cache2 = read_cache_counters();
  std::vector<Span> spans;
  const std::vector<Pass> traced = timed_window(
      *s.runner, s.w, s.gate, PassKind::kTraced, opt.seconds / 2, 1, pass_no, &spans);

  // Exact counts must repeat across passes: every traced job against the
  // counted cold pass.
  std::uint64_t count_mismatches = 0;
  std::vector<double> build_ms, run_ms, teardown_ms;
  double build_sum = 0, run_sum = 0, teardown_sum = 0, job_sum = 0;
  double named_sum = 0, pass_sum = 0, emit_sum = 0;
  std::vector<double> emit_ms;
  double run_ns = 0, cycles = 0, ticks = 0;
  std::uint64_t cc_blocks = 0, ic_hashes = 0;
  bool have_crypto_counts = false;  // any traced job reports CC and IC work
  for (const Pass& p : traced) {
    pass_sum += p.total_ms;
    emit_sum += p.emit_ms;
    emit_ms.push_back(p.emit_ms);
    named_sum += p.expand_ms + p.emit_ms + p.probe_wall_ms;
    for (std::size_t i = 0; i < p.job_ms.size(); ++i) {
      const JobLayers& l = p.layers[i];
      const JobCounts& c = p.counts[i];
      if (i >= reference.size() || !(c == reference[i])) ++count_mismatches;
      build_ms.push_back(l.build);
      run_ms.push_back(l.run);
      teardown_ms.push_back(l.teardown);
      build_sum += l.build;
      run_sum += l.run;
      teardown_sum += l.teardown;
      job_sum += l.build + l.run + l.teardown;
      named_sum += p.job_ms[i];
      run_ns += l.run * 1e6;
      cycles += static_cast<double>(c.cycles);
      ticks += static_cast<double>(c.ticks);
      have_crypto_counts =
          have_crypto_counts || (c.has(kCcBytes) && c.has(kIcHashes));
      cc_blocks += c.n[kCcBytes] / crypto::kAesBlockBytes;
      ic_hashes += c.n[kIcHashes];
    }
  }
  s.gate.failed += count_mismatches;
  const std::size_t line_bytes = s.w.jobs.front().soc.line_bytes;
  const double aes_ns = aes_ns_per_block(line_bytes);
  const double sha_ns = sha256_ns_per_call(line_bytes);
  const double crypto_ops_ns = static_cast<double>(cc_blocks) * aes_ns +
                               static_cast<double>(ic_hashes) * sha_ns;

  const Steady t_untraced = steady(untraced);
  const Steady t_traced = steady(traced);
  const Json totals = count_totals(s.w.jobs, reference);
  const auto total = [&](const char* key) -> std::optional<double> {
    const Json* v = totals.find(key);
    if (v == nullptr) return std::nullopt;
    return v->as_double();
  };

  std::vector<Layer> layers;
  const auto add = [&](std::string name, std::optional<double> v,
                       const char* unit) {
    if (v.has_value()) layers.push_back({std::move(name), *v, unit});
  };
  // Workloads without an emission stage report 0 for it (see README).
  const double emit_per_pass = s.w.emits ? median(emit_ms) : 0.0;
  add("campaign.load_expand_ms", s.load_expand_ms, "ms");
  add("campaign.emit_ms_per_pass", emit_per_pass, "ms");
  add("campaign.emit_share", s.w.emits ? emit_sum / pass_sum : 0.0, "ratio");
  add("campaign.emit_bytes",
      static_cast<double>(s.w.emits ? traced.front().emit_bytes : 0), "bytes");
  add("soc.build_ms_p50", percentile(build_ms, 0.5), "ms");
  add("soc.build_share", build_sum / job_sum, "ratio");
  add("soc.teardown_ms_p50", percentile(teardown_ms, 0.5), "ms");
  add("sim.run_ms_p50", percentile(run_ms, 0.5), "ms");
  add("sim.cycles", total("sim.cycles"), "cycles");
  add("sim.ticks_per_cycle",
      *total("sim.ticks") / std::max(1.0, *total("sim.cycles")), "ticks/cycle");
  add("sim.ns_per_cycle", run_ns / std::max(1.0, cycles), "ns");
  add("sim.ns_per_tick", run_ns / std::max(1.0, ticks), "ns");
  add("bus.transactions", total("bus.transactions"), "count");
  add("bus.bridge_crossings", total("bus.bridge_crossings"), "count");
  if (const auto samples = total("bus.wait_samples"); samples && *samples > 0) {
    add("bus.wait_cycles_mean", *total("bus.wait_cycles") / *samples, "cycles");
  }
  if (const auto busy = total("bus.busy_cycles"), idle = total("bus.idle_cycles");
      busy && idle && *busy + *idle > 0) {
    add("bus.occupancy", *busy / (*busy + *idle), "ratio");
  }
  add("core.lf.checks", total("core.lf.checks"), "count");
  add("core.lf.blocked", total("core.lf.blocked"), "count");
  for (const char* key :
       {"core.lcf.cc_bytes", "core.lcf.ic_hash_invocations",
        "core.lcf.read_modify_writes"}) {
    for (const char* mix : {".read_mostly", ".write_heavy"}) {
      const std::string name = std::string(key) + mix;
      add(name, total(name.c_str()),
          std::string_view(key) == "core.lcf.cc_bytes" ? "bytes" : "count");
    }
  }
  add("crypto.aes_ns_per_block", aes_ns, "ns");
  add("crypto.sha256_ns_per_call", sha_ns, "ns");
  if (have_crypto_counts) {
    add("crypto.est_share", crypto_ops_ns / std::max(1.0, run_ns), "ratio");
  }
  add("trace.overhead_ratio", t_traced.jobs_per_s / t_untraced.jobs_per_s,
      "ratio");
  add("trace.unattributed_share", (pass_sum - named_sum) / pass_sum, "ratio");

  // Table-only rows: the setup cache (may vanish) and context for the
  // split above.
  std::vector<Layer> extra;
  if (cache1.hits && cache1.misses && cache2.hits && cache2.misses &&
      cache0.hits && cache0.misses) {
    const double hits = static_cast<double>(*cache2.hits - *cache1.hits);
    const double lookups =
        hits + static_cast<double>(*cache2.misses - *cache1.misses);
    extra.push_back({"core.format_cache.hits", hits, "count"});
    extra.push_back({"core.format_cache.lookups", lookups, "count"});
    extra.push_back({"core.format_cache.hit_ratio",
                     lookups > 0 ? hits / lookups : 0.0, "ratio"});
    extra.push_back({"core.format_cache.cold_pass_hits",
                     static_cast<double>(*cache1.hits - *cache0.hits), "count"});
  } else {
    std::printf("core.format_cache.*: absent (telemetry keys not found)\n");
  }
  extra.push_back({"sim.run_share", run_sum / job_sum, "ratio"});
  extra.push_back({"soc.teardown_share", teardown_sum / job_sum, "ratio"});
  extra.push_back({"untraced.jobs_per_s", t_untraced.jobs_per_s, "1/s"});
  extra.push_back({"traced.jobs_per_s", t_traced.jobs_per_s, "1/s"});
  extra.push_back({"traced.jobs", static_cast<double>(build_ms.size()), "count"});

  std::printf("per-layer table: %s seed %llu (%zu untraced + %zu traced "
              "passes, %zu jobs/pass)\n",
              s.w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              untraced.size(), traced.size(), s.w.jobs.size());
  for (const std::vector<Layer>* rows : {&layers, &extra}) {
    for (const Layer& l : *rows) {
      std::printf("  %-40s %16.6g %s\n", l.name.c_str(), l.value, l.unit);
    }
  }
  if (!s.w.emits) {
    std::printf("  campaign.emit_*: absent (no emission stage in %s)\n",
                s.w.name.c_str());
  }
  const std::string trace_path =
      (std::filesystem::path(opt.out_dir) /
       (s.w.name + ".seed" + std::to_string(opt.seed) + ".trace.json"))
          .string();
  if (!write_chrome_trace(trace_path, spans)) {
    std::fprintf(stderr, "error: cannot write %s\n", trace_path.c_str());
    return 2;
  }
  std::printf("trace: %s (%zu spans)\n", trace_path.c_str(), spans.size());

  Json doc = result_header(opt, s.gate);
  doc.set("count_digest", Json::string(hex64(counts_digest(reference))));
  doc.set("count_mismatches", Json::number(count_mismatches));
  doc.set("counts", totals);
  Json metrics = Json::object();
  for (const Layer& l : layers) {
    Json m = Json::object();
    m.set("value", Json::number(l.value));
    m.set("unit", Json::string(l.unit));
    metrics.set(l.name, std::move(m));
  }
  doc.set("metrics", std::move(metrics));
  print_line(doc);
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: secbus_perfbench --mode setup|measure|trace|counts "
               "--workload NAME --seed N [--seconds S] [--campaign FILE] "
               "[--out DIR]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  g_epoch = Clock::now();
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--mode") {
      opt.mode = value;
    } else if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage();
      opt.have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(opt.seconds > 0)) usage();
    } else if (arg == "--campaign") {
      opt.campaign_path = value;
    } else if (arg == "--out") {
      opt.out_dir = value;
    } else {
      usage();
    }
  }
  if (opt.workload.empty() || !opt.have_seed) usage();
  if (opt.mode == "setup") return mode_setup(opt);
  if (opt.mode == "measure") return mode_measure(opt);
  if (opt.mode == "trace") return mode_trace(opt);
  if (opt.mode == "counts") return mode_counts(opt);
  usage();
}
