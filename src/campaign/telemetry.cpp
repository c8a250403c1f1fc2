#include "campaign/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <utility>

#include "core/format_cache.hpp"
#include "crypto/backend.hpp"
#include "net/netstats.hpp"

namespace secbus::campaign {

namespace {

using util::Json;

}  // namespace

Json progress_record_to_json(const ProgressRecord& r) {
  Json j = Json::object();
  j.set("campaign", Json::string(r.campaign));
  j.set("shard", Json::number(static_cast<std::uint64_t>(r.shard)));
  j.set("shards", Json::number(static_cast<std::uint64_t>(r.shards)));
  j.set("done", Json::number(static_cast<std::uint64_t>(r.done)));
  j.set("total", Json::number(static_cast<std::uint64_t>(r.total)));
  j.set("elapsed_ms", Json::number(r.elapsed_ms));
  j.set("jobs_per_sec", Json::number(r.jobs_per_sec));
  j.set("format_cache_hits", Json::number(r.format_cache_hits));
  j.set("format_cache_misses", Json::number(r.format_cache_misses));
  j.set("finished", Json::boolean(r.finished));
  return j;
}

bool progress_record_from_json(const Json& j, ProgressRecord& out) {
  if (!j.is_object()) return false;
  ProgressRecord r;
  const Json* campaign = j.find("campaign");
  if (campaign == nullptr || !campaign->is_string()) return false;
  r.campaign = campaign->as_string();
  const auto u64 = [&](const char* name, std::uint64_t& value) {
    const Json* v = j.find(name);
    return v != nullptr && v->to_u64(value);
  };
  std::uint64_t u = 0;
  if (!u64("shard", u)) return false;
  r.shard = static_cast<std::size_t>(u);
  if (!u64("shards", u) || u == 0) return false;
  r.shards = static_cast<std::size_t>(u);
  if (!u64("done", u)) return false;
  r.done = static_cast<std::size_t>(u);
  if (!u64("total", u)) return false;
  r.total = static_cast<std::size_t>(u);
  if (!u64("elapsed_ms", r.elapsed_ms)) return false;
  const Json* jps = j.find("jobs_per_sec");
  if (jps == nullptr || !jps->is_number()) return false;
  r.jobs_per_sec = jps->as_double();
  if (!u64("format_cache_hits", r.format_cache_hits)) return false;
  if (!u64("format_cache_misses", r.format_cache_misses)) return false;
  const Json* finished = j.find("finished");
  if (finished == nullptr || !finished->is_bool()) return false;
  r.finished = finished->as_bool();
  out = std::move(r);
  return true;
}

std::string progress_file_name(const std::string& campaign, std::size_t shard,
                               std::size_t shards) {
  return campaign + ".shard-" + std::to_string(shard) + "-of-" +
         std::to_string(shards) + ".progress.jsonl";
}

bool parse_progress_file_name(const std::string& file_name,
                              std::string& campaign, std::size_t& shard,
                              std::size_t& shards) {
  constexpr std::string_view kSuffix = ".progress.jsonl";
  if (file_name.size() <= kSuffix.size()) return false;
  const std::string_view name(file_name);
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) return false;
  const std::string_view stem = name.substr(0, name.size() - kSuffix.size());

  const std::size_t marker = stem.rfind(".shard-");
  if (marker == std::string_view::npos || marker == 0) return false;
  const std::string_view selector = stem.substr(marker + 7);  // "<i>-of-<N>"
  const std::size_t sep = selector.find("-of-");
  if (sep == std::string_view::npos) return false;

  const auto parse_num = [](std::string_view text, std::size_t& out_value) {
    if (text.empty()) return false;
    std::size_t value = 0;
    for (const char c : text) {
      if (c < '0' || c > '9') return false;
      value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    out_value = value;
    return true;
  };
  std::size_t i = 0;
  std::size_t n = 0;
  if (!parse_num(selector.substr(0, sep), i) ||
      !parse_num(selector.substr(sep + 4), n) || n == 0 || i >= n) {
    return false;
  }
  campaign = std::string(stem.substr(0, marker));
  shard = i;
  shards = n;
  return true;
}

// --- ProgressSampler --------------------------------------------------------

void ProgressSampler::begin(std::string campaign, std::size_t shard,
                            std::size_t shards) {
  campaign_ = std::move(campaign);
  shard_ = shard;
  shards_ = shards;
  baseline_done_ = 0;
  began_at_ = std::chrono::steady_clock::now();
}

std::uint64_t ProgressSampler::elapsed_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - began_at_)
          .count());
}

ProgressRecord ProgressSampler::sample(std::size_t done, std::size_t total,
                                       bool finished) const {
  ProgressRecord r;
  r.campaign = campaign_;
  r.shard = shard_;
  r.shards = shards_;
  r.done = done;
  r.total = total;
  r.elapsed_ms = elapsed_ms();
  // Throughput over the work this process actually did: resumed jobs were
  // restored instantly from the checkpoint and would inflate the rate.
  const std::size_t executed =
      done >= baseline_done_ ? done - baseline_done_ : 0;
  r.jobs_per_sec = r.elapsed_ms > 0
                       ? static_cast<double>(executed) * 1000.0 /
                             static_cast<double>(r.elapsed_ms)
                       : 0.0;
  const core::FormatCache::Stats fc = core::FormatCache::instance().stats();
  r.format_cache_hits = fc.hits;
  r.format_cache_misses = fc.misses;
  r.finished = finished;
  return r;
}

// --- ProgressWriter ---------------------------------------------------------

bool ProgressWriter::open(const std::string& path, std::string campaign,
                          std::size_t shard, std::size_t shards,
                          std::uint64_t min_interval_ms) {
  const std::lock_guard<std::mutex> lock(mutex_);
  sampler_.begin(std::move(campaign), shard, shards);
  min_interval_ms_ = min_interval_ms;
  last_write_ms_ = 0;
  wrote_any_ = false;
  have_baseline_ = false;
  return writer_.open(path);
}

void ProgressWriter::append_locked(std::size_t done, std::size_t total,
                                   bool finished) {
  const ProgressRecord r = sampler_.sample(done, total, finished);
  writer_.append(progress_record_to_json(r));
  wrote_any_ = true;
  last_write_ms_ = r.elapsed_ms;
}

void ProgressWriter::update(std::size_t done, std::size_t total) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!writer_.is_open()) return;
  if (!have_baseline_) {
    // First sample: whatever was already done was checkpoint-resumed, not
    // executed by this process.
    have_baseline_ = true;
    sampler_.set_baseline(done > 0 ? done - 1 : 0);
  }
  if (wrote_any_ && sampler_.elapsed_ms() - last_write_ms_ < min_interval_ms_) {
    return;
  }
  append_locked(done, total, false);
}

void ProgressWriter::finish(std::size_t done, std::size_t total) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!writer_.is_open()) return;
  if (!have_baseline_) {
    have_baseline_ = true;
    sampler_.set_baseline(done);  // nothing executed: resumed-complete shard
  }
  append_locked(done, total, true);
}

void ProgressWriter::append_record(const ProgressRecord& record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!writer_.is_open()) return;
  writer_.append(progress_record_to_json(record));
  wrote_any_ = true;
}

bool ProgressWriter::ok() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return writer_.ok();
}

void ProgressWriter::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  writer_.close();
}

// --- readers ----------------------------------------------------------------

bool read_progress_file(const std::string& path,
                        std::vector<ProgressRecord>& out, std::string* error) {
  std::vector<Json> records;
  if (!util::read_jsonl(path, records, error)) return false;
  out.clear();
  out.reserve(records.size());
  for (const Json& j : records) {
    ProgressRecord r;
    if (progress_record_from_json(j, r)) out.push_back(std::move(r));
  }
  return true;
}

bool scan_progress_dir(const std::string& dir, std::vector<ShardProgress>& out,
                       std::string* error) {
  namespace fs = std::filesystem;
  out.clear();
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    if (error != nullptr) *error = dir + ": " + ec.message();
    return false;
  }
  constexpr std::string_view kSuffix = ".progress.jsonl";
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() <= kSuffix.size() ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0) {
      continue;
    }
    paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());  // directory order is unspecified

  const auto now = fs::file_time_type::clock::now();
  for (const std::string& path : paths) {
    ShardProgress sp;
    sp.path = path;
    const auto mtime = fs::last_write_time(path, ec);
    if (!ec && now > mtime) {
      sp.age_ms = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(now - mtime)
              .count());
    }
    std::vector<ProgressRecord> records;
    if (read_progress_file(path, records) && !records.empty()) {
      sp.parsed = true;
      sp.last = records.back();
      sp.records = records.size();
    } else {
      // Unreadable, empty, or all-corrupt sidecar: keep the row with the
      // identity the file name still carries so the shard shows up as
      // "unknown" instead of silently disappearing from the table.
      const std::string file_name = fs::path(path).filename().string();
      if (!parse_progress_file_name(file_name, sp.last.campaign,
                                    sp.last.shard, sp.last.shards)) {
        sp.last.campaign = file_name;
        sp.last.shard = 0;
        sp.last.shards = 0;
      }
    }
    out.push_back(std::move(sp));
  }
  std::sort(out.begin(), out.end(),
            [](const ShardProgress& a, const ShardProgress& b) {
              if (a.last.campaign != b.last.campaign) {
                return a.last.campaign < b.last.campaign;
              }
              return a.last.shard < b.last.shard;
            });
  return true;
}

std::string render_campaign_status(const std::vector<ShardProgress>& shards,
                                   std::uint64_t stale_after_ms) {
  std::string out;
  if (shards.empty()) {
    out = "no progress files found\n";
    return out;
  }
  char line[256];
  std::snprintf(line, sizeof line, "%-20s %6s %12s %8s %10s %12s %9s\n",
                "campaign", "shard", "done/total", "pct", "jobs/s",
                "cache-hit%", "state");
  out += line;

  std::size_t done_sum = 0;
  std::size_t total_sum = 0;
  std::size_t finished_count = 0;
  std::size_t unknown_count = 0;
  for (const ShardProgress& sp : shards) {
    const ProgressRecord& r = sp.last;
    if (!sp.parsed) {
      ++unknown_count;
      std::snprintf(line, sizeof line,
                    "%-20s %6zu %12s %8s %10s %12s %9s\n", r.campaign.c_str(),
                    r.shard, "-/-", "-", "-", "-", "unknown");
      out += line;
      continue;
    }
    const double pct =
        r.total > 0
            ? 100.0 * static_cast<double>(r.done) / static_cast<double>(r.total)
            : 100.0;
    const std::uint64_t lookups = r.format_cache_hits + r.format_cache_misses;
    const double hit_pct =
        lookups > 0 ? 100.0 * static_cast<double>(r.format_cache_hits) /
                          static_cast<double>(lookups)
                    : 0.0;
    const char* state = r.finished ? "finished"
                        : sp.age_ms > stale_after_ms ? "stale"
                                                     : "running";
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%zu/%zu", r.done, r.total);
    std::snprintf(line, sizeof line,
                  "%-20s %6zu %12s %7.1f%% %10.2f %11.1f%% %9s\n",
                  r.campaign.c_str(), r.shard, ratio, pct, r.jobs_per_sec,
                  hit_pct, state);
    out += line;
    done_sum += r.done;
    total_sum += r.total;
    if (r.finished) ++finished_count;
  }

  std::snprintf(line, sizeof line,
                "total: %zu/%zu jobs done across %zu shard(s), %zu finished",
                done_sum, total_sum, shards.size(), finished_count);
  out += line;
  if (unknown_count > 0) {
    std::snprintf(line, sizeof line, ", %zu unknown", unknown_count);
    out += line;
  }
  out += '\n';
  return out;
}

// --- fleet observability ----------------------------------------------------

obs::Registry worker_metrics_snapshot(const ProgressRecord& progress) {
  obs::Registry reg;
  reg.counter("worker.jobs_done", progress.done);
  reg.counter("worker.jobs_total", progress.total);
  reg.counter("worker.elapsed_ms", progress.elapsed_ms);
  reg.gauge("worker.jobs_per_sec", progress.jobs_per_sec);
  reg.counter("core.format_cache.hits", progress.format_cache_hits);
  reg.counter("core.format_cache.misses", progress.format_cache_misses);
  const std::uint64_t lookups =
      progress.format_cache_hits + progress.format_cache_misses;
  reg.gauge("core.format_cache.hit_rate",
            lookups > 0 ? static_cast<double>(progress.format_cache_hits) /
                              static_cast<double>(lookups)
                        : 0.0);
  const crypto::Datapaths& datapaths = crypto::datapaths();
  reg.counter("crypto.hw_datapaths",
              (datapaths.aes == crypto::AesImpl::kAesni ? 1u : 0u) |
                  (datapaths.sha == crypto::ShaImpl::kShaNi ? 2u : 0u));
  net::netstats_contribute(reg);
  return reg;
}

namespace {

// "+12.3s" from server-relative milliseconds.
std::string rel_seconds(std::uint64_t ms) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "+%.1fs",
                static_cast<double>(ms) / 1000.0);
  return buf;
}

std::uint64_t u64_or(const Json& j, const char* name, std::uint64_t fallback) {
  const Json* v = j.find(name);
  std::uint64_t out = fallback;
  if (v == nullptr || !v->to_u64(out)) return fallback;
  return out;
}

std::string string_or(const Json& j, const char* name,
                      const std::string& fallback) {
  const Json* v = j.find(name);
  return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

}  // namespace

std::string render_fleet_top(const Json& status) {
  if (!status.is_object()) return "malformed status document\n";
  std::string out;
  char line[256];

  const std::uint64_t t_ms = u64_or(status, "t_ms", 0);
  std::snprintf(line, sizeof line,
                "fleet %s: %llu/%llu shard(s) done (%llu leased, %llu "
                "pending), %llu job(s), %llu reassignment(s), t=%s%s\n",
                string_or(status, "campaign", "?").c_str(),
                static_cast<unsigned long long>(u64_or(status, "done", 0)),
                static_cast<unsigned long long>(u64_or(status, "shards", 0)),
                static_cast<unsigned long long>(u64_or(status, "leased", 0)),
                static_cast<unsigned long long>(u64_or(status, "pending", 0)),
                static_cast<unsigned long long>(u64_or(status, "jobs", 0)),
                static_cast<unsigned long long>(
                    u64_or(status, "reassignments", 0)),
                rel_seconds(t_ms).c_str(),
                status.find("finished") != nullptr &&
                        status.find("finished")->is_bool() &&
                        status.find("finished")->as_bool()
                    ? " [finished]"
                    : "");
  out += line;

  std::snprintf(line, sizeof line, "%5s %-9s %-18s %5s %10s\n", "shard",
                "state", "worker", "gen", "deadline");
  out += line;
  if (const Json* leases = status.find("leases");
      leases != nullptr && leases->is_array()) {
    for (const Json& lease : leases->items()) {
      const std::string state = string_or(lease, "state", "?");
      const std::string worker = string_or(lease, "worker", "");
      std::string deadline = "-";
      if (state == "leased") {
        const std::uint64_t dl = u64_or(lease, "deadline_ms", 0);
        deadline = dl > t_ms ? rel_seconds(dl - t_ms) : "+0.0s";
      }
      std::snprintf(line, sizeof line, "%5llu %-9s %-18s %5llu %10s\n",
                    static_cast<unsigned long long>(u64_or(lease, "shard", 0)),
                    state.c_str(), worker.empty() ? "-" : worker.c_str(),
                    static_cast<unsigned long long>(
                        u64_or(lease, "generation", 0)),
                    deadline.c_str());
      out += line;
    }
  }

  if (const Json* workers = status.find("workers");
      workers != nullptr && workers->is_array() && workers->size() > 0) {
    std::snprintf(line, sizeof line, "%-18s %-12s %5s %12s %10s %-9s\n",
                  "worker", "state", "shard", "done/total", "jobs/s",
                  "backend");
    out += line;
    for (const Json& w : workers->items()) {
      const Json* connected = w.find("connected");
      const bool live = connected != nullptr && connected->is_bool() &&
                        connected->as_bool();
      char ratio[48];
      std::snprintf(ratio, sizeof ratio, "%llu/%llu",
                    static_cast<unsigned long long>(u64_or(w, "done", 0)),
                    static_cast<unsigned long long>(u64_or(w, "total", 0)));
      const Json* jps = w.find("jobs_per_sec");
      std::snprintf(line, sizeof line, "%-18s %-12s %5llu %12s %10.2f %-9s\n",
                    string_or(w, "worker", "?").c_str(),
                    live ? "connected" : "disconnected",
                    static_cast<unsigned long long>(u64_or(w, "shard", 0)),
                    ratio,
                    jps != nullptr && jps->is_number() ? jps->as_double()
                                                       : 0.0,
                    string_or(w, "backend", "?").c_str());
      out += line;
    }
  }
  return out;
}

}  // namespace secbus::campaign
