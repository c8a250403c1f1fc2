#include "campaign/shard.hpp"

#include <optional>
#include <string_view>
#include <utility>

#include "campaign/campaign.hpp"
#include "campaign/spec_io.hpp"
#include "campaign/telemetry.hpp"
#include "scenario/result_io.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"
#include "util/fileio.hpp"

namespace secbus::campaign {

namespace {

using util::Json;

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr && error->empty()) *error = message;
  return false;
}

}  // namespace

std::vector<std::size_t> shard_indices(std::size_t job_count,
                                       std::size_t shard,
                                       std::size_t shards) {
  SECBUS_ASSERT(shards >= 1 && shard < shards, "bad shard selector");
  std::vector<std::size_t> indices;
  if (job_count == 0) return indices;
  indices.reserve(job_count / shards + 1);
  for (std::size_t i = shard; i < job_count; i += shards) indices.push_back(i);
  return indices;
}

namespace {

// Streams the spec's canonical compact bytes into `buffer` (reusing its
// capacity) and hashes them.
std::uint64_t fingerprint_with(std::string& buffer,
                               const scenario::ScenarioSpec& spec) {
  buffer.clear();
  util::JsonWriter w(buffer);
  write_spec(w, spec);
  return util::fnv1a_64(util::kFnv1aOffset, buffer.data(), buffer.size());
}

}  // namespace

std::uint64_t spec_fingerprint(const scenario::ScenarioSpec& spec) {
  thread_local std::string buffer;
  return fingerprint_with(buffer, spec);
}

std::uint64_t grid_fingerprint(
    const std::vector<scenario::ScenarioSpec>& specs) {
  std::uint64_t h = util::kFnv1aOffset;
  const std::uint64_t count = specs.size();
  h = util::fnv1a_64(h, &count, sizeof count);
  std::string buffer;
  for (const scenario::ScenarioSpec& spec : specs) {
    const std::uint64_t fp = fingerprint_with(buffer, spec);
    h = util::fnv1a_64(h, &fp, sizeof fp);
  }
  return h;
}

// --- shard result files -----------------------------------------------------

namespace {

std::string shard_stem(const std::string& campaign, std::size_t shard,
                       std::size_t shards) {
  return campaign + ".shard-" + std::to_string(shard) + "-of-" +
         std::to_string(shards);
}

}  // namespace

std::string shard_file_name(const std::string& campaign, std::size_t shard,
                            std::size_t shards) {
  return shard_stem(campaign, shard, shards) + ".json";
}

std::string checkpoint_file_name(const std::string& campaign,
                                 std::size_t shard, std::size_t shards) {
  return shard_stem(campaign, shard, shards) + ".ckpt.jsonl";
}

namespace {

// The shard file and checkpoint record documents, each described once for
// both directions (see scenario/result_io.cpp): `io` is a JsonWriter or a
// JsonReader; `results`/`result` (de)serialize the job results.
template <typename Io, typename File>
bool shard_members(Io& io, File& file, const auto& results) {
  return io.object([&] {
    return io.member("campaign", file.campaign) &&
           io.member("shard", file.shard) && io.member("shards", file.shards) &&
           io.member("jobs_total", file.jobs_total) &&
           io.member("grid_fingerprint", file.grid_fp) &&
           io.member("results", results);
  });
}

template <typename Io>
bool checkpoint_members(Io& io, auto& index, auto& fingerprint,
                        const auto& result) {
  return io.object([&] {
    return io.member("index", index) &&
           io.member("fingerprint", fingerprint) &&
           io.member("result", result);
  });
}

}  // namespace

void write_shard_json(util::JsonWriter& w, const ShardResultFile& file) {
  shard_members(w, file, [&] {
    w.begin_array();
    for (const scenario::JobResult& r : file.results) {
      scenario::write_job_result(w, r);
    }
    w.end_array();
    return true;
  });
}

namespace {

bool read_shard_json(util::JsonReader& r, ShardResultFile& out) {
  ShardResultFile file;
  const bool read = shard_members(r, file, [&] {
    if (!r.begin_array()) return false;
    while (r.next_item()) {
      if (!scenario::read_job_result(r, file.results.emplace_back())) {
        return r.context("[" + std::to_string(file.results.size() - 1) + "]");
      }
    }
    return r.ok();
  });
  if (!read || !r.finish()) return false;
  if (file.shards == 0 || file.shard >= file.shards) {
    return r.fail("shard index outside shard count");
  }
  // Magnitude sanity before merge sizes anything from these fields: a
  // corrupt header must produce a named error, not a bad_alloc.
  if (file.shards > 1024) {
    return r.fail("implausible shard count " + std::to_string(file.shards));
  }
  if (file.jobs_total > kMaxCampaignJobs) {
    return r.fail("jobs_total " + std::to_string(file.jobs_total) +
                  " exceeds the " + std::to_string(kMaxCampaignJobs) +
                  "-job cap");
  }
  out = std::move(file);
  return true;
}

bool read_shard_text(std::string_view text, const std::string& context,
                     ShardResultFile& out, std::string* error) {
  util::JsonReader r(text);
  return read_shard_json(r, out) || fail(error, context + ": " + r.error());
}

}  // namespace

bool shard_file_from_json(const Json& j, const std::string& context,
                          ShardResultFile& out, std::string* error) {
  return read_shard_text(j.dump(0), context, out, error);
}

bool write_shard_file(const std::string& path, const ShardResultFile& file,
                      std::string* error) {
  std::string text;
  text.reserve(2048 * (file.results.size() + 1));  // typical job: ~1.4 KB
  util::JsonWriter w(text);
  write_shard_json(w, file);
  text += '\n';
  return util::write_file(path, text, error);
}

bool read_shard_file(const std::string& path, ShardResultFile& out,
                     std::string* error) {
  std::string text;
  return util::read_file(path, text, error) &&
         read_shard_text(text, path, out, error);
}

bool merge_shard_files(const std::vector<std::string>& paths,
                       std::string* campaign_name,
                       std::vector<scenario::JobResult>* results,
                       std::string* error) {
  if (paths.empty()) return fail(error, "no shard files to merge");

  std::vector<ShardResultFile> files;
  files.reserve(paths.size());
  for (const std::string& path : paths) {
    ShardResultFile file;
    if (!read_shard_file(path, file, error)) return false;
    files.push_back(std::move(file));
  }

  const ShardResultFile& first = files.front();
  std::vector<char> shard_seen(first.shards, 0);
  for (std::size_t f = 0; f < files.size(); ++f) {
    const ShardResultFile& file = files[f];
    if (file.campaign != first.campaign || file.shards != first.shards ||
        file.jobs_total != first.jobs_total ||
        file.grid_fp != first.grid_fp) {
      return fail(error, paths[f] +
                             ": shard file disagrees with " + paths[0] +
                             " (campaign/shards/jobs/grid fingerprint)");
    }
    if (shard_seen[file.shard]) {
      return fail(error, paths[f] + ": duplicate shard " +
                             std::to_string(file.shard));
    }
    shard_seen[file.shard] = 1;
  }
  if (files.size() != first.shards) {
    return fail(error, "expected " + std::to_string(first.shards) +
                           " shard files, got " +
                           std::to_string(files.size()));
  }

  std::vector<scenario::JobResult> merged(first.jobs_total);
  std::vector<char> filled(first.jobs_total, 0);
  for (std::size_t f = 0; f < files.size(); ++f) {
    ShardResultFile& file = files[f];
    for (scenario::JobResult& r : file.results) {
      if (r.index >= first.jobs_total) {
        return fail(error, paths[f] + ": job index " +
                               std::to_string(r.index) + " out of range");
      }
      if (shard_of(r.index, first.shards) != file.shard) {
        return fail(error, paths[f] + ": job " + std::to_string(r.index) +
                               " does not belong to shard " +
                               std::to_string(file.shard));
      }
      if (filled[r.index]) {
        return fail(error, paths[f] + ": job " + std::to_string(r.index) +
                               " appears twice");
      }
      filled[r.index] = 1;
      merged[r.index] = std::move(r);
    }
  }
  for (std::size_t i = 0; i < filled.size(); ++i) {
    if (!filled[i]) {
      return fail(error, "merged shards do not cover job " +
                             std::to_string(i) + " (incomplete shard run?)");
    }
  }

  if (campaign_name != nullptr) *campaign_name = first.campaign;
  if (results != nullptr) *results = std::move(merged);
  return true;
}

// --- checkpoints ------------------------------------------------------------

bool CheckpointWriter::open(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return writer_.open(path);
}

bool CheckpointWriter::append(const scenario::JobResult& result,
                              std::uint64_t fingerprint) {
  std::string line;
  util::JsonWriter w(line);
  const std::uint64_t index = result.index;
  checkpoint_members(w, index, fingerprint, [&] {
    scenario::write_job_result(w, result);
    return true;
  });
  const std::lock_guard<std::mutex> lock(mutex_);
  return writer_.append_line(std::move(line));
}

bool CheckpointWriter::ok() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return writer_.ok();
}

void CheckpointWriter::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  writer_.close();
}

std::size_t load_checkpoint(const std::string& path,
                            const std::vector<scenario::ScenarioSpec>& specs,
                            std::vector<scenario::JobResult>& results,
                            std::vector<char>& done) {
  SECBUS_ASSERT(results.size() == specs.size() && done.size() == specs.size(),
                "checkpoint buffers must match the job list");
  // Fingerprints computed lazily: a checkpoint references only its own
  // shard's indices, no need to hash the whole grid.
  std::vector<std::optional<std::uint64_t>> fingerprints(specs.size());
  std::size_t restored = 0;
  // A missing file (no checkpoint yet) visits no line.
  (void)util::for_each_jsonl_line(path, [&](std::string_view line) {
    util::JsonReader r(line);
    std::uint64_t index = 0;
    std::uint64_t fp = 0;
    scenario::JobResult result;
    const bool read = checkpoint_members(
        r, index, fp, [&] { return scenario::read_job_result(r, result); });
    // Torn or foreign records, and jobs already restored, are skipped.
    if (!read || !r.finish() ||
        index >= specs.size() || done[index] || result.index != index) {
      return;
    }
    if (!fingerprints[index].has_value()) {
      fingerprints[index] = spec_fingerprint(specs[index]);
    }
    if (*fingerprints[index] != fp) return;  // grid drifted: re-run it
    results[index] = std::move(result);
    done[index] = 1;
    ++restored;
  });
  return restored;
}

// --- shard execution --------------------------------------------------------

ShardRunOutcome run_shard(const std::vector<scenario::ScenarioSpec>& specs,
                          const ShardRunOptions& options) {
  ShardRunOutcome outcome;
  outcome.indices = shard_indices(specs.size(), options.shard, options.shards);
  outcome.results.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) outcome.results[i].index = i;

  std::vector<char> done(specs.size(), 0);
  CheckpointWriter checkpoint;
  const bool checkpointing = !options.checkpoint_path.empty();
  if (checkpointing) {
    (void)load_checkpoint(options.checkpoint_path, specs, outcome.results,
                          done);
    outcome.checkpoint_ok = checkpoint.open(options.checkpoint_path);
  }

  ProgressWriter progress;
  const bool telemetry =
      !options.progress_path.empty() &&
      progress.open(options.progress_path, options.campaign, options.shard,
                    options.shards, options.progress_interval_ms);

  // `resumed` counts only this shard's slice: a checkpoint shared across
  // shards restores foreign indices too, which are neither our progress
  // nor our output.
  std::vector<std::size_t> to_run;
  to_run.reserve(outcome.indices.size());
  for (const std::size_t i : outcome.indices) {
    if (done[i]) {
      ++outcome.resumed;
    } else {
      to_run.push_back(i);
    }
  }
  outcome.executed = to_run.size();

  scenario::BatchOptions batch;
  batch.threads = options.threads;
  batch.indices = to_run;
  batch.hooks.collect_metrics = options.collect_metrics;
  const std::size_t resumed = outcome.resumed;
  const std::size_t total = outcome.indices.size();
  if (checkpointing || telemetry || options.on_job_done ||
      options.chaos.enabled()) {
    batch.on_job_done = [&](const scenario::JobResult& r, std::size_t n,
                            std::size_t /*of*/) {
      if (checkpointing) {
        checkpoint.append(r, spec_fingerprint(specs[r.index]));
      }
      if (telemetry) progress.update(resumed + n, total);
      if (options.on_job_done) options.on_job_done(r, resumed + n, total);
      // After the checkpoint append: a chaos-killed worker dies having
      // durably recorded exactly the jobs it completed.
      chaos_maybe_die(options.chaos, n);
    };
  }

  std::vector<scenario::JobResult> fresh = scenario::run_batch(specs, batch);
  for (const std::size_t i : to_run) {
    outcome.results[i] = std::move(fresh[i]);
  }
  if (checkpointing && !checkpoint.ok()) outcome.checkpoint_ok = false;
  checkpoint.close();
  if (telemetry) {
    progress.finish(resumed + outcome.executed, total);
    progress.close();
  }
  return outcome;
}

ShardResultFile to_shard_file(const std::string& campaign,
                              const ShardRunOutcome& outcome,
                              std::size_t shard, std::size_t shards,
                              std::uint64_t grid_fp) {
  SECBUS_ASSERT(outcome.indices.empty() ||
                    shard_of(outcome.indices.front(), shards) == shard,
                "outcome does not belong to this shard");
  ShardResultFile file;
  file.campaign = campaign;
  file.shard = shard;
  file.shards = shards;
  file.jobs_total = outcome.results.size();
  file.grid_fp = grid_fp;
  file.results.reserve(outcome.indices.size());
  for (const std::size_t i : outcome.indices) {
    file.results.push_back(outcome.results[i]);
  }
  return file;
}

}  // namespace secbus::campaign
