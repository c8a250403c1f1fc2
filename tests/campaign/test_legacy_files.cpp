// Files written before shard files became compact still read, merge and
// resume. tests/data/legacy-pretty.* were written by the release that
// pretty-printed shard files through a JSON tree: the campaign spec, its
// one-shard result file (with --metrics) and the checkpoint of that run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "campaign/shard.hpp"
#include "scenario/report.hpp"
#include "scenario/result_io.hpp"
#include "util/csv.hpp"
#include "util/fileio.hpp"

namespace secbus::campaign {
namespace {

std::string data_path(const std::string& name) {
  return std::string(SECBUS_REPO_DIR) + "/tests/data/" + name;
}

const std::string kShard = data_path("legacy-pretty.shard-0-of-1.json");

// The cells CSV, jobs CSV and campaign JSON a merge emits.
std::string reports(const std::string& campaign,
                    const std::vector<scenario::JobResult>& results) {
  const CampaignReport report = CampaignReport::from(campaign, results);
  util::CsvWriter cells;
  write_cells_csv(cells, report);
  util::CsvWriter jobs;
  scenario::write_batch_csv(jobs, results);
  return cells.buffer() + jobs.buffer() + campaign_json(report);
}

TEST(LegacyFiles, PrettyShardFileMergesLikeItsCompactRoundTrip) {
  std::string legacy_text;
  ASSERT_TRUE(util::read_file(kShard, legacy_text));
  ASSERT_GT(std::count(legacy_text.begin(), legacy_text.end(), '\n'), 100);

  std::string name;
  std::vector<scenario::JobResult> legacy;
  std::string error;
  ASSERT_TRUE(merge_shard_files({kShard}, &name, &legacy, &error)) << error;
  ASSERT_EQ(legacy.size(), 3u);
  EXPECT_FALSE(legacy[0].metrics.empty());

  ShardResultFile file;
  ASSERT_TRUE(read_shard_file(kShard, file, &error)) << error;
  const std::string compact_path =
      (std::filesystem::temp_directory_path() /
       ("secbus_legacy_" + std::to_string(::getpid()) + ".shard-0-of-1.json"))
          .string();
  ASSERT_TRUE(write_shard_file(compact_path, file, &error)) << error;
  std::string compact_text;
  ASSERT_TRUE(util::read_file(compact_path, compact_text));
  // Compact: one line, and smaller than the pretty original.
  EXPECT_EQ(std::count(compact_text.begin(), compact_text.end(), '\n'), 1);
  EXPECT_LT(compact_text.size(), legacy_text.size());

  std::vector<scenario::JobResult> compact;
  ASSERT_TRUE(merge_shard_files({compact_path}, nullptr, &compact, &error))
      << error;
  std::filesystem::remove(compact_path);
  ASSERT_EQ(compact.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(scenario::job_result_to_json(compact[i]).dump(0),
              scenario::job_result_to_json(legacy[i]).dump(0));
  }
  EXPECT_EQ(reports(name, compact), reports(name, legacy));
}

TEST(LegacyFiles, FingerprintsAndCheckpointsStillMatch) {
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(load_campaign_file(data_path("legacy-pretty.campaign.json"),
                                 spec, &error))
      << error;
  const std::vector<scenario::ScenarioSpec> specs = expand_campaign(spec);
  ShardResultFile file;
  ASSERT_TRUE(read_shard_file(kShard, file, &error)) << error;
  // The grid fingerprint the old build stamped is the one computed now.
  EXPECT_EQ(grid_fingerprint(specs), file.grid_fp);

  // Its checkpoint resumes every job: the per-spec fingerprints match too.
  std::vector<scenario::JobResult> results(specs.size());
  std::vector<char> done(specs.size(), 0);
  EXPECT_EQ(load_checkpoint(data_path("legacy-pretty.shard-0-of-1.ckpt.jsonl"),
                            specs, results, done),
            specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(scenario::job_result_to_json(results[i]).dump(0),
              scenario::job_result_to_json(file.results[i]).dump(0));
  }
}

}  // namespace
}  // namespace secbus::campaign
