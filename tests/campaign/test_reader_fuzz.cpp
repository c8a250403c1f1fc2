// Seeded mutation of the result readers: byte flips, truncations and splices
// of a real shard file and a real checkpoint line. Whatever the bytes, a
// reader either refuses them with a message or returns a result that
// re-serializes to a fixed point; it never trips SECBUS_ASSERT or crashes
// (the ASan+UBSan build runs this too). Bounded and self-contained: the
// inputs are the checked-in tests/data/legacy-pretty.* files.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/shard.hpp"
#include "scenario/result_io.hpp"
#include "util/fileio.hpp"
#include "util/json.hpp"

namespace secbus::campaign {
namespace {

constexpr int kIterations = 3000;

std::string data_path(const std::string& name) {
  return std::string(SECBUS_REPO_DIR) + "/tests/data/" + name;
}

std::string scratch_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("secbus_fuzz_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

// One to four edits: overwrite a byte, truncate, or splice a stretch of
// `donor` over a stretch of the input.
std::string mutate(std::string text, const std::string& donor,
                   std::mt19937_64& rng) {
  const auto pick = [&](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };
  // Bytes that steer a JSON reader somewhere new more often than noise.
  static const std::string kInteresting = "{}[]\",:0123456789-+.eE \\tnul";
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int e = 0; e < edits && !text.empty(); ++e) {
    switch (rng() % 4) {
      case 0:
        text[pick(text.size())] = static_cast<char>(rng());
        break;
      case 1:
        text[pick(text.size())] = kInteresting[pick(kInteresting.size())];
        break;
      case 2:
        text.resize(pick(text.size()));
        break;
      default: {
        const std::size_t from = pick(donor.size());
        const std::size_t len = pick(std::min<std::size_t>(64, donor.size() - from));
        const std::size_t at = pick(text.size());
        text.replace(at, pick(std::min<std::size_t>(64, text.size() - at)),
                     donor.substr(from, len));
      }
    }
  }
  return text;
}

// Accepted input must re-serialize to a fixed point: write(read(x)) reads
// back and writes the same bytes again.
void expect_shard_fixed_point(const ShardResultFile& file,
                              const std::string& path) {
  std::string error;
  ASSERT_TRUE(write_shard_file(path, file, &error)) << error;
  std::string once;
  ASSERT_TRUE(util::read_file(path, once));
  ShardResultFile again;
  ASSERT_TRUE(read_shard_file(path, again, &error)) << error << "\n" << once;
  ASSERT_TRUE(write_shard_file(path, again, &error)) << error;
  std::string twice;
  ASSERT_TRUE(util::read_file(path, twice));
  ASSERT_EQ(once, twice);
}

TEST(ReaderFuzz, MutatedShardFilesAreRefusedOrCanonical) {
  std::string pretty;
  ASSERT_TRUE(util::read_file(data_path("legacy-pretty.shard-0-of-1.json"),
                              pretty));
  ShardResultFile original;
  std::string error;
  ASSERT_TRUE(read_shard_file(data_path("legacy-pretty.shard-0-of-1.json"),
                              original, &error))
      << error;
  const std::string input = scratch_path("input.json");
  const std::string output = scratch_path("output.json");
  ASSERT_TRUE(write_shard_file(input, original, &error)) << error;
  std::string compact;
  ASSERT_TRUE(util::read_file(input, compact));

  std::mt19937_64 rng(20261017);
  int accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const bool use_compact = i % 2 == 0;
    const std::string mutated = mutate(use_compact ? compact : pretty,
                                       use_compact ? pretty : compact, rng);
    ASSERT_TRUE(util::write_file(input, mutated));
    ShardResultFile file;
    error.clear();
    if (!read_shard_file(input, file, &error)) {
      ASSERT_FALSE(error.empty()) << mutated;
      continue;
    }
    ++accepted;
    expect_shard_fixed_point(file, output);
    if (HasFatalFailure()) return;

    // The tree parser sees the same bytes: refuse, or round-trip.
    util::Json tree;
    if (util::Json::parse(mutated, tree)) {
      util::Json back;
      ASSERT_TRUE(util::Json::parse(tree.dump(0), back));
      ASSERT_EQ(back.dump(0), tree.dump(0));
    }
  }
  // Some mutations (a digit for a digit) must survive, or the property
  // above was never exercised.
  EXPECT_GT(accepted, 0);
  std::filesystem::remove(input);
  std::filesystem::remove(output);
}

TEST(ReaderFuzz, MutatedCheckpointLinesAreSkippedOrCanonical) {
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(load_campaign_file(data_path("legacy-pretty.campaign.json"),
                                 spec, &error))
      << error;
  const std::vector<scenario::ScenarioSpec> specs = expand_campaign(spec);
  std::string lines;
  ASSERT_TRUE(util::read_file(
      data_path("legacy-pretty.shard-0-of-1.ckpt.jsonl"), lines));
  const std::string line = lines.substr(0, lines.find('\n'));
  const std::string other = lines.substr(lines.find('\n') + 1);
  const std::string path = scratch_path("ckpt.jsonl");

  std::mt19937_64 rng(7919);
  int restored_total = 0;
  for (int i = 0; i < kIterations; ++i) {
    ASSERT_TRUE(util::write_file(path, mutate(line, other, rng) + "\n"));
    std::vector<scenario::JobResult> results(specs.size());
    std::vector<char> done(specs.size(), 0);
    const std::size_t restored = load_checkpoint(path, specs, results, done);
    ASSERT_LE(restored, 1u);
    restored_total += static_cast<int>(restored);
    for (std::size_t j = 0; j < specs.size(); ++j) {
      if (!done[j]) continue;
      const std::string once = scenario::job_result_to_json(results[j]).dump(0);
      util::JsonReader r(once);
      scenario::JobResult again;
      ASSERT_TRUE(scenario::read_job_result(r, again) && r.finish())
          << r.error();
      ASSERT_EQ(scenario::job_result_to_json(again).dump(0), once);
    }
  }
  EXPECT_GT(restored_total, 0);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace secbus::campaign
