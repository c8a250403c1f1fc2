// Seeded mutation of the fleet protocol's frame decoder: byte flips,
// length-prefix edits, truncations and splices of real encoded frames (the
// worker's hello, request, heartbeat and shard_done messages, the last one
// carrying the checked-in tests/data shard file), fed in random chunk sizes.
// Whatever the bytes, the decoder either yields messages that re-encode to a
// fixed point or poisons itself; it never trips SECBUS_ASSERT or crashes
// (the ASan+UBSan build runs this too). How the stream is chunked must not
// change what comes out.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "campaign/fleet.hpp"
#include "campaign/shard.hpp"
#include "campaign/telemetry.hpp"
#include "net/frame.hpp"
#include "util/json.hpp"

namespace secbus::net {
namespace {

using util::Json;

constexpr int kIterations = 2000;

// The real frames a worker sends, encoded.
std::vector<std::string> real_frames() {
  campaign::ProgressRecord progress;
  progress.campaign = "legacy-pretty";
  progress.shard = 0;
  progress.shards = 1;
  progress.done = 3;
  progress.total = 8;
  progress.elapsed_ms = 1250;
  progress.jobs_per_sec = 2.4;
  progress.format_cache_hits = 5;
  progress.format_cache_misses = 2;

  campaign::ShardResultFile file;
  std::string error;
  const std::string shard_path =
      std::string(SECBUS_REPO_DIR) + "/tests/data/legacy-pretty.shard-0-of-1.json";
  EXPECT_TRUE(campaign::read_shard_file(shard_path, file, &error)) << error;

  return {
      encode_frame(campaign::fleet_msg::hello("worker-7")),
      encode_frame(campaign::fleet_msg::request()),
      encode_frame(campaign::fleet_msg::heartbeat(0, 2, progress, nullptr, 1)),
      encode_frame(campaign::fleet_msg::shard_done(0, 2, progress, file, 1)),
  };
}

// A stream of one to four frames; `starts` receives each frame's offset.
std::string make_stream(const std::vector<std::string>& frames,
                        std::vector<std::size_t>& starts, std::mt19937_64& rng) {
  std::string stream;
  starts.clear();
  const int n = 1 + static_cast<int>(rng() % 4);
  for (int i = 0; i < n; ++i) {
    starts.push_back(stream.size());
    stream += frames[rng() % frames.size()];
  }
  return stream;
}

// One to four edits: overwrite a byte, edit a length prefix, truncate, or
// splice a stretch of `donor` over a stretch of the stream.
std::string mutate(std::string text, const std::vector<std::size_t>& starts,
                   const std::string& donor, std::mt19937_64& rng) {
  const auto pick = [&](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };
  // Bytes that steer a JSON reader somewhere new more often than noise.
  static const std::string kInteresting = "{}[]\",:0123456789-+.eE \\tnul";
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int e = 0; e < edits && !text.empty(); ++e) {
    switch (rng() % 5) {
      case 0:
        text[pick(text.size())] = static_cast<char>(rng());
        break;
      case 1:
        text[pick(text.size())] = kInteresting[pick(kInteresting.size())];
        break;
      case 2: {
        // A length prefix: a random byte, or its low byte nudged by a few.
        const std::size_t at = starts[pick(starts.size())] + pick(4);
        if (at >= text.size()) break;
        if (rng() % 2 == 0) {
          text[at] = static_cast<char>(rng());
        } else {
          text[at] = static_cast<char>(static_cast<unsigned char>(text[at]) +
                                       static_cast<int>(rng() % 7) - 3);
        }
        break;
      }
      case 3:
        text.resize(pick(text.size()));
        break;
      default: {
        const std::size_t from = pick(donor.size());
        const std::size_t len =
            pick(std::min<std::size_t>(64, donor.size() - from));
        const std::size_t at = pick(text.size());
        text.replace(at, pick(std::min<std::size_t>(64, text.size() - at)),
                     donor.substr(from, len));
      }
    }
  }
  return text;
}

// What a decoder made of a stream: the messages it yielded (compact), its
// final state and what it still buffers.
struct Decoded {
  std::vector<std::string> messages;
  bool corrupt = false;
  std::size_t buffered = 0;

  bool operator==(const Decoded&) const = default;
};

// Feeds `bytes` in chunks of 1..max_chunk bytes (max_chunk 0: one feed),
// draining complete messages after each feed.
Decoded decode(const std::string& bytes, std::size_t max_chunk,
               std::mt19937_64& rng) {
  FrameDecoder decoder;
  Decoded out;
  std::size_t at = 0;
  while (at < bytes.size()) {
    const std::size_t n =
        max_chunk == 0 ? bytes.size() - at
                       : std::min<std::size_t>(1 + rng() % max_chunk,
                                               bytes.size() - at);
    decoder.feed(bytes.data() + at, n);
    at += n;
    Json message;
    while (decoder.next(message)) out.messages.push_back(message.dump(0));
  }
  out.corrupt = decoder.corrupt();
  out.buffered = decoder.buffered();
  if (out.corrupt) {
    EXPECT_FALSE(decoder.corrupt_reason().empty());
    EXPECT_EQ(out.buffered, 0u);
  }
  return out;
}

// A yielded message re-encodes to one clean frame that decodes to itself.
void expect_fixed_point(const std::string& compact) {
  Json message;
  ASSERT_TRUE(Json::parse(compact, message)) << compact;
  const std::string frame = encode_frame(message);
  FrameDecoder decoder;
  decoder.feed(frame.data(), frame.size());
  Json again;
  ASSERT_TRUE(decoder.next(again)) << decoder.corrupt_reason() << "\n"
                                   << compact;
  EXPECT_FALSE(decoder.next(again));
  EXPECT_FALSE(decoder.corrupt());
  EXPECT_EQ(decoder.buffered(), 0u);
  ASSERT_EQ(encode_frame(again), frame) << compact;
}

TEST(FrameFuzz, UnmutatedFramesDecodeToThemselves) {
  const std::vector<std::string> frames = real_frames();
  std::mt19937_64 rng(1);
  std::string stream;
  for (const std::string& f : frames) stream += f;
  for (const std::size_t chunk : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{4096}}) {
    const Decoded d = decode(stream, chunk, rng);
    EXPECT_FALSE(d.corrupt);
    EXPECT_EQ(d.buffered, 0u);
    ASSERT_EQ(d.messages.size(), frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(encode_frame(d.messages[i]), frames[i]) << "frame " << i;
    }
  }
}

TEST(FrameFuzz, MutatedStreamsYieldCanonicalMessagesOrPoison) {
  const std::vector<std::string> frames = real_frames();
  std::mt19937_64 rng(20261020);
  int poisoned = 0;
  int pending = 0;
  int changed = 0;
  std::vector<std::size_t> starts;
  std::vector<std::size_t> donor_starts;
  for (int i = 0; i < kIterations; ++i) {
    const std::string stream = make_stream(frames, starts, rng);
    const std::string donor = make_stream(frames, donor_starts, rng);
    const std::string mutated = mutate(stream, starts, donor, rng);

    const Decoded whole = decode(mutated, 0, rng);
    const std::size_t max_chunk = 1 + rng() % 512;
    const Decoded chunked = decode(mutated, max_chunk, rng);
    ASSERT_EQ(whole, chunked)
        << "iteration " << i << ": chunks of up to " << max_chunk
        << " bytes decode differently";
    if (HasFatalFailure()) return;

    for (const std::string& m : whole.messages) {
      expect_fixed_point(m);
      if (HasFatalFailure()) return;
      const std::string frame = encode_frame(m);
      changed += std::find(frames.begin(), frames.end(), frame) == frames.end();
    }
    poisoned += whole.corrupt;
    pending += !whole.corrupt && whole.buffered > 0;
  }
  // Each outcome must occur, or the property above was never exercised:
  // a poisoned stream, a frame still waiting for bytes, and a mutated
  // frame that decoded (a digit for a digit).
  EXPECT_GT(poisoned, 0);
  EXPECT_GT(pending, 0);
  EXPECT_GT(changed, 0);
}

}  // namespace
}  // namespace secbus::net
