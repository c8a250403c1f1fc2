// Differential test: mem::BackingStore against a reference byte vector of
// its whole range plus one state per page (untouched, shared, own copy),
// the straightforward reading of the class contract.
//
// Seeded random sequences of write, read, peek, poke, write_byte,
// read_byte and share run against both, on ranges with a page-aligned and
// an unaligned base and with a partial last page. Addresses lean toward the
// first and last page and toward page boundaries, so accesses straddle
// pages and shared pages get copied on their first write. After every
// operation the two must agree on allocated_pages(), shared_pages() and
// bytes_written(), and at the end on every byte. A second store sharing
// the same images must still read them pristine, and the images must not
// have changed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/backing_store.hpp"
#include "util/rng.hpp"

namespace secbus::mem {
namespace {

constexpr std::uint64_t kPage = BackingStore::kPageBytes;

enum class PageState { kUntouched, kShared, kOwn };

struct Reference {
  sim::Addr base;
  std::vector<std::uint8_t> bytes;
  std::vector<PageState> pages;
  std::uint64_t bytes_written = 0;

  Reference(sim::Addr b, std::uint64_t size, std::uint8_t fill)
      : base(b), bytes(size, fill), pages((size + kPage - 1) / kPage) {}

  void write(sim::Addr addr, const std::vector<std::uint8_t>& data,
             std::size_t from, std::size_t len) {
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t at = addr - base + i;
      bytes[at] = data[from + i];
      pages[at / kPage] = PageState::kOwn;
    }
    bytes_written += len;
  }

  // Mirrors share(): whole pages inside the range become shared, the
  // partial pages at either end are written.
  void share(sim::Addr addr, const std::vector<std::uint8_t>& data) {
    const std::uint64_t at = addr - base;
    const std::uint64_t first = (at + kPage - 1) / kPage;
    const std::uint64_t end = (at + data.size()) / kPage;
    if (first >= end) {
      write(addr, data, 0, data.size());
      return;
    }
    const std::size_t head = first * kPage - at;
    const std::size_t body = (end - first) * kPage;
    write(addr, data, 0, head);
    write(base + end * kPage, data, head + body, data.size() - head - body);
    for (std::size_t i = 0; i < body; ++i) {
      bytes[first * kPage + i] = data[head + i];
    }
    for (std::uint64_t p = first; p < end; ++p) pages[p] = PageState::kShared;
    bytes_written += body;
  }

  [[nodiscard]] std::size_t count(PageState s) const {
    std::size_t n = 0;
    for (PageState p : pages) n += p == s;
    return n;
  }
};

struct Geometry {
  sim::Addr base;
  std::uint64_t size;
};

class StoreDiff : public ::testing::TestWithParam<std::uint64_t> {};

// An address for an access of `len` bytes: near the first page, near the
// last page, on a page boundary, or anywhere.
sim::Addr pick_addr(util::Xoshiro256& rng, const Geometry& g, std::uint64_t len) {
  const std::uint64_t last = g.size - len;  // highest valid offset
  std::uint64_t at = 0;
  switch (rng.below(4)) {
    case 0: at = rng.below(std::min(last, 2 * kPage) + 1); break;
    case 1: at = last - rng.below(std::min(last, 2 * kPage) + 1); break;
    case 2: {
      const std::uint64_t boundary = kPage * rng.below(g.size / kPage + 1);
      const std::uint64_t lo = boundary > len ? boundary - len + 1 : 0;
      at = std::min(last, lo + rng.below(len + 1));
      break;
    }
    default: at = rng.below(last + 1); break;
  }
  return g.base + at;
}

std::uint64_t pick_len(util::Xoshiro256& rng, std::uint64_t size) {
  std::uint64_t len = 0;
  switch (rng.below(3)) {
    case 0: len = 1 + rng.below(64); break;
    case 1: len = 1 + rng.below(kPage + 64); break;
    default: len = 1 + rng.below(3 * kPage); break;
  }
  return std::min(len, size);
}

void run_sequence(const Geometry& g, std::uint64_t seed, std::uint8_t fill) {
  util::Xoshiro256 rng(seed);
  BackingStore store(g.base, g.size);
  BackingStore witness(g.base, g.size);
  store.set_fill_byte(fill);
  Reference ref(g.base, g.size, fill);
  Reference witness_ref(g.base, g.size, 0x00);

  struct Image {
    std::shared_ptr<const std::vector<std::uint8_t>> bytes;
    std::vector<std::uint8_t> pristine;
  };
  std::vector<Image> images;

  for (int step = 0; step < 600; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    const std::uint64_t len = pick_len(rng, g.size);
    const sim::Addr addr = pick_addr(rng, g, len);
    std::vector<std::uint8_t> data(len);
    rng.fill(data);
    switch (rng.below(7)) {
      case 0:
        store.write(addr, data);
        ref.write(addr, data, 0, len);
        break;
      case 1:
        store.poke(addr, data);
        ref.write(addr, data, 0, len);
        break;
      case 2:
        store.write_byte(addr, data[0]);
        ref.write(addr, data, 0, 1);
        break;
      case 3: {
        std::vector<std::uint8_t> out(len);
        store.read(addr, out);
        ASSERT_TRUE(std::equal(out.begin(), out.end(),
                               ref.bytes.begin() + (addr - g.base)));
        break;
      }
      case 4: {
        std::vector<std::uint8_t> out(len);
        store.peek(addr, out);
        ASSERT_TRUE(std::equal(out.begin(), out.end(),
                               ref.bytes.begin() + (addr - g.base)));
        break;
      }
      case 5:
        ASSERT_EQ(store.read_byte(addr), ref.bytes[addr - g.base]);
        break;
      default: {
        // Share an image of several pages, aligned to the range's pages
        // half the time.
        const std::uint64_t extra = rng.chance(0.5) ? 0 : rng.below(kPage);
        const std::uint64_t share_len =
            std::min<std::uint64_t>(g.size, kPage * (1 + rng.below(4)) + extra);
        sim::Addr at = pick_addr(rng, g, share_len);
        if (rng.chance(0.5)) at = g.base + (at - g.base) / kPage * kPage;
        std::vector<std::uint8_t> bytes(share_len);
        rng.fill(bytes);
        auto img = std::make_shared<const std::vector<std::uint8_t>>(bytes);
        store.share(at, *img, img);
        witness.share(at, *img, img);
        ref.share(at, bytes);
        witness_ref.share(at, bytes);
        images.push_back({img, std::move(bytes)});
        break;
      }
    }
    ASSERT_EQ(store.allocated_pages(),
              ref.pages.size() - ref.count(PageState::kUntouched));
    ASSERT_EQ(store.shared_pages(), ref.count(PageState::kShared));
    ASSERT_EQ(store.bytes_written(), ref.bytes_written);
  }

  std::vector<std::uint8_t> all(g.size);
  store.read(g.base, all);
  EXPECT_EQ(all, ref.bytes);
  ASSERT_FALSE(images.empty());
  for (const Image& img : images) {
    EXPECT_EQ(*img.bytes, img.pristine);
  }
  // The witness only ever shared, so it reads the images as they were.
  witness.read(g.base, all);
  EXPECT_EQ(all, witness_ref.bytes);
  EXPECT_EQ(witness.shared_pages(), witness_ref.count(PageState::kShared));
}

TEST_P(StoreDiff, AlignedBase) {
  run_sequence({0x8000'0000, 64 * kPage}, GetParam(), 0x00);
}

TEST_P(StoreDiff, UnalignedBaseAndPartialLastPage) {
  run_sequence({0x1234, 9 * kPage + 77}, GetParam() ^ 0x5A5A, 0xCD);
}

TEST_P(StoreDiff, SpansChunksOfTheTable) {
  // 2 MiB of pages per table chunk: this range crosses two chunk edges.
  run_sequence({0x4000'0000 - 8 * kPage, 1040 * kPage}, GetParam() + 17, 0x00);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreDiff,
                         ::testing::Values(1u, 2u, 3u, 0xDEADBEEFu, 7919u));

// Copy-on-first-write: writing into a shared page copies it once, and a
// store that shares the same image afterwards still reads it pristine.
TEST(StoreDiffCopyOnWrite, FirstWriteCopiesEachSharedPageOnce) {
  const sim::Addr base = 0x8000'0000;
  auto bytes = std::make_shared<std::vector<std::uint8_t>>(4 * kPage);
  util::Xoshiro256 rng(11);
  rng.fill(*bytes);
  const std::vector<std::uint8_t> pristine = *bytes;
  BackingStore store(base, 8 * kPage);
  store.share(base + kPage, *bytes, bytes);
  EXPECT_EQ(store.shared_pages(), 4u);
  for (std::uint64_t p = 0; p < 4; ++p) {
    const std::uint8_t v = static_cast<std::uint8_t>(p + 1);
    store.write_byte(base + (p + 1) * kPage + p, v);  // first write copies
    EXPECT_EQ(store.shared_pages(), 3 - p);
    store.write_byte(base + (p + 1) * kPage + p + 1, v);  // already own
    EXPECT_EQ(store.shared_pages(), 3 - p);
    EXPECT_EQ(store.allocated_pages(), 4u);
  }
  EXPECT_EQ(*bytes, pristine);
  BackingStore later(base, 8 * kPage);
  later.share(base + kPage, *bytes, bytes);
  std::vector<std::uint8_t> back(pristine.size());
  later.read(base + kPage, back);
  EXPECT_EQ(back, pristine);
}

}  // namespace
}  // namespace secbus::mem
