#include "mem/backing_store.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace secbus::mem {
namespace {

// A 16 MiB device at address 0, wide enough for every case below.
constexpr std::uint64_t kRange = std::uint64_t{16} << 20;

TEST(BackingStore, UntouchedMemoryReadsFill) {
  BackingStore store(0, kRange);
  std::vector<std::uint8_t> buf(8, 0xFF);
  store.read(0x123456, buf);
  EXPECT_EQ(buf, std::vector<std::uint8_t>(8, 0x00));
  EXPECT_EQ(store.allocated_pages(), 0u);
}

TEST(BackingStore, CustomFillByte) {
  BackingStore store(0, kRange);
  store.set_fill_byte(0xCD);
  EXPECT_EQ(store.read_byte(0x10), 0xCD);
}

TEST(BackingStore, WriteReadRoundTrip) {
  BackingStore store(0, kRange);
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  store.write(0x1000, data);
  std::vector<std::uint8_t> back(5);
  store.read(0x1000, back);
  EXPECT_EQ(back, data);
  EXPECT_EQ(store.bytes_written(), 5u);
}

TEST(BackingStore, CrossPageAccess) {
  BackingStore store(0, kRange);
  const sim::Addr addr = BackingStore::kPageBytes - 2;
  const std::vector<std::uint8_t> data{0xAA, 0xBB, 0xCC, 0xDD};
  store.write(addr, data);
  EXPECT_EQ(store.allocated_pages(), 2u);
  std::vector<std::uint8_t> back(4);
  store.read(addr, back);
  EXPECT_EQ(back, data);
}

TEST(BackingStore, SparseAllocation) {
  BackingStore store(0, (1ULL << 40) + BackingStore::kPageBytes);
  store.write_byte(0, 1);
  store.write_byte(1ULL << 40, 2);  // terabyte apart
  EXPECT_EQ(store.allocated_pages(), 2u);
  EXPECT_EQ(store.read_byte(0), 1);
  EXPECT_EQ(store.read_byte(1ULL << 40), 2);
}

TEST(BackingStore, OverwriteInPlace) {
  BackingStore store(0, kRange);
  store.write_byte(0x10, 0x11);
  store.write_byte(0x10, 0x22);
  EXPECT_EQ(store.read_byte(0x10), 0x22);
  EXPECT_EQ(store.allocated_pages(), 1u);
}

TEST(BackingStore, PeekPokeAliasReadWrite) {
  BackingStore store(0, kRange);
  const std::vector<std::uint8_t> data{9, 8, 7};
  store.poke(0x42, data);
  std::vector<std::uint8_t> back(3);
  store.peek(0x42, back);
  EXPECT_EQ(back, data);
}

TEST(BackingStore, ClearDropsEverything) {
  BackingStore store(0, kRange);
  store.write_byte(5, 1);
  store.clear();
  EXPECT_EQ(store.allocated_pages(), 0u);
  EXPECT_EQ(store.bytes_written(), 0u);
  EXPECT_EQ(store.read_byte(5), 0x00);
}

TEST(BackingStore, LargeMultiPageWrite) {
  BackingStore store(0, kRange);
  std::vector<std::uint8_t> data(3 * BackingStore::kPageBytes + 17);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 13);
  }
  store.write(100, data);
  std::vector<std::uint8_t> back(data.size());
  store.read(100, back);
  EXPECT_EQ(back, data);
  EXPECT_EQ(store.allocated_pages(), 4u);
}

// An immutable image of `pages` pages (plus `extra` bytes) held the way the
// setup cache holds a formatted region.
std::shared_ptr<const std::vector<std::uint8_t>> image(std::size_t pages,
                                                       std::size_t extra = 0) {
  auto bytes = std::make_shared<std::vector<std::uint8_t>>(
      pages * BackingStore::kPageBytes + extra);
  for (std::size_t i = 0; i < bytes->size(); ++i) {
    (*bytes)[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  return bytes;
}

std::vector<std::uint8_t> read_back(const BackingStore& store, sim::Addr addr,
                                    std::size_t len) {
  std::vector<std::uint8_t> out(len);
  store.read(addr, out);
  return out;
}

TEST(BackingStore, SharedRangeReadsLikeAWrite) {
  const auto img = image(3);
  BackingStore store(0, kRange);
  store.share(0x8000, *img, img);
  EXPECT_EQ(read_back(store, 0x8000, img->size()), *img);
  EXPECT_EQ(store.allocated_pages(), 3u);
  EXPECT_EQ(store.shared_pages(), 3u);
  EXPECT_EQ(store.bytes_written(), img->size());
  EXPECT_EQ(store.read_byte(0x8000 - 1), 0x00);  // outside stays fill
}

TEST(BackingStore, WriteAndPokeToASharedPageLeaveTheSnapshotAlone) {
  const auto img = image(4);
  const std::vector<std::uint8_t> pristine = *img;
  BackingStore first(0, kRange);
  BackingStore second(0, kRange);
  first.share(0x10000, *img, img);
  second.share(0x10000, *img, img);

  const std::vector<std::uint8_t> data{0xDE, 0xAD, 0xBE, 0xEF};
  first.write(0x10000 + 5, data);
  first.poke(0x10000 + 2 * BackingStore::kPageBytes + 100, data);
  EXPECT_EQ(first.shared_pages(), 2u);  // two pages copied on first write
  EXPECT_EQ(first.allocated_pages(), 4u);
  EXPECT_EQ(read_back(first, 0x10000 + 5, 4), data);
  EXPECT_EQ(read_back(first, 0x10000 + 2 * BackingStore::kPageBytes + 100, 4),
            data);
  // The rest of a copied page keeps the shared bytes.
  EXPECT_EQ(first.read_byte(0x10000 + 4), (*img)[4]);
  EXPECT_EQ(first.read_byte(0x10000 + 9), (*img)[9]);

  EXPECT_EQ(*img, pristine);
  EXPECT_EQ(read_back(second, 0x10000, img->size()), pristine);
  EXPECT_EQ(second.shared_pages(), 4u);

  // A store built from the snapshot after the writes still sees it intact.
  BackingStore third(0, kRange);
  third.share(0x10000, *img, img);
  EXPECT_EQ(read_back(third, 0x10000, img->size()), pristine);
}

TEST(BackingStore, SharedPagesOutliveTheCallersHandle) {
  BackingStore store(0, kRange);
  std::vector<std::uint8_t> expected;
  {
    const auto img = image(2);
    expected = *img;
    store.share(0, *img, img);
  }  // the store's pages keep the image alive
  EXPECT_EQ(read_back(store, 0, expected.size()), expected);
}

TEST(BackingStore, UnalignedShareWritesItsPartialEdgePages) {
  const auto img = image(2, 100);  // 2 pages + 100 bytes, offset by 50
  BackingStore store(0, kRange);
  store.write_byte(10, 0x77);  // outside the range, on the head page
  const sim::Addr addr = 50;
  store.share(addr, *img, img);
  EXPECT_EQ(read_back(store, addr, img->size()), *img);
  EXPECT_EQ(store.read_byte(10), 0x77);
  // Pages [1, 2) are whole inside the range; page 0 and 2 are edges.
  EXPECT_EQ(store.shared_pages(), 1u);
  EXPECT_EQ(store.allocated_pages(), 3u);
  EXPECT_EQ(store.bytes_written(), 1 + img->size());
}

TEST(BackingStore, ReSharingKeepsOtherPages) {
  const auto a = image(2);
  const auto b = image(1);
  BackingStore store(0, kRange);
  store.share(0, *a, a);
  store.write_byte(BackingStore::kPageBytes + 3, 0x42);  // copies page 1
  store.write_byte(9 * BackingStore::kPageBytes, 0x43);  // outside both shares
  store.share(5 * BackingStore::kPageBytes, *b, b);
  EXPECT_EQ(read_back(store, 0, BackingStore::kPageBytes),
            std::vector<std::uint8_t>(a->begin(),
                                      a->begin() + BackingStore::kPageBytes));
  EXPECT_EQ(store.read_byte(BackingStore::kPageBytes + 3), 0x42);
  EXPECT_EQ(store.read_byte(9 * BackingStore::kPageBytes), 0x43);
  EXPECT_EQ(read_back(store, 5 * BackingStore::kPageBytes, b->size()), *b);
  EXPECT_EQ(store.allocated_pages(), 4u);
  EXPECT_EQ(store.shared_pages(), 2u);  // page 0 of a, page 5 of b

  // Sharing over written pages replaces them.
  store.share(0, *a, a);
  EXPECT_EQ(read_back(store, 0, a->size()), *a);
  EXPECT_EQ(store.allocated_pages(), 4u);
  store.clear();
  EXPECT_EQ(store.allocated_pages(), 0u);
  EXPECT_EQ(store.read_byte(0), 0x00);
}

TEST(BackingStore, PagesCountFromTheBaseOfTheRange) {
  // A device whose base is not page-aligned: its pages start at the base.
  const sim::Addr base = 0x8000'0000 + 100;
  BackingStore store(base, 3 * BackingStore::kPageBytes);
  store.write_byte(base + BackingStore::kPageBytes - 1, 0x11);
  EXPECT_EQ(store.allocated_pages(), 1u);
  store.write_byte(base + BackingStore::kPageBytes, 0x22);
  EXPECT_EQ(store.allocated_pages(), 2u);
  const auto img = image(1);
  store.share(base + 2 * BackingStore::kPageBytes, *img, img);
  EXPECT_EQ(store.shared_pages(), 1u);
  EXPECT_EQ(read_back(store, base + 2 * BackingStore::kPageBytes, img->size()),
            *img);
  EXPECT_EQ(store.read_byte(base), 0x00);
  EXPECT_EQ(store.read_byte(base + BackingStore::kPageBytes - 1), 0x11);
}

TEST(BackingStoreDeathTest, AccessOutsideTheRangeAsserts) {
  BackingStore store(0x1000, 2 * BackingStore::kPageBytes);
  std::vector<std::uint8_t> buf(8);
  EXPECT_DEATH(store.read(0x1000 - 1, buf), "outside its device range");
  EXPECT_DEATH(store.write(0x1000 + 2 * BackingStore::kPageBytes - 4, buf),
               "outside its device range");
  EXPECT_DEATH((void)store.read_byte(0x1000 + 2 * BackingStore::kPageBytes),
               "outside its device range");
}

}  // namespace
}  // namespace secbus::mem
