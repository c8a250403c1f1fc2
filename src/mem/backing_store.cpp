#include "mem/backing_store.hpp"

#include <algorithm>
#include <cstring>

#include "util/assert.hpp"

namespace secbus::mem {

BackingStore::BackingStore(sim::Addr base, std::uint64_t size)
    : base_(base), size_(size) {
  SECBUS_ASSERT(size > 0, "backing store must have a nonzero range");
  const std::uint64_t pages = (size - 1) / kPageBytes + 1;
  chunks_.resize(static_cast<std::size_t>((pages - 1) / kChunkPages + 1));
}

std::uint64_t BackingStore::offset_of(sim::Addr addr, std::uint64_t len) const {
  SECBUS_ASSERT(addr >= base_ && len <= size_ && addr - base_ <= size_ - len,
                "backing-store access outside its device range");
  return addr - base_;
}

const std::uint8_t* BackingStore::find_page(
    std::uint64_t page_index) const noexcept {
  const Chunk* chunk = chunks_[page_index >> kChunkShift].get();
  return chunk == nullptr ? nullptr : (*chunk)[page_index & (kChunkPages - 1)].bytes;
}

BackingStore::Slot& BackingStore::slot(std::uint64_t page_index) {
  std::unique_ptr<Chunk>& chunk = chunks_[page_index >> kChunkShift];
  if (chunk == nullptr) chunk = std::make_unique<Chunk>();
  return (*chunk)[page_index & (kChunkPages - 1)];
}

std::uint8_t* BackingStore::writable_page(std::uint64_t page_index) {
  Slot& page = slot(page_index);
  if (page.own == nullptr) {
    page.own = std::make_unique_for_overwrite<std::uint8_t[]>(kPageBytes);
    if (page.bytes != nullptr) {
      std::memcpy(page.own.get(), page.bytes, kPageBytes);
    } else {
      std::memset(page.own.get(), fill_, kPageBytes);
    }
    page.bytes = page.own.get();
  }
  return page.own.get();
}

// read() and write() copy with std::copy_n, not memcpy: GCC expands a
// memcpy it knows is at most a page long into `rep movsq`, whose start-up
// cost dominates the line-sized copies of a bus access; copy_n stays a
// library call.
void BackingStore::read(sim::Addr addr, std::span<std::uint8_t> out) const {
  std::uint64_t at = offset_of(addr, out.size());
  std::size_t done = 0;
  while (done < out.size()) {
    const std::size_t offset = static_cast<std::size_t>(at & (kPageBytes - 1));
    const std::size_t chunk = std::min(out.size() - done, kPageBytes - offset);
    if (const std::uint8_t* page = find_page(at >> kPageShift); page != nullptr) {
      std::copy_n(page + offset, chunk, out.data() + done);
    } else {
      std::memset(out.data() + done, fill_, chunk);
    }
    done += chunk;
    at += chunk;
  }
}

void BackingStore::write(sim::Addr addr, std::span<const std::uint8_t> data) {
  std::uint64_t at = offset_of(addr, data.size());
  std::size_t done = 0;
  while (done < data.size()) {
    const std::size_t offset = static_cast<std::size_t>(at & (kPageBytes - 1));
    const std::size_t chunk = std::min(data.size() - done, kPageBytes - offset);
    std::copy_n(data.data() + done, chunk, writable_page(at >> kPageShift) + offset);
    done += chunk;
    at += chunk;
  }
  bytes_written_ += data.size();
}

void BackingStore::share(sim::Addr addr, std::span<const std::uint8_t> data,
                         std::shared_ptr<const void> owner) {
  const std::uint64_t at = offset_of(addr, data.size());
  const std::uint64_t first = (at + kPageBytes - 1) >> kPageShift;
  const std::uint64_t end = (at + data.size()) >> kPageShift;
  if (first >= end) {  // no whole page to share
    write(addr, data);
    return;
  }
  const std::size_t head = static_cast<std::size_t>((first << kPageShift) - at);
  const std::size_t body = static_cast<std::size_t>((end - first) << kPageShift);
  write(addr, data.first(head));
  write(base_ + (end << kPageShift), data.subspan(head + body));
  for (std::uint64_t p = first; p < end; ++p) {
    Slot& page = slot(p);
    page.own.reset();
    page.bytes = data.data() + head + ((p - first) << kPageShift);
  }
  owners_.push_back(std::move(owner));
  bytes_written_ += body;
}

std::size_t BackingStore::allocated_pages() const noexcept {
  std::size_t allocated = 0;
  for (const auto& chunk : chunks_) {
    if (chunk == nullptr) continue;
    for (const Slot& p : *chunk) allocated += p.bytes != nullptr;
  }
  return allocated;
}

std::size_t BackingStore::shared_pages() const noexcept {
  std::size_t shared = 0;
  for (const auto& chunk : chunks_) {
    if (chunk == nullptr) continue;
    for (const Slot& p : *chunk) shared += p.bytes != nullptr && p.own == nullptr;
  }
  return shared;
}

std::uint8_t BackingStore::read_byte(sim::Addr addr) const {
  std::uint8_t b;
  read(addr, std::span<std::uint8_t>(&b, 1));
  return b;
}

void BackingStore::write_byte(sim::Addr addr, std::uint8_t value) {
  write(addr, std::span<const std::uint8_t>(&value, 1));
}

void BackingStore::clear() {
  for (auto& chunk : chunks_) chunk.reset();
  owners_.clear();
  bytes_written_ = 0;
}

}  // namespace secbus::mem
