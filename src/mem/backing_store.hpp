// Sparse byte-addressable backing store for memory models.
//
// A store covers its device's address range [base, base + size) with one
// page table indexed by (addr - base) / kPageBytes. The table is split in
// chunks of slots, each allocated on the first write into it, and pages are
// allocated on their first write: a multi-gigabyte device costs a pointer
// per chunk plus what the workload touches. An address outside the range is
// a simulator bug and asserts. The store also exposes peek/poke, which the
// attack framework uses to model *physical* tampering with the external
// memory (Section III.B: the attacker reaches the system only through the
// external bus and external memory) — peek/poke bypass the bus, the
// firewalls, and all timing, exactly like a probe on the DDR pins.
//
// A range can also be shared instead of written (share()): its pages then
// read bytes another owner keeps immutable — the setup cache's formatted
// image — and each is copied into the store on its first write or poke. A
// job pays for the pages it writes, not for the whole formatted region, and
// the shared bytes never change under any other reader.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace secbus::mem {

class BackingStore {
 public:
  static constexpr std::size_t kPageBytes = 4096;

  // Covers [base, base + size); size must be nonzero.
  BackingStore(sim::Addr base, std::uint64_t size);
  // A copy would alias the pages this store writes in place.
  BackingStore(const BackingStore&) = delete;
  BackingStore& operator=(const BackingStore&) = delete;

  // Reads `out.size()` bytes starting at addr; untouched pages read as the
  // fill byte (0x00 by default).
  void read(sim::Addr addr, std::span<std::uint8_t> out) const;

  // Writes bytes starting at addr, allocating pages as needed.
  void write(sim::Addr addr, std::span<const std::uint8_t> data);

  // Stores `data` at addr like write(), but every page it covers whole
  // points at `data` until that page's first write or poke copies it;
  // partial pages at either end are written. `data` must not change while
  // `owner` lives; the store keeps `owner` until clear() or destruction.
  void share(sim::Addr addr, std::span<const std::uint8_t> data,
             std::shared_ptr<const void> owner);

  [[nodiscard]] std::uint8_t read_byte(sim::Addr addr) const;
  void write_byte(sim::Addr addr, std::uint8_t value);

  // Attack-framework aliases: identical to read/write but kept separate so
  // call sites make tampering explicit and countable.
  void peek(sim::Addr addr, std::span<std::uint8_t> out) const { read(addr, out); }
  void poke(sim::Addr addr, std::span<const std::uint8_t> data) { write(addr, data); }

  // Pages holding data: written, or shared and not yet copied.
  [[nodiscard]] std::size_t allocated_pages() const noexcept;
  // Pages still reading shared bytes (never written since share()).
  [[nodiscard]] std::size_t shared_pages() const noexcept;
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_written_; }

  void set_fill_byte(std::uint8_t fill) noexcept { fill_ = fill; }

  void clear();

 private:
  static constexpr unsigned kPageShift = 12;
  static constexpr unsigned kChunkShift = 9;  // 512 pages (2 MiB) per chunk
  static constexpr std::size_t kChunkPages = std::size_t{1} << kChunkShift;
  static_assert(kPageBytes == std::size_t{1} << kPageShift);

  // One page: null while untouched, else kPageBytes readable bytes, the
  // store's own copy (`own`) or shared ones.
  struct Slot {
    const std::uint8_t* bytes = nullptr;
    std::unique_ptr<std::uint8_t[]> own;
  };
  using Chunk = std::array<Slot, kChunkPages>;

  // addr - base, asserting [addr, addr + len) lies inside the range.
  [[nodiscard]] std::uint64_t offset_of(sim::Addr addr, std::uint64_t len) const;
  [[nodiscard]] const std::uint8_t* find_page(std::uint64_t page_index) const noexcept;
  Slot& slot(std::uint64_t page_index);
  // The page's bytes for writing: copied first if shared, created filled if
  // untouched.
  std::uint8_t* writable_page(std::uint64_t page_index);

  sim::Addr base_;
  std::uint64_t size_;
  std::vector<std::unique_ptr<Chunk>> chunks_;       // null until written
  std::vector<std::shared_ptr<const void>> owners_;  // of shared bytes
  std::uint64_t bytes_written_ = 0;
  std::uint8_t fill_ = 0x00;
};

}  // namespace secbus::mem
