// Sparse byte-addressable backing store for memory models.
//
// Pages are allocated on first touch so multi-gigabyte address spaces cost
// only what the workload touches. The store also exposes peek/poke, which the
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

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "sim/types.hpp"

namespace secbus::mem {

class BackingStore {
 public:
  static constexpr std::size_t kPageBytes = 4096;

  BackingStore() = default;
  // A copy would alias the pages this store writes in place.
  BackingStore(const BackingStore&) = delete;
  BackingStore& operator=(const BackingStore&) = delete;

  // Reads `out.size()` bytes starting at addr; untouched pages read as the
  // fill byte (0x00 by default).
  void read(sim::Addr addr, std::span<std::uint8_t> out) const;

  // Writes bytes starting at addr, allocating pages as needed.
  void write(sim::Addr addr, std::span<const std::uint8_t> data);

  // Stores `data` at addr like write(), but every page it covers whole
  // aliases `data` (kept alive by `owner`) until that page's first write or
  // poke copies it; partial pages at either end are written. `data` must
  // not change while `owner` lives. The range becomes the store's flat page
  // index: lookups inside it skip the hash map.
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
  // kPageBytes readable bytes: the store's own copy (`own` set, and equal
  // to bytes.get()) or shared ones. Both null while the page is untouched.
  struct Page {
    std::shared_ptr<const std::uint8_t> bytes;
    std::uint8_t* own = nullptr;
  };

  [[nodiscard]] const std::uint8_t* find_page(std::uint64_t page_index) const noexcept;
  // The page's bytes for writing: copied first if shared, created filled if
  // untouched.
  std::uint8_t* writable_page(std::uint64_t page_index);
  // Makes [first, first + count) the flat window. When it moves, pages
  // leaving it go to the map and pages entering it are dropped (share()
  // replaces them all).
  void set_window(std::uint64_t first, std::size_t count);

  std::uint64_t window_first_ = 0;  // page index of window_[0]
  std::vector<Page> window_;        // the flat page index over the shared range
  std::unordered_map<std::uint64_t, Page> pages_;  // every page outside it
  std::uint64_t bytes_written_ = 0;
  std::uint8_t fill_ = 0x00;
};

}  // namespace secbus::mem
