#include "mem/backing_store.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace secbus::mem {

const std::uint8_t* BackingStore::find_page(
    std::uint64_t page_index) const noexcept {
  // Unsigned wrap sends indexes below the window past its end.
  if (page_index - window_first_ < window_.size()) {
    return window_[page_index - window_first_].bytes.get();
  }
  const auto it = pages_.find(page_index);
  return it == pages_.end() ? nullptr : it->second.bytes.get();
}

std::uint8_t* BackingStore::writable_page(std::uint64_t page_index) {
  Page& page = page_index - window_first_ < window_.size()
                   ? window_[page_index - window_first_]
                   : pages_[page_index];
  if (page.own == nullptr) {
    auto copy = std::make_shared<std::array<std::uint8_t, kPageBytes>>();
    if (page.bytes != nullptr) {
      std::memcpy(copy->data(), page.bytes.get(), kPageBytes);
    } else {
      copy->fill(fill_);
    }
    page.own = copy->data();
    page.bytes = std::shared_ptr<const std::uint8_t>(std::move(copy), page.own);
  }
  return page.own;
}

void BackingStore::read(sim::Addr addr, std::span<std::uint8_t> out) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t page_index = (addr + done) / kPageBytes;
    const std::size_t offset = static_cast<std::size_t>((addr + done) % kPageBytes);
    const std::size_t chunk = std::min(out.size() - done, kPageBytes - offset);
    if (const std::uint8_t* page = find_page(page_index); page != nullptr) {
      std::memcpy(out.data() + done, page + offset, chunk);
    } else {
      std::memset(out.data() + done, fill_, chunk);
    }
    done += chunk;
  }
}

void BackingStore::write(sim::Addr addr, std::span<const std::uint8_t> data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t page_index = (addr + done) / kPageBytes;
    const std::size_t offset = static_cast<std::size_t>((addr + done) % kPageBytes);
    const std::size_t chunk = std::min(data.size() - done, kPageBytes - offset);
    std::memcpy(writable_page(page_index) + offset, data.data() + done, chunk);
    done += chunk;
  }
  bytes_written_ += data.size();
}

void BackingStore::share(sim::Addr addr, std::span<const std::uint8_t> data,
                         std::shared_ptr<const void> owner) {
  const std::uint64_t first = (addr + kPageBytes - 1) / kPageBytes;
  const std::uint64_t end = (addr + data.size()) / kPageBytes;
  if (first >= end) {  // no whole page to share
    write(addr, data);
    return;
  }
  const std::size_t head = static_cast<std::size_t>(first * kPageBytes - addr);
  const std::size_t body = static_cast<std::size_t>((end - first) * kPageBytes);
  write(addr, data.first(head));
  write(end * kPageBytes, data.subspan(head + body));
  set_window(first, static_cast<std::size_t>(end - first));
  for (std::size_t i = 0; i < window_.size(); ++i) {
    window_[i].bytes = std::shared_ptr<const std::uint8_t>(
        owner, data.data() + head + i * kPageBytes);
    window_[i].own = nullptr;
  }
  bytes_written_ += body;
}

void BackingStore::set_window(std::uint64_t first, std::size_t count) {
  if (first != window_first_ || count != window_.size()) {
    for (std::size_t i = 0; i < window_.size(); ++i) {
      if (window_[i].bytes != nullptr) {
        pages_[window_first_ + i] = std::move(window_[i]);
      }
    }
    window_first_ = first;
    window_.assign(count, Page{});
    if (!pages_.empty()) {
      for (std::uint64_t p = first; p < first + count; ++p) pages_.erase(p);
    }
  }
}

std::size_t BackingStore::allocated_pages() const noexcept {
  return pages_.size() +
         static_cast<std::size_t>(std::count_if(
             window_.begin(), window_.end(),
             [](const Page& p) { return p.bytes != nullptr; }));
}

std::size_t BackingStore::shared_pages() const noexcept {
  std::size_t shared = 0;
  for (const Page& p : window_) shared += p.bytes != nullptr && p.own == nullptr;
  for (const auto& [index, p] : pages_) shared += p.own == nullptr;
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
  window_.clear();
  window_first_ = 0;
  pages_.clear();
  bytes_written_ = 0;
}

}  // namespace secbus::mem
