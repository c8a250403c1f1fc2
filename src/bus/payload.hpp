// Small-buffer payload storage for bus transactions.
//
// Nearly every transaction in the case-study SoC carries at most a few bus
// beats (16 bytes at the default 4-beat burst) or one LCF line (32–64
// bytes); storing that in a std::vector made every transaction — and every
// queue hop, since transactions move through firewall/bus queues by value —
// a heap allocation. Payload keeps up to kPayloadInlineBytes inline and only
// falls back to a heap buffer beyond that (e.g. 128-byte line sweeps), which
// removes allocation from the simulator's steady-state loop.
//
// The API is the std::vector subset the codebase uses; resize() matches
// vector semantics (appended bytes are zero), and equality against
// std::vector keeps tests and attack-outcome checks unchanged. Only the
// live storage is initialised or copied: a new payload leaves the inline
// buffer unfilled, and a copy or move takes the inline buffer or the heap
// vector, whichever holds the bytes, never both.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

namespace secbus::bus {

inline constexpr std::size_t kPayloadInlineBytes = 64;

class Payload {
 public:
  // User-provided, so value-initialisation does not zero the buffer either.
  Payload() noexcept {}  // NOLINT(modernize-use-equals-default)

  // Implicit on purpose: adopts a vector (moves the buffer when it is big
  // enough to live on the heap anyway) so call sites keep passing
  // std::vector literals.
  Payload(std::vector<std::uint8_t> bytes) {  // NOLINT(google-explicit-constructor)
    if (bytes.size() <= kPayloadInlineBytes) {
      size_ = bytes.size();
      if (size_ > 0) std::memcpy(inline_.data(), bytes.data(), size_);
    } else {
      heap_ = std::move(bytes);
      size_ = heap_.size();
    }
  }

  explicit Payload(std::span<const std::uint8_t> bytes) { assign(bytes); }

  Payload(std::initializer_list<std::uint8_t> bytes) {
    assign(std::span<const std::uint8_t>(bytes.begin(), bytes.size()));
  }

  Payload(const Payload& other) : size_(other.size_) {
    if (inline_held()) {
      inline_ = other.inline_;
    } else {
      heap_ = other.heap_;
    }
  }
  Payload& operator=(const Payload& other) {
    if (this != &other) {
      if (other.inline_held()) {
        inline_ = other.inline_;
      } else {
        heap_ = other.heap_;
      }
      size_ = other.size_;
    }
    return *this;
  }
  // The source reads empty afterwards.
  Payload(Payload&& other) noexcept : size_(other.size_) {
    if (inline_held()) {
      inline_ = other.inline_;
    } else {
      heap_ = std::move(other.heap_);
    }
    other.size_ = 0;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      if (other.inline_held()) {
        inline_ = other.inline_;
      } else {
        heap_ = std::move(other.heap_);
      }
      size_ = other.size_;
      other.size_ = 0;
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::uint8_t* data() noexcept {
    return inline_held() ? inline_.data() : heap_.data();
  }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return inline_held() ? inline_.data() : heap_.data();
  }
  [[nodiscard]] std::uint8_t* begin() noexcept { return data(); }
  [[nodiscard]] std::uint8_t* end() noexcept { return data() + size_; }
  [[nodiscard]] const std::uint8_t* begin() const noexcept { return data(); }
  [[nodiscard]] const std::uint8_t* end() const noexcept { return data() + size_; }
  [[nodiscard]] std::uint8_t& operator[](std::size_t i) noexcept { return data()[i]; }
  [[nodiscard]] const std::uint8_t& operator[](std::size_t i) const noexcept {
    return data()[i];
  }

  void clear() noexcept { size_ = 0; }

  // vector::resize semantics: bytes appended beyond the old size read 0.
  void resize(std::size_t n) {
    if (n <= kPayloadInlineBytes) {
      if (size_ > kPayloadInlineBytes) {
        std::memcpy(inline_.data(), heap_.data(), n);
      } else if (n > size_) {
        std::memset(inline_.data() + size_, 0, n - size_);
      }
    } else {
      if (size_ <= kPayloadInlineBytes) {
        heap_.assign(inline_.data(), inline_.data() + size_);
      }
      heap_.resize(n);
    }
    size_ = n;
  }

  void assign(std::span<const std::uint8_t> bytes) {
    if (bytes.size() <= kPayloadInlineBytes) {
      if (!bytes.empty()) std::memcpy(inline_.data(), bytes.data(), bytes.size());
    } else {
      heap_.assign(bytes.begin(), bytes.end());
    }
    size_ = bytes.size();
  }

  // Iterator-range assign over any contiguous byte range (vector iterators,
  // pointers). Integral arguments route to the (count, value) overload.
  template <typename It, typename = std::enable_if_t<!std::is_integral_v<It>>>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(last - first);
    if (n == 0) {
      size_ = 0;
      return;
    }
    assign(std::span<const std::uint8_t>(&*first, n));
  }

  void assign(std::size_t n, std::uint8_t value) {
    if (n <= kPayloadInlineBytes) {
      std::memset(inline_.data(), value, n);
    } else {
      heap_.assign(n, value);
    }
    size_ = n;
  }

  [[nodiscard]] std::span<const std::uint8_t> span() const noexcept {
    return {data(), size_};
  }
  [[nodiscard]] std::span<std::uint8_t> span() noexcept { return {data(), size_}; }

  friend bool operator==(const Payload& a, const Payload& b) noexcept {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }
  friend bool operator==(const Payload& a,
                         const std::vector<std::uint8_t>& b) noexcept {
    return a.size_ == b.size() &&
           (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }

 private:
  // The bytes live in inline_ (else in heap_, whose size is then size_).
  [[nodiscard]] bool inline_held() const noexcept {
    return size_ <= kPayloadInlineBytes;
  }

  std::size_t size_ = 0;
  // Bytes past size_ are indeterminate: copies carry them, nothing reads them.
  std::array<std::uint8_t, kPayloadInlineBytes> inline_;
  std::vector<std::uint8_t> heap_;  // holds the bytes only while size_ > inline
};

}  // namespace secbus::bus
