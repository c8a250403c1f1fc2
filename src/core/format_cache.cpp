#include "core/format_cache.hpp"

#include "obs/registry.hpp"
#include "util/bitops.hpp"
#include "util/stats.hpp"

namespace secbus::core {

std::size_t FormatCache::KeyHash::operator()(
    const FormatKey& key) const noexcept {
  std::uint64_t h = util::kFnv1aOffset;
  h = util::fnv1a_64(h, &key.protected_base, sizeof key.protected_base);
  h = util::fnv1a_64(h, &key.protected_size, sizeof key.protected_size);
  h = util::fnv1a_64(h, &key.line_bytes, sizeof key.line_bytes);
  const std::uint8_t ciphered = key.ciphered ? 1 : 0;
  h = util::fnv1a_64(h, &ciphered, 1);
  h = util::fnv1a_64(h, key.key.data(), key.key.size());
  return static_cast<std::size_t>(h);
}

FormatCache& FormatCache::instance() {
  static FormatCache cache;
  return cache;
}

std::shared_ptr<const FormatSnapshot> FormatCache::find(const FormatKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return it->second;
}

void FormatCache::insert(const FormatKey& key,
                         std::shared_ptr<const FormatSnapshot> snap) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (snap == nullptr) return;
  if (!entries_.emplace(key, std::move(snap)).second) return;  // first wins
  insertion_order_.push_back(key);
  ++stats_.insertions;
  while (entries_.size() > kMaxEntries) {
    entries_.erase(insertion_order_.front());
    insertion_order_.pop_front();
    ++stats_.evictions;
  }
}

void FormatCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  insertion_order_.clear();
  stats_ = {};
}

FormatCache::Stats FormatCache::stats() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void FormatCache::contribute_metrics(obs::Registry& reg,
                                     const std::string& prefix) {
  const Stats s = stats();
  reg.counter(prefix + ".hits", s.hits);
  reg.counter(prefix + ".misses", s.misses);
  reg.counter(prefix + ".insertions", s.insertions);
  reg.counter(prefix + ".evictions", s.evictions);
  reg.gauge(prefix + ".hit_rate",
            util::safe_ratio(static_cast<double>(s.hits),
                             static_cast<double>(s.hits + s.misses)));
}

}  // namespace secbus::core
