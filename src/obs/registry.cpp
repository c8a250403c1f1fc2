#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace secbus::obs {

void Registry::counter(std::string name, std::uint64_t value) {
  Metric m;
  m.name = std::move(name);
  m.is_counter = true;
  m.count = value;
  metrics_.push_back(std::move(m));
}

void Registry::gauge(std::string name, double value) {
  Metric m;
  m.name = std::move(name);
  m.is_counter = false;
  m.value = value;
  metrics_.push_back(std::move(m));
}

void Registry::stat(const std::string& prefix, const util::RunningStat& s) {
  counter(prefix + ".count", s.count());
  if (s.count() == 0) return;
  gauge(prefix + ".mean", s.mean());
  gauge(prefix + ".min", s.min());
  gauge(prefix + ".max", s.max());
}

void Registry::hist(const std::string& prefix, const util::LatencyHistogram& h) {
  counter(prefix + ".count", h.count());
  if (h.count() == 0) return;
  gauge(prefix + ".mean", h.mean());
  counter(prefix + ".p50", h.p50());
  counter(prefix + ".p95", h.p95());
  counter(prefix + ".p99", h.p99());
  counter(prefix + ".max", h.max());
}

const Metric* Registry::find(std::string_view name) const noexcept {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::uint64_t Registry::counter_value(std::string_view name) const noexcept {
  const Metric* m = find(name);
  return (m != nullptr && m->is_counter) ? m->count : 0;
}

double Registry::value(std::string_view name) const noexcept {
  const Metric* m = find(name);
  if (m == nullptr) return 0.0;
  return m->is_counter ? static_cast<double>(m->count) : m->value;
}

void Registry::write_json(util::JsonWriter& w) const {
  std::vector<const Metric*> order;
  order.reserve(metrics_.size());
  for (const Metric& m : metrics_) order.push_back(&m);
  std::sort(order.begin(), order.end(),
            [](const Metric* a, const Metric* b) { return a->name < b->name; });
  w.begin_object();
  const Metric* prev = nullptr;
  for (const Metric* m : order) {
    SECBUS_ASSERT(prev == nullptr || prev->name != m->name,
                  m->name.c_str());
    prev = m;
    w.key(m->name);
    if (m->is_counter) {
      w.value(m->count);
    } else {
      w.value(m->value);
    }
  }
  w.end_object();
}

util::Json Registry::to_json() const {
  return util::written_tree([this](util::JsonWriter& w) { write_json(w); });
}

bool Registry::from_json(const util::Json& j, Registry& out,
                         std::string* error) {
  const std::string text = j.dump(0);
  util::JsonReader r(text);
  if (read_json(r, out) && r.finish()) return true;
  if (error != nullptr) *error = "metrics: " + r.error();
  return false;
}

bool Registry::read_json(util::JsonReader& r, Registry& out) {
  out.clear();
  if (!r.begin_object()) return false;
  std::string_view name;
  while (r.next_key(name)) {
    std::string key(name);
    util::Json value;
    if (!r.read(value)) return r.context(key);
    std::uint64_t u = 0;
    if (value.is_integer() && value.to_u64(u)) {
      out.counter(std::move(key), u);
    } else if (value.is_number() && std::isfinite(value.as_double())) {
      out.gauge(std::move(key), value.as_double());
    } else {
      r.fail("expected a finite number");
      return r.context(key);
    }
  }
  if (!r.ok()) return false;
  // write_json asserts unique names, so a repeat must not get this far.
  std::vector<std::string_view> names;
  names.reserve(out.metrics_.size());
  for (const Metric& m : out.metrics_) names.push_back(m.name);
  std::sort(names.begin(), names.end());
  const auto repeat = std::adjacent_find(names.begin(), names.end());
  if (repeat != names.end()) {
    return r.fail("duplicate metric \"" + std::string(*repeat) + "\"");
  }
  return true;
}

}  // namespace secbus::obs
