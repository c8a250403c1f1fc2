#include "obs/trace_export.hpp"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "util/fileio.hpp"

namespace secbus::obs {
namespace {

void append_hex(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%" PRIx64, v);
  out += buf;
}

struct OpenSpan {
  sim::Cycle ts = 0;
  sim::Addr addr = 0;
  std::uint64_t detail = 0;  // bytes (bus) — check spans ignore it
};

struct Lifecycle {
  sim::Cycle begin_ts = 0;
  int tid = 0;  // issuing firewall's track
  sim::Cycle end_ts = 0;
  bool ended = false;
  bool discarded = false;
};

}  // namespace

std::string chrome_trace_json(const sim::EventTrace& trace,
                              TraceExportStats* stats) {
  TraceExportStats st;
  const std::vector<sim::TraceEvent> events = trace.snapshot();

  // Track numbering: first appearance in the event stream. Sources are
  // interned by the trace, so pointer identity is content identity.
  std::map<std::string_view, int> tids;
  std::vector<std::string_view> track_names;
  const auto tid_of = [&](const char* source) {
    const auto [it, inserted] =
        tids.emplace(std::string_view(source),
                     static_cast<int>(track_names.size()) + 1);
    if (inserted) track_names.push_back(it->first);
    return it->second;
  };
  for (const sim::TraceEvent& ev : events) (void)tid_of(ev.source);
  st.tracks = track_names.size();

  ChromeTraceWriter out("secbus", events.size() * 96 + 1024);
  for (std::size_t i = 0; i < track_names.size(); ++i) {
    out.track(i + 1, track_names[i]);
  }

  std::map<std::pair<int, sim::TransactionId>, OpenSpan> open_bus;
  std::map<std::pair<int, sim::TransactionId>, OpenSpan> open_check;
  std::map<sim::TransactionId, Lifecycle> lifecycles;

  const auto emit_instant = [&](const sim::TraceEvent& ev, int tid) {
    std::string& l = out.event('i', static_cast<std::uint64_t>(tid), ev.cycle);
    l += ",\"name\":\"";
    l += sim::to_string(ev.kind);
    l += "\",\"args\":{\"trans\":";
    append_u64(l, ev.trans);
    l += ",\"addr\":\"";
    append_hex(l, ev.addr);
    l += "\",\"detail\":";
    append_u64(l, ev.detail);
    l += "}}";
    ++st.instants;
    if (ev.kind == sim::TraceKind::kAlert) ++st.alert_instants;
  };

  const auto emit_span = [&](int tid, const OpenSpan& open, sim::Cycle end,
                             const char* name, const char* cat,
                             const char* detail_key, std::uint64_t detail,
                             sim::TransactionId trans) {
    std::string& l = out.event('X', static_cast<std::uint64_t>(tid), open.ts);
    l += ",\"dur\":";
    append_u64(l, end - open.ts);
    l += ",\"name\":\"";
    l += name;
    l += "\",\"cat\":\"";
    l += cat;
    l += "\",\"args\":{\"trans\":";
    append_u64(l, trans);
    l += ",\"addr\":\"";
    append_hex(l, open.addr);
    l += "\",\"";
    l += detail_key;
    l += "\":";
    append_u64(l, detail);
    l += "}}";
  };

  for (const sim::TraceEvent& ev : events) {
    const int tid = tid_of(ev.source);
    switch (ev.kind) {
      case sim::TraceKind::kTransIssued: {
        Lifecycle& life = lifecycles[ev.trans];
        life.begin_ts = ev.cycle;
        life.tid = tid;
        life.ended = false;
        break;
      }
      case sim::TraceKind::kSecpolReq:
        open_check[{tid, ev.trans}] = OpenSpan{ev.cycle, ev.addr, ev.detail};
        break;
      case sim::TraceKind::kCheckResult: {
        const auto it = open_check.find({tid, ev.trans});
        if (it == open_check.end()) {
          ++st.unmatched;
          break;
        }
        emit_span(tid, it->second, ev.cycle, "check", "firewall", "violation",
                  ev.detail, ev.trans);
        open_check.erase(it);
        ++st.check_spans;
        break;
      }
      case sim::TraceKind::kTransOnBus:
        open_bus[{tid, ev.trans}] = OpenSpan{ev.cycle, ev.addr, ev.detail};
        break;
      case sim::TraceKind::kTransComplete: {
        const auto it = open_bus.find({tid, ev.trans});
        if (it == open_bus.end()) {
          ++st.unmatched;
        } else {
          emit_span(tid, it->second, ev.cycle, "txn", "bus", "status",
                    ev.detail, ev.trans);
          open_bus.erase(it);
          ++st.bus_spans;
        }
        if (const auto life = lifecycles.find(ev.trans);
            life != lifecycles.end()) {
          // A bridged transaction completes once per segment; the lifecycle
          // closes at the last retirement seen.
          life->second.end_ts = ev.cycle;
          life->second.ended = true;
        }
        break;
      }
      case sim::TraceKind::kTransDiscarded: {
        emit_instant(ev, tid);
        if (const auto life = lifecycles.find(ev.trans);
            life != lifecycles.end()) {
          life->second.end_ts = ev.cycle;
          life->second.ended = true;
          life->second.discarded = true;
        }
        break;
      }
      case sim::TraceKind::kAlert:
      case sim::TraceKind::kCipherOp:
      case sim::TraceKind::kIntegrityOp:
      case sim::TraceKind::kPolicyUpdate:
      case sim::TraceKind::kAttackAction:
        emit_instant(ev, tid);
        break;
    }
  }

  // Issue-to-retirement async spans, flushed in transaction-id order.
  for (const auto& [trans, life] : lifecycles) {
    if (!life.ended) {
      ++st.unmatched;
      continue;
    }
    for (const char ph : {'b', 'e'}) {
      std::string& l =
          out.event(ph, static_cast<std::uint64_t>(life.tid),
                    ph == 'b' ? life.begin_ts : life.end_ts);
      l += ",\"cat\":\"txn\",\"id\":\"";
      append_hex(l, trans);
      l += "\",\"name\":\"";
      l += life.discarded ? "txn-discarded" : "txn-life";
      l += "\"}";
    }
    ++st.lifecycle_spans;
  }
  st.unmatched += open_bus.size() + open_check.size();

  if (stats != nullptr) *stats = st;
  return out.finish("1 trace us = 1 bus cycle");
}

bool write_chrome_trace(const std::string& path, const sim::EventTrace& trace,
                        std::string* error, TraceExportStats* stats) {
  return util::write_file(path, chrome_trace_json(trace, stats), error);
}

}  // namespace secbus::obs
