#include "obs/fleet_timeline.hpp"

#include <map>
#include <tuple>
#include <utility>

#include "obs/chrome_trace.hpp"
#include "util/fileio.hpp"
#include "util/json.hpp"

namespace secbus::obs {
namespace {

using campaign::AuditEvent;
using campaign::AuditRecord;

struct OpenLease {
  std::uint64_t ts = 0;
  int tid = 0;
  std::uint64_t beats = 0;  // heartbeat extensions while held
  bool reassigned = false;
};

}  // namespace

std::string fleet_timeline_json(const std::vector<AuditRecord>& records,
                                FleetTimelineStats* stats) {
  FleetTimelineStats st;

  // Track numbering: workers in order of first appearance.
  std::map<std::string, int> tids;
  std::vector<std::string> track_names;
  const auto tid_of = [&](const std::string& worker) {
    const auto [it, inserted] =
        tids.emplace(worker, static_cast<int>(track_names.size()) + 1);
    if (inserted) track_names.push_back(worker);
    return it->second;
  };
  for (const AuditRecord& r : records) {
    if (!r.worker.empty()) (void)tid_of(r.worker);
  }
  st.tracks = track_names.size();

  ChromeTraceWriter out("secbus fleet", records.size() * 96 + 1024);
  for (std::size_t i = 0; i < track_names.size(); ++i) {
    out.track(i + 1, track_names[i]);
  }

  const auto emit_instant = [&](const AuditRecord& r, int tid,
                                const char* name) {
    std::string& l = out.event('i', static_cast<std::uint64_t>(tid), r.t_ms);
    l += ",\"name\":\"";
    l += name;
    l += "\",\"args\":{\"shard\":";
    append_u64(l, r.shard);
    l += ",\"generation\":";
    append_u64(l, r.generation);
    if (!r.detail.empty()) {
      l += ",\"detail\":";
      util::JsonWriter(l).value(r.detail);
    }
    l += "}}";
    ++st.instants;
  };

  const auto emit_span = [&](const AuditRecord& r, const OpenLease& open,
                             const char* status) {
    std::string& l =
        out.event('X', static_cast<std::uint64_t>(open.tid), open.ts);
    l += ",\"dur\":";
    append_u64(l, r.t_ms - open.ts);
    l += ",\"name\":\"shard ";
    append_u64(l, r.shard);
    l += "\",\"cat\":\"lease\",\"args\":{\"generation\":";
    append_u64(l, r.generation);
    l += ",\"beats\":";
    append_u64(l, open.beats);
    l += ",\"status\":\"";
    l += status;
    if (open.reassigned) l += "\",\"reassigned\":true";
    else l += "\"";
    l += "}}";
    ++st.lease_spans;
  };

  // Keyed by (epoch, shard, generation): generations restart with each
  // server incarnation, so the epoch disambiguates a regranted shard from
  // the lease the dead server left open.
  using LeaseKey = std::tuple<std::uint64_t, std::size_t, std::uint64_t>;
  std::map<LeaseKey, OpenLease> open;

  for (const AuditRecord& r : records) {
    if (r.event == AuditEvent::kServerStart) {
      // Epoch boundary: every lease still open died with the previous
      // server. Close each as a zero-duration "lost" span so the log
      // reconciles across the restart.
      ++st.epochs;
      for (const auto& [key, lease] : open) {
        AuditRecord closer;
        closer.t_ms = lease.ts;
        closer.shard = std::get<1>(key);
        closer.generation = std::get<2>(key);
        emit_span(closer, lease, "lost");
        ++st.lost;
      }
      open.clear();
      continue;
    }
    const int tid = tid_of(r.worker);
    const LeaseKey key{r.epoch, r.shard, r.generation};
    switch (r.event) {
      case AuditEvent::kGrant:
      case AuditEvent::kReassigned:
        open[key] = OpenLease{r.t_ms, tid, 0,
                              r.event == AuditEvent::kReassigned};
        break;
      case AuditEvent::kExtend: {
        const auto it = open.find(key);
        if (it == open.end()) ++st.unmatched;
        else ++it->second.beats;
        ++st.extends;
        break;
      }
      case AuditEvent::kCommit:
      case AuditEvent::kExpire:
      case AuditEvent::kRelease: {
        const auto it = open.find(key);
        if (it == open.end()) {
          ++st.unmatched;
        } else {
          const char* status = r.event == AuditEvent::kCommit ? "committed"
                               : r.event == AuditEvent::kExpire ? "expired"
                                                                : "released";
          emit_span(r, it->second, status);
          if (r.event == AuditEvent::kCommit) ++st.committed;
          else if (r.event == AuditEvent::kExpire) ++st.expired;
          else ++st.released;
          open.erase(it);
        }
        if (r.event == AuditEvent::kExpire) emit_instant(r, tid, "expiry");
        break;
      }
      case AuditEvent::kRefuse:
        emit_instant(r, tid, "refusal");
        break;
      case AuditEvent::kServerStart:
        break;  // handled above the switch
    }
  }
  st.unmatched += open.size();

  if (stats != nullptr) *stats = st;
  return out.finish("1 trace us = 1 fleet ms");
}

bool write_fleet_timeline(const std::string& path,
                          const std::vector<AuditRecord>& records,
                          std::string* error, FleetTimelineStats* stats) {
  return util::write_file(path, fleet_timeline_json(records, stats), error);
}

}  // namespace secbus::obs
