// Lease log: every fleet lease state transition, durably recorded.
//
// The fleet server appends one compact JSON line per lease transition to
// `<campaign>.fleet-audit.jsonl` (flushed per record, same crash posture
// as shard checkpoints): server starts, grants and reassignments,
// heartbeat extensions, expiries, disconnect releases, zombie refusals and
// result commits. Timestamps are *server-relative* milliseconds (transport
// clock minus the server's start instant), so a log replays identically
// under FakeTransport's manual clock and wall time, and two logs from
// different hosts line up at zero.
//
// The log is load-bearing: it is the server's only durable record of
// which shards committed. `campaign serve --resume` replays it
// (replay_lease_log) — committed shards stay done, everything else returns
// to pending — and `campaign timeline` renders the same records as a
// Chrome-trace view (obs/fleet_timeline.hpp). No deterministic artifact
// (cells CSV, campaign JSON, shard files) depends on its contents.
//
// The log survives server restarts: a restarted `campaign serve --resume`
// appends to the same file, opening with a `server_start` record that
// marks the epoch boundary and names the campaign identity the resume was
// checked against (every record carries the writing server's epoch).
// Timestamps restart at zero with each incarnation's clock. A torn tail —
// the server killed mid-append — loses at most the record being written.
//
// Record schema (one JSON object per line):
//   {"t_ms":1234,"event":"grant","shard":2,"generation":1,"epoch":0,
//    "worker":"w1","detail":"..."}            // detail only when non-empty
// plus, on server_start, the campaign identity
//   "campaign":"name","shards":S,"jobs":J,"grid_fp":F
// and, on commit (appended only after the shard file durably wrote),
//   "file":"path"
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/jsonl.hpp"

namespace secbus::campaign {

// Lease transitions, in the lease state machine's vocabulary.
enum class AuditEvent : std::uint8_t {
  kGrant,        // pending shard leased to a worker (first time)
  kReassigned,   // pending shard re-leased after a previous lease was lost
  kExtend,       // heartbeat accepted, deadline pushed out
  kExpire,       // heartbeats stopped, lease returned to pending
  kRelease,      // holder disconnected, lease returned to pending
  kRefuse,       // stale generation or epoch presented (zombie fenced off)
  kCommit,       // shard result file durably written, shard done
  kServerStart,  // a server incarnation opened the log (epoch boundary);
                 // leases open at this point died with the previous server
};

[[nodiscard]] const char* to_string(AuditEvent event) noexcept;
bool parse_audit_event(std::string_view text, AuditEvent& out) noexcept;

struct AuditRecord {
  std::uint64_t t_ms = 0;  // server-relative milliseconds (reset per epoch)
  AuditEvent event = AuditEvent::kGrant;
  std::size_t shard = 0;
  std::uint64_t generation = 0;
  // Server incarnation that wrote this record. The log appends across
  // restarts, so `epoch` is what lets the timeline attribute records to
  // the incarnation whose clock stamped them. Logs from before the epoch
  // field read back as epoch 0.
  std::uint64_t epoch = 0;
  std::string worker;
  std::string detail;  // human-readable context; empty for most records
  // server_start only: the identity of the campaign this incarnation
  // serves. Written only when `campaign` is non-empty.
  std::string campaign;
  std::size_t shards = 0;
  std::size_t jobs = 0;
  std::uint64_t grid_fp = 0;
  // commit only: the shard result file the commit points at.
  std::string file;
};

[[nodiscard]] util::Json audit_record_to_json(const AuditRecord& record);
bool audit_record_from_json(const util::Json& j, AuditRecord& out,
                            std::string* error = nullptr);

// Append-only flushed JSONL writer for audit records. Thin veneer over
// util::JsonlWriter so the fleet server's call sites stay one-liners.
class AuditLog {
 public:
  bool open(const std::string& path) { return writer_.open(path); }
  [[nodiscard]] bool is_open() const noexcept { return writer_.is_open(); }
  [[nodiscard]] bool ok() const noexcept { return writer_.ok(); }

  bool append(const AuditRecord& record) {
    return writer_.append(audit_record_to_json(record));
  }

 private:
  util::JsonlWriter writer_;
};

// Conventional audit-log file name: "<campaign>.fleet-audit.jsonl".
[[nodiscard]] std::string audit_file_name(const std::string& campaign);

// Replays an audit log. Torn or malformed lines are skipped (the log may
// end mid-record if the server was killed); returns false only when the
// file cannot be read at all.
bool read_audit_log(const std::string& path, std::vector<AuditRecord>& out,
                    std::string* error = nullptr);

// --- resume: the lease state a log replays to ---------------------------------

// One committed shard as replayed from the log.
struct LeaseCommit {
  std::uint64_t epoch = 0;
  std::uint64_t generation = 0;
  std::string worker;
  std::string file;  // shard result file path as the committing server wrote it
};

// Everything a restarting server learns from a lease-log replay.
struct LeaseLogState {
  bool any_epoch = false;        // at least one identity-bearing server_start
  std::uint64_t last_epoch = 0;  // highest such epoch seen
  // Identity of the logged campaign (from the first identity-bearing
  // server_start; later ones must agree or replay fails).
  std::string campaign;
  std::size_t shards = 0;
  std::size_t jobs = 0;
  std::uint64_t grid_fp = 0;
  std::map<std::size_t, LeaseCommit> committed;  // shard -> commit

  [[nodiscard]] bool complete() const noexcept {
    return any_epoch && committed.size() == shards;
  }
};

// Folds replayed records into the lease state. Records that carry no
// resume information (leases, refusals, a server_start without identity,
// a commit without a file) are skipped. Returns false when the records
// contradict each other: server_starts with different identities, an
// epoch going backwards, or a commit for an out-of-range shard.
bool replay_lease_log(const std::vector<AuditRecord>& records,
                      LeaseLogState& out, std::string* error = nullptr);

}  // namespace secbus::campaign
