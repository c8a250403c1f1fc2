// Fault-tolerant campaign fleet: shard leases, heartbeats, reassignment.
//
// `secbus_cli campaign serve` runs a FleetServer: it owns the expanded
// campaign grid and hands out *shard leases* to `campaign worker`
// processes over TCP (net/transport.hpp). Each lease carries a generation
// counter; the worker heartbeats (shard, generation, ProgressRecord) while
// it runs, and the server mirrors those heartbeats into ordinary progress
// sidecars so `campaign status` renders a remote fleet exactly like a
// local --shard run. A lease whose heartbeats stop for `lease_timeout_ms`
// expires: the shard returns to the pending pool and is granted to the
// next live worker. Because shard checkpoints are crash-safe JSONL
// (shard.hpp), reassignment is a *resume* — the replacement worker skips
// every job the dead worker durably recorded — and the merged fleet
// output stays byte-identical to a single-process `campaign run`.
//
// Generations make reassignment safe against zombies: a worker that lost
// its lease (crash-recovered, network-partitioned, or paused past the
// timeout) presents a stale generation on its next heartbeat or
// shard_done, gets a `refuse` with drop=true, discards the shard, and
// asks for new work. Exactly one result per shard is ever accepted.
//
// Layering (top to bottom):
//   * FleetServer / run_fleet_worker — protocol endpoints;
//   * LeaseManager — the pure lease state machine (clock injected, no
//     I/O), unit-tested over net/fake_transport.hpp;
//   * fleet_msg — the wire vocabulary, shared by both endpoints and the
//     protocol tests.
//
// Wire protocol (length-prefixed JSON frames, net/frame.hpp), version 1:
//   worker -> server: hello{worker,protocol[,backend]} request{}
//                     heartbeat{shard,generation,progress[,snapshot,epoch]}
//                     shard_done{shard,generation,progress,file[,epoch]}
//   server -> worker: campaign{name,campaign,grid,shards,grid_fingerprint,
//                              heartbeat_ms,lease_timeout_ms[,epoch]}
//                     grant{shard,generation[,epoch]} wait{poll_ms}
//                     refuse{shard,reason,drop} done{} error{message}
// `backend` and `snapshot` are optional (both sides use find()), so v1
// stays wire-compatible: `backend` names the worker's crypto datapaths
// (e.g. "aes-ni+sha-ni") for /status, `snapshot` piggybacks the worker's
// obs::Registry metrics (telemetry.hpp worker_metrics_snapshot) that the
// server merges into the fleet-level registry behind /metrics.
//
// Restart survival (the second fencing dimension): the server appends every
// lease transition to a crash-safe lease log ("<campaign>.fleet-audit.jsonl",
// campaign/audit.hpp) whose server_start records carry its identity and
// whose commit records name every durably written shard file. A killed
// server restarted with `--resume` replays the log — committed shards stay
// done, everything else returns to pending — and bumps its *epoch* (fresh
// server: 0; resume: last logged + 1). Every grant
// carries the epoch; heartbeats and shard_done echo it; a result minted
// under a previous incarnation presents a stale epoch and is refused with
// drop=true exactly like a stale generation. `epoch` is optional on the
// wire (absent reads as 0), so v1 endpoints interoperate: a fresh server
// is epoch 0 and old workers never cross a restart without reconnecting.
//
// Observability plane (the deterministic artifacts never depend on it):
//   * the lease log's server-relative timestamps feed `campaign timeline`;
//   * fleet_registry() merges the latest worker snapshots under
//     fleet.worker<ordinal>.* / fleet.total.* for the Prometheus text
//     exposition (obs/exposition.hpp);
//   * status_json() is the /status document: the live lease table plus
//     per-worker liveness, rendered by `campaign top`.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/audit.hpp"
#include "campaign/campaign.hpp"
#include "campaign/chaos.hpp"
#include "campaign/shard.hpp"
#include "campaign/telemetry.hpp"
#include "net/transport.hpp"
#include "obs/registry.hpp"

namespace secbus::campaign {

inline constexpr std::uint64_t kFleetProtocolVersion = 1;

// --- grid shaping -----------------------------------------------------------

// The CLI batch options that change what a campaign grid *means* (not just
// how it is executed). The server announces them in the campaign message
// and every worker applies them identically before fingerprint-checking
// the expanded grid — so `--repeats`/`--max-cycles` drift between fleet
// participants is caught up front, not discovered at merge time.
struct FleetGridOptions {
  std::uint64_t repeats = 1;
  std::uint64_t max_cycles = 0;  // 0 = keep each spec's cap
  bool collect_metrics = false;
};

[[nodiscard]] util::Json fleet_grid_to_json(const FleetGridOptions& grid);
bool fleet_grid_from_json(const util::Json& j, FleetGridOptions& out,
                          std::string* error);

// expand_campaign + seed replication + cycle-cap override. Single source
// of truth for `run`, `campaign run` and both fleet endpoints, so shard
// fingerprints and job order agree across processes.
[[nodiscard]] std::vector<scenario::ScenarioSpec> expand_fleet_grid(
    const CampaignSpec& campaign, const FleetGridOptions& grid);

// --- wire messages ----------------------------------------------------------

namespace fleet_msg {

// Announces identity, protocol version and (for /status) the crypto
// datapaths in use.
[[nodiscard]] util::Json hello(const std::string& worker);
[[nodiscard]] util::Json request();
// `snapshot`, when non-null and non-empty, rides along as the worker's
// current metrics registry (flat JSON, Registry::to_json). `epoch` echoes
// the server incarnation that granted the lease (0 against a fresh
// server, which is why it can default).
[[nodiscard]] util::Json heartbeat(std::size_t shard, std::uint64_t generation,
                                   const ProgressRecord& progress,
                                   const obs::Registry* snapshot = nullptr,
                                   std::uint64_t epoch = 0);
// Streamed straight to compact text (the result file is the bulk of it);
// send with net::encode_frame + send_frame.
[[nodiscard]] std::string shard_done(std::size_t shard,
                                     std::uint64_t generation,
                                     const ProgressRecord& progress,
                                     const ShardResultFile& file,
                                     std::uint64_t epoch = 0);

// Message "type" field, or "" for a non-object / untyped message.
[[nodiscard]] std::string type_of(const util::Json& message);

}  // namespace fleet_msg

// --- lease state machine ----------------------------------------------------

struct LeaseGrant {
  std::size_t shard = 0;
  std::uint64_t generation = 0;
  // True when this shard had been granted before (its previous lease
  // expired or was released) — i.e. this grant is a reassignment.
  bool reassigned = false;
  // Server incarnation that minted the grant. LeaseManager itself is
  // epoch-agnostic (it dies with the server); the field rides here so the
  // worker can echo it on heartbeats and shard_done.
  std::uint64_t epoch = 0;
};

// Pure shard-lease bookkeeping: who holds which shard, under which
// generation, and until when. No I/O, no clock of its own — callers pass
// `now_ms` (the transport's clock), which is what makes expiry exactly
// testable over FakeTransport's manual clock.
class LeaseManager {
 public:
  enum class ShardState : std::uint8_t { kPending, kLeased, kDone };
  enum class Completion : std::uint8_t {
    kAccepted,  // lease valid: shard is now done
    kStale,     // wrong holder or generation: refuse, tell worker to drop
    kDuplicate  // shard already done: refuse (harmless late duplicate)
  };

  void reset(std::size_t shards, std::uint64_t lease_timeout_ms);

  // Grants the lowest pending shard to `worker`, bumping that shard's
  // generation; nullopt when nothing is pending (all leased or done).
  std::optional<LeaseGrant> acquire(const std::string& worker,
                                    std::uint64_t now_ms);

  // True extends the lease deadline to now + timeout. False means the
  // lease is stale — expired-and-not-regranted, reassigned to someone
  // else, or a generation from a previous grant.
  bool heartbeat(const std::string& worker, std::size_t shard,
                 std::uint64_t generation, std::uint64_t now_ms);

  // Result delivery for a shard. Only the current (worker, generation)
  // holder is accepted; everything else is refused so exactly one result
  // per shard survives. probe() answers without mutating — the server
  // uses it to vet an expensive shard_done payload before committing.
  [[nodiscard]] Completion probe(const std::string& worker, std::size_t shard,
                                 std::uint64_t generation) const;
  Completion complete(const std::string& worker, std::size_t shard,
                      std::uint64_t generation);

  // Lease-log replay: marks `shard` done under `generation` without ever
  // having been leased this incarnation. The generation is preserved so a
  // late duplicate from the committing worker reads as kDuplicate, not a
  // fresh grant.
  void mark_done(std::size_t shard, std::uint64_t generation);

  // Returns the shards whose lease deadline has passed, each moved back
  // to pending (eligible for reassignment).
  std::vector<std::size_t> expire(std::uint64_t now_ms);

  // Frees every lease held by `worker` (orderly disconnect). Returns the
  // freed shards.
  std::vector<std::size_t> release_worker(const std::string& worker);

  [[nodiscard]] bool all_done() const noexcept;
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t pending_count() const noexcept;
  [[nodiscard]] std::size_t leased_count() const noexcept;
  [[nodiscard]] std::size_t done_count() const noexcept;
  [[nodiscard]] ShardState state(std::size_t shard) const;
  [[nodiscard]] const std::string& holder(std::size_t shard) const;
  [[nodiscard]] std::uint64_t generation(std::size_t shard) const;
  // Absolute lease deadline (transport-clock ms); meaningful while leased.
  [[nodiscard]] std::uint64_t deadline_ms(std::size_t shard) const;
  // Grants beyond the first per shard — the fleet's reassignment count.
  [[nodiscard]] std::size_t regrants() const noexcept { return regrants_; }
  // Earliest live lease deadline; nullopt when nothing is leased. Drives
  // the server's poll timeout so expiry is detected promptly.
  [[nodiscard]] std::optional<std::uint64_t> next_deadline_ms() const;

 private:
  struct Shard {
    ShardState state = ShardState::kPending;
    std::string worker;
    std::uint64_t generation = 0;
    std::uint64_t deadline_ms = 0;
    bool granted_before = false;
  };
  std::vector<Shard> shards_;
  std::uint64_t lease_timeout_ms_ = 10'000;
  std::size_t regrants_ = 0;
};

// --- server -----------------------------------------------------------------

struct FleetServerOptions {
  std::size_t shards = 4;
  std::uint64_t lease_timeout_ms = 10'000;
  std::uint64_t heartbeat_ms = 2'000;
  // Shard result files land here; heartbeat payloads mirror into
  // "<campaign>.shard-i-of-N.progress.jsonl" sidecars for `campaign
  // status` (disable with write_progress = false).
  std::string out_dir = "bench/out";
  bool write_progress = true;
  // The lease log ("<campaign>.fleet-audit.jsonl" in out_dir) is always
  // written. A fresh serve refuses to start over an incomplete log (a
  // crashed predecessor) unless `resume` is set, and removes a complete
  // one. Resume replays it: committed shards stay done, the epoch bumps
  // past every logged one, and pre-restart zombies are fenced off.
  bool resume = false;
  // Server-side fault injection (campaign/chaos.hpp):
  // `kill_server_after:<n>` _Exit()s the process after the n-th logged
  // commit — the restart-recovery CI leg's murder weapon.
  ChaosOptions chaos;
  bool quiet = true;  // suppress per-event stdout lines (stderr warnings stay)
  FleetGridOptions grid;
};

// The lease-granting endpoint. Transport-abstracted: production runs it
// over TcpServerTransport, the state-machine tests over FakeTransport.
class FleetServer {
 public:
  // Construction never throws; lease-log/resume validation failures land in
  // init_error() (a constructor cannot return false) and the first step()
  // fails with that message.
  FleetServer(net::Transport& transport, const CampaignSpec& campaign,
              FleetServerOptions options);
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  // Non-empty when the lease log refused construction (resume without a
  // log, identity mismatch, incomplete log without --resume, unwritable
  // log). Check before run().
  [[nodiscard]] const std::string& init_error() const noexcept {
    return init_error_;
  }

  // One poll-and-dispatch round: waits up to `max_wait_ms` for transport
  // activity (shortened to the next lease deadline), handles every event,
  // expires dead leases, pushes freed shards to waiting workers, and
  // merges the shard files once the last one lands. False on
  // unrecoverable failure (transport death, shard-file write/merge
  // failure) with `error` set.
  bool step(std::uint64_t max_wait_ms, std::string* error);

  // step() until the campaign completes, then drain briefly so the final
  // `done` messages flush to workers. `between_steps`, when set, runs
  // after every step (including the drain) — the CLI services the HTTP
  // observability endpoints from it, keeping the whole server
  // single-threaded.
  bool run(std::string* error,
           const std::function<void()>& between_steps = nullptr);

  [[nodiscard]] bool finished() const noexcept { return finished_; }

  // Valid once finished(): the full submission-order result vector —
  // byte-identical to a single-process run — and the shard files merged.
  [[nodiscard]] const std::vector<scenario::JobResult>& results() const {
    return results_;
  }

  [[nodiscard]] const std::vector<scenario::ScenarioSpec>& specs() const {
    return specs_;
  }
  [[nodiscard]] std::uint64_t grid_fp() const noexcept { return grid_fp_; }
  [[nodiscard]] const LeaseManager& leases() const { return leases_; }
  [[nodiscard]] std::size_t reassignments() const noexcept {
    return leases_.regrants();
  }
  // Server incarnation: 0 for a fresh serve, last logged + 1 on resume.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  // Shards restored done from the lease log by this incarnation's resume.
  [[nodiscard]] std::size_t resumed_shards() const noexcept {
    return resumed_shards_;
  }

  // --- observability plane --------------------------------------------------

  // Fleet-level metrics registry for the /metrics exposition: fleet.*
  // summary counters, this process's wire counters (fleet.server.net.*),
  // every worker's latest heartbeat snapshot re-published under
  // fleet.worker<ordinal>.*, and the per-name sum of those snapshots
  // under fleet.total.*.
  [[nodiscard]] obs::Registry fleet_registry() const;

  // The /status document: campaign identity, shard-state counts, the
  // lease table (shard, state, worker, generation, deadline) and one
  // entry per known worker. Timestamps are server-relative ms.
  [[nodiscard]] util::Json status_json() const;

  // Lease log path: "<out_dir>/<campaign>.fleet-audit.jsonl".
  [[nodiscard]] const std::string& audit_path() const noexcept {
    return audit_path_;
  }

 private:
  struct Peer {
    std::string worker;  // empty until hello
    bool waiting = false;
  };

  // Everything the server remembers about a worker identity (survives
  // reconnects and disconnects — the fleet view keeps dead workers
  // visible instead of vanishing them).
  struct WorkerInfo {
    std::size_t ordinal = 0;  // first-hello order; names fleet.worker<i>.*
    std::string backend;      // crypto datapaths announced in hello
    bool connected = false;
    std::uint64_t last_seen_ms = 0;  // server-relative, last frame seen
    ProgressRecord last_progress;
    obs::Registry snapshot;  // latest heartbeat piggyback
  };

  void handle_event(const net::TransportEvent& event, std::string* error);
  void handle_message(net::ConnId conn, const util::Json& message,
                      std::string* error);
  void handle_hello(net::ConnId conn, const util::Json& message);
  void handle_request(net::ConnId conn);
  void handle_heartbeat(net::ConnId conn, const util::Json& message);
  void handle_shard_done(net::ConnId conn, const util::Json& message,
                         std::string* error);
  void drop_peer(net::ConnId conn, const std::string& reason);
  void grant_to_waiting();
  void refuse(net::ConnId conn, std::size_t shard, const std::string& reason);
  bool accept_result(const std::string& worker, ShardResultFile file,
                     const ProgressRecord& final_progress, std::string* error);
  bool finalize(std::string* error);
  ProgressWriter* progress_writer(std::size_t shard);
  void log_event(const char* fmt, ...);
  // Appends one lease-log record stamped with the server-relative now and
  // this incarnation's epoch. False when the flushed append failed.
  bool audit(AuditEvent event, std::size_t shard, std::uint64_t generation,
             const std::string& worker, std::string detail = std::string(),
             std::string file = std::string());
  // The worker's WorkerInfo, created (with the next ordinal) on first use.
  WorkerInfo& worker_info(const std::string& worker);

  net::Transport& transport_;
  FleetServerOptions options_;
  std::string campaign_name_;
  util::Json campaign_msg_;
  std::vector<scenario::ScenarioSpec> specs_;
  std::uint64_t grid_fp_ = 0;
  LeaseManager leases_;
  std::map<net::ConnId, Peer> peers_;
  std::map<std::string, net::ConnId> worker_conns_;
  std::map<std::size_t, std::unique_ptr<ProgressWriter>> progress_;
  std::vector<std::string> shard_paths_;  // filled per accepted shard
  std::vector<scenario::JobResult> results_;
  bool finished_ = false;
  // Crash-safety plane.
  std::uint64_t epoch_ = 0;
  AuditLog audit_;
  std::string audit_path_;
  std::string init_error_;
  std::size_t resumed_shards_ = 0;
  std::uint64_t commits_logged_ = 0;  // feeds kill_server_after chaos
  // Observability plane.
  std::uint64_t start_ms_ = 0;  // transport clock at construction
  std::map<std::string, WorkerInfo> workers_;
};

// --- worker -----------------------------------------------------------------

struct FleetWorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  // Identifies this worker in leases and logs; default "worker-<pid>".
  std::string worker_id;
  // Checkpoints land here as "<campaign>.shard-i-of-N.ckpt.jsonl". Point
  // every worker of a local fleet at the *server's* out_dir and a
  // reassigned shard resumes from the dead worker's checkpoint.
  std::string out_dir = "bench/out";
  unsigned threads = 1;
  bool checkpoint = true;
  // Reconnect budget after a lost connection (bounded exponential
  // backoff). The initial connect gets the same budget, so a worker
  // started moments before its server still attaches.
  std::size_t max_reconnects = 5;
  std::uint64_t backoff_ms = 500;
  std::uint64_t backoff_max_ms = 5'000;
  bool quiet = true;
  // Fault injection (campaign/chaos.hpp): `kill_after:<n>` _Exit()s the
  // worker mid-shard after n checkpointed jobs; `net:...` wraps the
  // worker's TCP connection in a seeded net::ChaosTransport (drops,
  // delays, duplicates, truncations, resets). CLI wires SECBUS_CHAOS here.
  ChaosOptions chaos;
};

struct FleetWorkerStats {
  std::size_t shards_completed = 0;  // run to completion and submitted
  std::size_t shards_refused = 0;    // refuse received: stale lease, dropped
  std::size_t reconnects = 0;
};

// Connects to a fleet server and runs granted shards until the server
// says `done`. Returns false (with `error`) when the reconnect budget is
// exhausted, the campaign payload is invalid, or the expanded grid's
// fingerprint disagrees with the server's (version drift).
bool run_fleet_worker(const FleetWorkerOptions& options,
                      FleetWorkerStats* stats, std::string* error);

}  // namespace secbus::campaign
