#include "campaign/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include "crypto/backend.hpp"
#include "net/frame.hpp"
#include "net/netstats.hpp"
#include "scenario/sweep.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace secbus::campaign {

using util::Json;

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr && error->empty()) *error = message;
  return false;
}

bool u64_field(const Json& j, const char* name, std::uint64_t& out) {
  const Json* v = j.find(name);
  return v != nullptr && v->to_u64(out);
}

std::string string_field(const Json& j, const char* name) {
  const Json* v = j.find(name);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

std::string fp_hex(std::uint64_t fp) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

void sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

// --- grid shaping -----------------------------------------------------------

Json fleet_grid_to_json(const FleetGridOptions& grid) {
  Json j = Json::object();
  j.set("repeats", Json::number(grid.repeats));
  j.set("max_cycles", Json::number(grid.max_cycles));
  j.set("collect_metrics", Json::boolean(grid.collect_metrics));
  return j;
}

bool fleet_grid_from_json(const Json& j, FleetGridOptions& out,
                          std::string* error) {
  if (!j.is_object()) return fail(error, "grid: expected an object");
  FleetGridOptions grid;
  if (!u64_field(j, "repeats", grid.repeats) ||
      !u64_field(j, "max_cycles", grid.max_cycles)) {
    return fail(error, "grid: missing u64 \"repeats\"/\"max_cycles\"");
  }
  const Json* metrics = j.find("collect_metrics");
  if (metrics == nullptr || !metrics->is_bool()) {
    return fail(error, "grid: missing bool \"collect_metrics\"");
  }
  grid.collect_metrics = metrics->as_bool();
  out = grid;
  return true;
}

std::vector<scenario::ScenarioSpec> expand_fleet_grid(
    const CampaignSpec& campaign, const FleetGridOptions& grid) {
  std::vector<scenario::ScenarioSpec> specs = scenario::replicate_seeds(
      expand_campaign(campaign), grid.repeats == 0 ? 1 : grid.repeats);
  if (grid.max_cycles != 0) {
    for (scenario::ScenarioSpec& spec : specs) {
      spec.max_cycles = grid.max_cycles;
    }
  }
  return specs;
}

// --- wire messages ----------------------------------------------------------

namespace fleet_msg {

Json hello(const std::string& worker) {
  Json j = Json::object();
  j.set("type", Json::string("hello"));
  j.set("worker", Json::string(worker));
  j.set("protocol", Json::number(kFleetProtocolVersion));
  j.set("backend", Json::string(crypto::to_string(crypto::datapaths())));
  return j;
}

Json request() {
  Json j = Json::object();
  j.set("type", Json::string("request"));
  return j;
}

Json heartbeat(std::size_t shard, std::uint64_t generation,
               const ProgressRecord& progress, const obs::Registry* snapshot,
               std::uint64_t epoch) {
  Json j = Json::object();
  j.set("type", Json::string("heartbeat"));
  j.set("shard", Json::number(static_cast<std::uint64_t>(shard)));
  j.set("generation", Json::number(generation));
  j.set("epoch", Json::number(epoch));
  j.set("progress", progress_record_to_json(progress));
  if (snapshot != nullptr && !snapshot->empty()) {
    j.set("snapshot", snapshot->to_json());
  }
  return j;
}

std::string shard_done(std::size_t shard, std::uint64_t generation,
                       const ProgressRecord& progress,
                       const ShardResultFile& file, std::uint64_t epoch) {
  std::string payload;
  util::JsonWriter w(payload);
  w.begin_object()
      .member("type", "shard_done")
      .member("shard", shard)
      .member("generation", generation)
      .member("epoch", epoch)
      .member("progress", progress_record_to_json(progress));
  write_shard_json(w.key("file"), file);
  w.end_object();
  return payload;
}

std::string type_of(const Json& message) {
  return message.is_object() ? string_field(message, "type") : std::string();
}

}  // namespace fleet_msg

// --- lease state machine ----------------------------------------------------

void LeaseManager::reset(std::size_t shards, std::uint64_t lease_timeout_ms) {
  shards_.assign(shards, Shard{});
  lease_timeout_ms_ = lease_timeout_ms == 0 ? 1 : lease_timeout_ms;
  regrants_ = 0;
}

std::optional<LeaseGrant> LeaseManager::acquire(const std::string& worker,
                                                std::uint64_t now_ms) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = shards_[i];
    if (s.state != ShardState::kPending) continue;
    LeaseGrant grant;
    grant.shard = i;
    grant.generation = ++s.generation;
    grant.reassigned = s.granted_before;
    if (s.granted_before) ++regrants_;
    s.state = ShardState::kLeased;
    s.worker = worker;
    s.deadline_ms = now_ms + lease_timeout_ms_;
    s.granted_before = true;
    return grant;
  }
  return std::nullopt;
}

bool LeaseManager::heartbeat(const std::string& worker, std::size_t shard,
                             std::uint64_t generation, std::uint64_t now_ms) {
  if (shard >= shards_.size()) return false;
  Shard& s = shards_[shard];
  if (s.state != ShardState::kLeased || s.worker != worker ||
      s.generation != generation) {
    return false;
  }
  s.deadline_ms = now_ms + lease_timeout_ms_;
  return true;
}

LeaseManager::Completion LeaseManager::probe(const std::string& worker,
                                             std::size_t shard,
                                             std::uint64_t generation) const {
  if (shard >= shards_.size()) return Completion::kStale;
  const Shard& s = shards_[shard];
  if (s.state == ShardState::kDone) return Completion::kDuplicate;
  if (s.state != ShardState::kLeased || s.worker != worker ||
      s.generation != generation) {
    return Completion::kStale;
  }
  return Completion::kAccepted;
}

LeaseManager::Completion LeaseManager::complete(const std::string& worker,
                                                std::size_t shard,
                                                std::uint64_t generation) {
  const Completion verdict = probe(worker, shard, generation);
  if (verdict == Completion::kAccepted) {
    Shard& s = shards_[shard];
    s.state = ShardState::kDone;
    s.worker.clear();
  }
  return verdict;
}

void LeaseManager::mark_done(std::size_t shard, std::uint64_t generation) {
  if (shard >= shards_.size()) return;
  Shard& s = shards_[shard];
  s.state = ShardState::kDone;
  s.worker.clear();
  s.generation = generation;
  s.granted_before = true;
}

std::vector<std::size_t> LeaseManager::expire(std::uint64_t now_ms) {
  std::vector<std::size_t> freed;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = shards_[i];
    if (s.state != ShardState::kLeased || now_ms < s.deadline_ms) continue;
    s.state = ShardState::kPending;
    s.worker.clear();
    freed.push_back(i);
  }
  return freed;
}

std::vector<std::size_t> LeaseManager::release_worker(
    const std::string& worker) {
  std::vector<std::size_t> freed;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = shards_[i];
    if (s.state != ShardState::kLeased || s.worker != worker) continue;
    s.state = ShardState::kPending;
    s.worker.clear();
    freed.push_back(i);
  }
  return freed;
}

bool LeaseManager::all_done() const noexcept {
  return done_count() == shards_.size();
}

std::size_t LeaseManager::pending_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(shards_.begin(), shards_.end(), [](const Shard& s) {
        return s.state == ShardState::kPending;
      }));
}

std::size_t LeaseManager::leased_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(shards_.begin(), shards_.end(), [](const Shard& s) {
        return s.state == ShardState::kLeased;
      }));
}

std::size_t LeaseManager::done_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(shards_.begin(), shards_.end(), [](const Shard& s) {
        return s.state == ShardState::kDone;
      }));
}

LeaseManager::ShardState LeaseManager::state(std::size_t shard) const {
  return shards_.at(shard).state;
}

const std::string& LeaseManager::holder(std::size_t shard) const {
  return shards_.at(shard).worker;
}

std::uint64_t LeaseManager::generation(std::size_t shard) const {
  return shards_.at(shard).generation;
}

std::uint64_t LeaseManager::deadline_ms(std::size_t shard) const {
  return shards_.at(shard).deadline_ms;
}

std::optional<std::uint64_t> LeaseManager::next_deadline_ms() const {
  std::optional<std::uint64_t> next;
  for (const Shard& s : shards_) {
    if (s.state != ShardState::kLeased) continue;
    if (!next.has_value() || s.deadline_ms < *next) next = s.deadline_ms;
  }
  return next;
}

// --- server -----------------------------------------------------------------

FleetServer::FleetServer(net::Transport& transport,
                         const CampaignSpec& campaign,
                         FleetServerOptions options)
    : transport_(transport),
      options_(std::move(options)),
      campaign_name_(campaign.name) {
  if (options_.shards == 0) options_.shards = 1;
  specs_ = expand_fleet_grid(campaign, options_.grid);
  grid_fp_ = grid_fingerprint(specs_);
  leases_.reset(options_.shards, options_.lease_timeout_ms);
  shard_paths_.assign(options_.shards, std::string());
  std::error_code ec;
  std::filesystem::create_directories(options_.out_dir, ec);
  start_ms_ = transport_.now_ms();

  // Validate the lease log before writing anything: a refused start must
  // not touch the log or the progress sidecars. A constructor cannot
  // return false, so failures park in init_error_ and the first step()
  // reports them.
  audit_path_ = (std::filesystem::path(options_.out_dir) /
                 audit_file_name(campaign_name_))
                    .string();
  const bool have_log = std::filesystem::exists(audit_path_);
  LeaseLogState prior;
  std::string log_error;
  const auto replay = [&]() {
    std::vector<AuditRecord> records;
    return read_audit_log(audit_path_, records, &log_error) &&
           replay_lease_log(records, prior, &log_error);
  };
  if (options_.resume) {
    if (!have_log) {
      init_error_ = audit_path_ + ": no lease log to resume from";
    } else if (!replay()) {
      init_error_ = audit_path_ + ": " + log_error;
    } else if (!prior.any_epoch) {
      init_error_ =
          audit_path_ + ": lease log holds no server_start with a campaign "
                        "identity; nothing to resume (delete it to start "
                        "fresh)";
    } else if (prior.campaign != campaign_name_ ||
               prior.shards != options_.shards ||
               prior.jobs != specs_.size() || prior.grid_fp != grid_fp_) {
      init_error_ =
          audit_path_ + ": lease log describes a different campaign (name, "
                        "shard count, job count, or grid fingerprint "
                        "mismatch); refusing to resume";
    } else {
      epoch_ = prior.last_epoch + 1;
      for (const auto& [shard, commit] : prior.committed) {
        // Trust the log only as far as the shard file it points at still
        // reads back as this campaign's shard; anything less and the shard
        // simply re-runs.
        ShardResultFile file;
        std::string read_error;
        if (read_shard_file(commit.file, file, &read_error) &&
            file.campaign == campaign_name_ && file.shard == shard &&
            file.shards == options_.shards && file.grid_fp == grid_fp_) {
          leases_.mark_done(shard, commit.generation);
          shard_paths_[shard] = commit.file;
          ++resumed_shards_;
        } else {
          std::fprintf(stderr,
                       "fleet: logged shard %zu result %s no longer reads "
                       "back (%s); returning the shard to the pending pool\n",
                       shard, commit.file.c_str(),
                       read_error.empty() ? "identity mismatch"
                                          : read_error.c_str());
        }
      }
    }
  } else if (have_log) {
    if (replay() && prior.complete()) {
      // A finished run's log: this serve is a genuinely new campaign run,
      // so the old log (and its done-ness) must not leak in.
      std::filesystem::remove(audit_path_, ec);
    } else {
      init_error_ =
          audit_path_ + ": a previous serve left an incomplete lease log; "
                        "restart with --resume to recover its commits, or "
                        "delete the log to start over";
    }
  }
  if (!init_error_.empty()) return;
  // Epoch boundary marker, carrying the identity a later --resume checks:
  // the timeline closes any span the previous incarnation left open as
  // "lost" when it sees this record.
  AuditRecord start;
  start.event = AuditEvent::kServerStart;
  start.epoch = epoch_;
  start.campaign = campaign_name_;
  start.shards = options_.shards;
  start.jobs = specs_.size();
  start.grid_fp = grid_fp_;
  if (resumed_shards_ != 0) {
    start.detail = std::to_string(resumed_shards_) + " shard(s) resumed done";
  }
  if (!audit_.open(audit_path_) || !audit_.append(start)) {
    init_error_ = audit_path_ + ": cannot write the lease log";
    return;
  }

  Json msg = Json::object();
  msg.set("type", Json::string("campaign"));
  msg.set("name", Json::string(campaign_name_));
  msg.set("campaign", util::written_tree([&](util::JsonWriter& w) {
            write_campaign(w, campaign);
          }));
  msg.set("grid", fleet_grid_to_json(options_.grid));
  msg.set("shards", Json::number(static_cast<std::uint64_t>(options_.shards)));
  msg.set("grid_fingerprint", Json::number(grid_fp_));
  msg.set("heartbeat_ms", Json::number(options_.heartbeat_ms));
  msg.set("lease_timeout_ms", Json::number(options_.lease_timeout_ms));
  msg.set("epoch", Json::number(epoch_));
  campaign_msg_ = std::move(msg);
}

FleetServer::~FleetServer() = default;

bool FleetServer::audit(AuditEvent event, std::size_t shard,
                        std::uint64_t generation, const std::string& worker,
                        std::string detail, std::string file) {
  AuditRecord record;
  const std::uint64_t now = transport_.now_ms();
  record.t_ms = now > start_ms_ ? now - start_ms_ : 0;
  record.event = event;
  record.shard = shard;
  record.generation = generation;
  record.epoch = epoch_;
  record.worker = worker;
  record.detail = std::move(detail);
  record.file = std::move(file);
  return audit_.append(record);
}

FleetServer::WorkerInfo& FleetServer::worker_info(const std::string& worker) {
  const auto it = workers_.find(worker);
  if (it != workers_.end()) return it->second;
  WorkerInfo info;
  info.ordinal = workers_.size();
  return workers_.emplace(worker, std::move(info)).first->second;
}

void FleetServer::log_event(const char* fmt, ...) {
  if (options_.quiet) return;
  std::va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

bool FleetServer::step(std::uint64_t max_wait_ms, std::string* error) {
  if (!init_error_.empty()) return fail(error, init_error_);
  if (finished_) return true;
  std::uint64_t wait = max_wait_ms;
  const std::uint64_t now = transport_.now_ms();
  if (const std::optional<std::uint64_t> deadline = leases_.next_deadline_ms();
      deadline.has_value()) {
    wait = std::min(wait, *deadline > now ? *deadline - now : 0);
  }
  std::vector<net::TransportEvent> events;
  if (!transport_.poll(wait, events, error)) return false;
  std::string step_error;
  for (const net::TransportEvent& event : events) {
    handle_event(event, &step_error);
    if (!step_error.empty()) return fail(error, step_error);
  }
  // Snapshot holders before expire() wipes them — the audit record names
  // the worker whose lease lapsed.
  const std::uint64_t expire_now = transport_.now_ms();
  std::vector<std::pair<std::size_t, std::string>> lapsing;
  for (std::size_t i = 0; i < leases_.shard_count(); ++i) {
    if (leases_.state(i) == LeaseManager::ShardState::kLeased &&
        expire_now >= leases_.deadline_ms(i)) {
      lapsing.emplace_back(i, leases_.holder(i));
    }
  }
  for (const std::size_t shard : leases_.expire(expire_now)) {
    std::fprintf(stderr,
                 "fleet: lease on shard %zu expired (no heartbeat for "
                 "%llu ms); returning it to the pending pool\n",
                 shard,
                 static_cast<unsigned long long>(options_.lease_timeout_ms));
  }
  for (const auto& [shard, holder] : lapsing) {
    audit(AuditEvent::kExpire, shard, leases_.generation(shard), holder,
          "no heartbeat for " + std::to_string(options_.lease_timeout_ms) +
              " ms");
  }
  grant_to_waiting();
  if (!finished_ && leases_.all_done()) return finalize(error);
  return true;
}

bool FleetServer::run(std::string* error,
                      const std::function<void()>& between_steps) {
  // With an observability callback attached, poll in shorter slices so the
  // HTTP endpoints answer promptly even when the fleet is quiet.
  const std::uint64_t slice = between_steps ? 50 : 250;
  while (!finished_) {
    if (!step(slice, error)) return false;
    if (between_steps) between_steps();
  }
  // Linger briefly so queued `done` frames reach workers that have not yet
  // hung up; workers exit on `done`, which shows up here as kClose.
  for (int i = 0; i < 40 && !peers_.empty(); ++i) {
    std::vector<net::TransportEvent> events;
    std::string drain_error;
    if (!transport_.poll(50, events, &drain_error)) break;
    for (const net::TransportEvent& event : events) {
      if (event.kind == net::TransportEvent::Kind::kClose) {
        peers_.erase(event.conn);
      }
    }
    if (between_steps) between_steps();
  }
  return true;
}

void FleetServer::handle_event(const net::TransportEvent& event,
                               std::string* error) {
  switch (event.kind) {
    case net::TransportEvent::Kind::kOpen:
      peers_.emplace(event.conn, Peer{});
      break;
    case net::TransportEvent::Kind::kClose:
      drop_peer(event.conn, event.detail);
      break;
    case net::TransportEvent::Kind::kMessage:
      handle_message(event.conn, event.message, error);
      break;
  }
}

void FleetServer::handle_message(net::ConnId conn, const Json& message,
                                 std::string* error) {
  const auto peer = peers_.find(conn);
  if (peer == peers_.end()) return;  // raced with a close
  const std::string type = fleet_msg::type_of(message);
  if (type == "hello") {
    handle_hello(conn, message);
    return;
  }
  if (peer->second.worker.empty()) {
    // Everything else requires an identity first.
    Json reply = Json::object();
    reply.set("type", Json::string("error"));
    reply.set("message", Json::string("hello required before \"" + type +
                                      "\" (fleet protocol violation)"));
    transport_.send(conn, reply);
    transport_.close_conn(conn);
    return;
  }
  if (type == "request") {
    handle_request(conn);
  } else if (type == "heartbeat") {
    handle_heartbeat(conn, message);
  } else if (type == "shard_done") {
    handle_shard_done(conn, message, error);
  } else {
    Json reply = Json::object();
    reply.set("type", Json::string("error"));
    reply.set("message",
              Json::string("unknown fleet message type \"" + type + "\""));
    transport_.send(conn, reply);
    transport_.close_conn(conn);
  }
}

void FleetServer::handle_hello(net::ConnId conn, const Json& message) {
  const std::string worker = string_field(message, "worker");
  std::uint64_t protocol = 0;
  if (worker.empty() || !u64_field(message, "protocol", protocol)) {
    Json reply = Json::object();
    reply.set("type", Json::string("error"));
    reply.set("message", Json::string("malformed hello"));
    transport_.send(conn, reply);
    transport_.close_conn(conn);
    return;
  }
  if (protocol != kFleetProtocolVersion) {
    Json reply = Json::object();
    reply.set("type", Json::string("error"));
    reply.set("message",
              Json::string("fleet protocol mismatch: server speaks " +
                           std::to_string(kFleetProtocolVersion) +
                           ", worker " + worker + " speaks " +
                           std::to_string(protocol)));
    transport_.send(conn, reply);
    transport_.close_conn(conn);
    return;
  }
  // A worker id re-appearing on a fresh connection is a reconnect; the old
  // connection is dead even if its close has not surfaced yet. Retire it
  // without releasing the worker's leases — the same identity continues
  // them (heartbeats over the new connection keep them alive).
  const auto existing = worker_conns_.find(worker);
  if (existing != worker_conns_.end() && existing->second != conn) {
    transport_.close_conn(existing->second);
    peers_.erase(existing->second);
  }
  worker_conns_[worker] = conn;
  peers_[conn].worker = worker;
  WorkerInfo& info = worker_info(worker);
  info.connected = true;
  const std::uint64_t now = transport_.now_ms();
  info.last_seen_ms = now > start_ms_ ? now - start_ms_ : 0;
  if (const std::string backend = string_field(message, "backend");
      !backend.empty()) {
    info.backend = backend;
  }
  log_event("fleet: worker %s connected", worker.c_str());
  transport_.send(conn, campaign_msg_);
}

void FleetServer::handle_request(net::ConnId conn) {
  Peer& peer = peers_[conn];
  if (leases_.all_done() || finished_) {
    Json reply = Json::object();
    reply.set("type", Json::string("done"));
    transport_.send(conn, reply);
    return;
  }
  const std::optional<LeaseGrant> grant =
      leases_.acquire(peer.worker, transport_.now_ms());
  if (!grant.has_value()) {
    peer.waiting = true;
    Json reply = Json::object();
    reply.set("type", Json::string("wait"));
    reply.set("poll_ms", Json::number(options_.heartbeat_ms));
    transport_.send(conn, reply);
    return;
  }
  peer.waiting = false;
  if (grant->reassigned) {
    std::fprintf(stderr,
                 "fleet: shard %zu reassigned to worker %s "
                 "(generation %llu); its checkpoint makes this a resume\n",
                 grant->shard, peer.worker.c_str(),
                 static_cast<unsigned long long>(grant->generation));
  } else {
    log_event("fleet: shard %zu granted to worker %s (generation %llu)",
              grant->shard, peer.worker.c_str(),
              static_cast<unsigned long long>(grant->generation));
  }
  audit(grant->reassigned ? AuditEvent::kReassigned : AuditEvent::kGrant,
        grant->shard, grant->generation, peer.worker);
  Json reply = Json::object();
  reply.set("type", Json::string("grant"));
  reply.set("shard", Json::number(static_cast<std::uint64_t>(grant->shard)));
  reply.set("generation", Json::number(grant->generation));
  reply.set("epoch", Json::number(epoch_));
  transport_.send(conn, reply);
}

void FleetServer::refuse(net::ConnId conn, std::size_t shard,
                         const std::string& reason) {
  Json reply = Json::object();
  reply.set("type", Json::string("refuse"));
  reply.set("shard", Json::number(static_cast<std::uint64_t>(shard)));
  reply.set("reason", Json::string(reason));
  reply.set("drop", Json::boolean(true));
  transport_.send(conn, reply);
}

void FleetServer::handle_heartbeat(net::ConnId conn, const Json& message) {
  Peer& peer = peers_[conn];
  std::uint64_t shard = 0;
  std::uint64_t generation = 0;
  if (!u64_field(message, "shard", shard) ||
      !u64_field(message, "generation", generation)) {
    return;  // malformed heartbeat: ignore, the lease deadline will judge
  }
  // The piggybacked snapshot describes the worker *process* and is merged
  // even when the lease turns out stale: a zombie's wire counters are
  // still that worker's wire counters.
  WorkerInfo& info = worker_info(peer.worker);
  const std::uint64_t now = transport_.now_ms();
  info.last_seen_ms = now > start_ms_ ? now - start_ms_ : 0;
  const Json* progress = message.find("progress");
  ProgressRecord record;
  const bool have_progress =
      progress != nullptr && progress_record_from_json(*progress, record);
  if (have_progress) info.last_progress = record;
  if (const Json* snapshot = message.find("snapshot"); snapshot != nullptr) {
    obs::Registry snap;
    if (obs::Registry::from_json(*snapshot, snap)) {
      info.snapshot = std::move(snap);
    }
  }
  // Epoch fence: a lease minted by a dead incarnation died with it, no
  // matter what the (per-incarnation) generation counter says.
  std::uint64_t epoch = 0;
  (void)u64_field(message, "epoch", epoch);
  if (epoch != epoch_) {
    audit(AuditEvent::kRefuse, static_cast<std::size_t>(shard), generation,
          peer.worker, "stale epoch " + std::to_string(epoch));
    refuse(conn, static_cast<std::size_t>(shard),
           "lease is from a previous server incarnation; drop this shard "
           "and request new work");
    return;
  }
  if (!leases_.heartbeat(peer.worker, static_cast<std::size_t>(shard),
                         generation, now)) {
    audit(AuditEvent::kRefuse, static_cast<std::size_t>(shard), generation,
          peer.worker, "stale heartbeat");
    refuse(conn, static_cast<std::size_t>(shard),
           "lease expired or reassigned; drop this shard and request new "
           "work");
    return;
  }
  audit(AuditEvent::kExtend, static_cast<std::size_t>(shard), generation,
        peer.worker);
  if (!options_.write_progress) return;
  if (have_progress) {
    if (ProgressWriter* writer =
            progress_writer(static_cast<std::size_t>(shard))) {
      writer->append_record(record);
    }
  }
}

void FleetServer::handle_shard_done(net::ConnId conn, const Json& message,
                                    std::string* error) {
  Peer& peer = peers_[conn];
  std::uint64_t shard = 0;
  std::uint64_t generation = 0;
  if (!u64_field(message, "shard", shard) ||
      !u64_field(message, "generation", generation) ||
      shard >= leases_.shard_count()) {
    Json reply = Json::object();
    reply.set("type", Json::string("error"));
    reply.set("message", Json::string("malformed shard_done"));
    transport_.send(conn, reply);
    transport_.close_conn(conn);
    return;
  }
  std::uint64_t epoch = 0;
  (void)u64_field(message, "epoch", epoch);
  if (epoch != epoch_) {
    audit(AuditEvent::kRefuse, static_cast<std::size_t>(shard), generation,
          peer.worker, "stale epoch " + std::to_string(epoch) + " result");
    refuse(conn, static_cast<std::size_t>(shard),
           "result is from a lease of a previous server incarnation; drop "
           "it and request new work");
    return;
  }
  const LeaseManager::Completion verdict =
      leases_.probe(peer.worker, static_cast<std::size_t>(shard), generation);
  if (verdict != LeaseManager::Completion::kAccepted) {
    const bool duplicate = verdict == LeaseManager::Completion::kDuplicate;
    audit(AuditEvent::kRefuse, static_cast<std::size_t>(shard), generation,
          peer.worker, duplicate ? "duplicate result" : "stale result");
    refuse(conn, static_cast<std::size_t>(shard),
           duplicate ? "shard already completed; drop this result"
                     : "lease expired or reassigned; drop this result");
    return;
  }
  // Vet the payload before committing the lease: a worker whose grid
  // drifted must not burn the shard.
  const Json* file_json = message.find("file");
  ShardResultFile file;
  std::string payload_error;
  bool valid =
      file_json != nullptr &&
      shard_file_from_json(*file_json, "worker " + peer.worker, file,
                           &payload_error);
  if (valid) {
    if (file.campaign != campaign_name_ ||
        file.shard != static_cast<std::size_t>(shard) ||
        file.shards != options_.shards ||
        file.jobs_total != specs_.size() || file.grid_fp != grid_fp_) {
      valid = false;
      payload_error = "worker " + peer.worker +
                      ": shard_done payload identity mismatch (campaign, "
                      "geometry, or grid fingerprint)";
    }
  }
  if (!valid) {
    std::fprintf(stderr, "fleet: rejecting result for shard %llu: %s\n",
                 static_cast<unsigned long long>(shard),
                 payload_error.c_str());
    Json reply = Json::object();
    reply.set("type", Json::string("error"));
    reply.set("message", Json::string(payload_error));
    transport_.send(conn, reply);
    transport_.close_conn(conn);
    // The shard stays leased; its deadline reassigns it.
    return;
  }
  leases_.complete(peer.worker, static_cast<std::size_t>(shard), generation);
  const std::size_t result_count = file.results.size();
  ProgressRecord final_progress;
  const Json* progress = message.find("progress");
  const bool have_progress =
      progress != nullptr && progress_record_from_json(*progress,
                                                       final_progress);
  if (have_progress) {
    WorkerInfo& info = worker_info(peer.worker);
    info.last_progress = final_progress;
    const std::uint64_t now = transport_.now_ms();
    info.last_seen_ms = now > start_ms_ ? now - start_ms_ : 0;
  }
  if (!accept_result(peer.worker, std::move(file),
                     have_progress ? final_progress : ProgressRecord{},
                     error)) {
    return;  // fatal: error set (disk full etc.)
  }
  // Log the commit only after the shard file is durably on disk — the
  // record is a pointer, and a restart trusts it only as far as the file
  // reads back. The flushed record is the crash-safety line: everything
  // after it survives a SIGKILL, which is exactly where the chaos hook
  // murders the server in the restart CI leg.
  const std::size_t index = static_cast<std::size_t>(shard);
  if (!audit(AuditEvent::kCommit, index, generation, peer.worker,
             std::to_string(result_count) + " result(s)",
             shard_paths_[index])) {
    fail(error, audit_path_ + ": lease log write failed");
    return;
  }
  ++commits_logged_;
  chaos_maybe_kill_server(options_.chaos, commits_logged_);
}

bool FleetServer::accept_result(const std::string& worker,
                                ShardResultFile file,
                                const ProgressRecord& final_progress,
                                std::string* error) {
  const std::size_t shard = file.shard;
  const std::string path =
      (std::filesystem::path(options_.out_dir) /
       shard_file_name(campaign_name_, shard, options_.shards))
          .string();
  if (!write_shard_file(path, file, error)) return false;
  shard_paths_[shard] = path;
  if (options_.write_progress) {
    if (ProgressWriter* writer = progress_writer(shard)) {
      ProgressRecord record = final_progress;
      record.campaign = campaign_name_;
      record.shard = shard;
      record.shards = options_.shards;
      record.finished = true;
      writer->append_record(record);
    }
    progress_.erase(shard);  // closes (flushes) the sidecar
  }
  log_event("fleet: shard %zu completed by worker %s (%zu result(s)) -> %s",
            shard, worker.c_str(), file.results.size(), path.c_str());
  return true;
}

void FleetServer::drop_peer(net::ConnId conn, const std::string& reason) {
  const auto it = peers_.find(conn);
  if (it == peers_.end()) return;
  const std::string worker = it->second.worker;
  peers_.erase(it);
  if (worker.empty()) return;
  const auto mapped = worker_conns_.find(worker);
  if (mapped == worker_conns_.end() || mapped->second != conn) return;
  worker_conns_.erase(mapped);
  if (const auto info = workers_.find(worker); info != workers_.end()) {
    info->second.connected = false;
  }
  for (const std::size_t shard : leases_.release_worker(worker)) {
    std::fprintf(stderr,
                 "fleet: worker %s disconnected (%s); shard %zu returned to "
                 "the pending pool\n",
                 worker.c_str(), reason.empty() ? "closed" : reason.c_str(),
                 shard);
    audit(AuditEvent::kRelease, shard, leases_.generation(shard), worker,
          reason.empty() ? "disconnected" : reason);
  }
  grant_to_waiting();
}

void FleetServer::grant_to_waiting() {
  if (finished_) return;
  for (auto& [conn, peer] : peers_) {
    if (!peer.waiting || peer.worker.empty()) continue;
    if (leases_.pending_count() == 0) return;
    handle_request(conn);
  }
}

ProgressWriter* FleetServer::progress_writer(std::size_t shard) {
  const auto it = progress_.find(shard);
  if (it != progress_.end()) return it->second.get();
  auto writer = std::make_unique<ProgressWriter>();
  const std::string path =
      (std::filesystem::path(options_.out_dir) /
       progress_file_name(campaign_name_, shard, options_.shards))
          .string();
  if (!writer->open(path, campaign_name_, shard, options_.shards,
                    /*min_interval_ms=*/0)) {
    return nullptr;  // telemetry is best-effort; results are unaffected
  }
  return progress_.emplace(shard, std::move(writer)).first->second.get();
}

bool FleetServer::finalize(std::string* error) {
  std::string merged_name;
  if (!merge_shard_files(shard_paths_, &merged_name, &results_, error)) {
    return false;
  }
  finished_ = true;
  for (auto& [conn, peer] : peers_) {
    Json reply = Json::object();
    reply.set("type", Json::string("done"));
    transport_.send(conn, reply);
  }
  log_event("fleet: campaign %s complete — %zu job(s) across %zu shard(s), "
            "%zu reassignment(s)",
            campaign_name_.c_str(), results_.size(), options_.shards,
            leases_.regrants());
  return true;
}

// --- observability plane ----------------------------------------------------

obs::Registry FleetServer::fleet_registry() const {
  obs::Registry reg;
  reg.counter("fleet.jobs", static_cast<std::uint64_t>(specs_.size()));
  reg.counter("fleet.shards", static_cast<std::uint64_t>(options_.shards));
  reg.counter("fleet.shards.done",
              static_cast<std::uint64_t>(leases_.done_count()));
  reg.gauge("fleet.shards.leased",
            static_cast<double>(leases_.leased_count()));
  reg.gauge("fleet.shards.pending",
            static_cast<double>(leases_.pending_count()));
  reg.counter("fleet.reassignments",
              static_cast<std::uint64_t>(leases_.regrants()));
  reg.counter("fleet.epoch", epoch_);
  reg.counter("fleet.shards.resumed",
              static_cast<std::uint64_t>(resumed_shards_));
  reg.gauge("fleet.workers", static_cast<double>(workers_.size()));
  reg.gauge("fleet.workers.connected",
            static_cast<double>(std::count_if(
                workers_.begin(), workers_.end(),
                [](const auto& kv) { return kv.second.connected; })));

  // The server's own wire counters, prefix-qualified.
  obs::Registry server_net;
  net::netstats_contribute(server_net);
  for (const obs::Metric& m : server_net.metrics()) {
    reg.counter("fleet.server." + m.name, m.count);
  }

  // Every worker's latest snapshot under fleet.worker<ordinal>.*, and the
  // per-name sum under fleet.total.* (counters stay counters; anything
  // summed across a gauge — rates, hit ratios — becomes a gauge).
  struct Total {
    bool is_counter = true;
    std::uint64_t count = 0;
    double value = 0.0;
  };
  std::map<std::string, Total> totals;
  for (const auto& [worker, info] : workers_) {
    const std::string prefix =
        "fleet.worker" + std::to_string(info.ordinal) + ".";
    for (const obs::Metric& m : info.snapshot.metrics()) {
      if (m.is_counter) {
        reg.counter(prefix + m.name, m.count);
      } else {
        reg.gauge(prefix + m.name, m.value);
      }
      Total& total = totals[m.name];
      if (m.is_counter) {
        total.count += m.count;
      } else {
        total.is_counter = false;
      }
      total.value += m.is_counter ? static_cast<double>(m.count) : m.value;
    }
  }
  for (const auto& [name, total] : totals) {
    if (total.is_counter) {
      reg.counter("fleet.total." + name, total.count);
    } else {
      reg.gauge("fleet.total." + name, total.value);
    }
  }
  return reg;
}

util::Json FleetServer::status_json() const {
  Json status = Json::object();
  status.set("campaign", Json::string(campaign_name_));
  status.set("shards",
             Json::number(static_cast<std::uint64_t>(options_.shards)));
  status.set("jobs", Json::number(static_cast<std::uint64_t>(specs_.size())));
  status.set("finished", Json::boolean(finished_));
  status.set("epoch", Json::number(epoch_));
  status.set("resumed", Json::number(static_cast<std::uint64_t>(
                            resumed_shards_)));
  status.set("reassignments",
             Json::number(static_cast<std::uint64_t>(leases_.regrants())));
  status.set("pending",
             Json::number(static_cast<std::uint64_t>(leases_.pending_count())));
  status.set("leased",
             Json::number(static_cast<std::uint64_t>(leases_.leased_count())));
  status.set("done",
             Json::number(static_cast<std::uint64_t>(leases_.done_count())));
  const std::uint64_t now = transport_.now_ms();
  status.set("t_ms", Json::number(now > start_ms_ ? now - start_ms_ : 0));

  Json leases = Json::array();
  for (std::size_t i = 0; i < leases_.shard_count(); ++i) {
    Json lease = Json::object();
    lease.set("shard", Json::number(static_cast<std::uint64_t>(i)));
    const LeaseManager::ShardState state = leases_.state(i);
    lease.set("state",
              Json::string(state == LeaseManager::ShardState::kPending
                               ? "pending"
                               : state == LeaseManager::ShardState::kLeased
                                     ? "leased"
                                     : "done"));
    lease.set("worker", Json::string(leases_.holder(i)));
    lease.set("generation", Json::number(leases_.generation(i)));
    if (state == LeaseManager::ShardState::kLeased) {
      const std::uint64_t deadline = leases_.deadline_ms(i);
      lease.set("deadline_ms",
                Json::number(deadline > start_ms_ ? deadline - start_ms_ : 0));
    }
    leases.push(std::move(lease));
  }
  status.set("leases", std::move(leases));

  Json workers = Json::array();
  for (const auto& [worker, info] : workers_) {
    Json w = Json::object();
    w.set("worker", Json::string(worker));
    w.set("ordinal", Json::number(static_cast<std::uint64_t>(info.ordinal)));
    w.set("backend", Json::string(info.backend));
    w.set("connected", Json::boolean(info.connected));
    w.set("last_seen_ms", Json::number(info.last_seen_ms));
    w.set("shard",
          Json::number(static_cast<std::uint64_t>(info.last_progress.shard)));
    w.set("done",
          Json::number(static_cast<std::uint64_t>(info.last_progress.done)));
    w.set("total",
          Json::number(static_cast<std::uint64_t>(info.last_progress.total)));
    w.set("jobs_per_sec", Json::number(info.last_progress.jobs_per_sec));
    workers.push(std::move(w));
  }
  status.set("workers", std::move(workers));
  return status;
}

// --- worker -----------------------------------------------------------------

namespace {

// Shared between the worker's main thread (run_shard completion callback)
// and its heartbeat thread.
struct HeartbeatShared {
  std::mutex mutex;
  ProgressSampler sampler;
  std::size_t done = 0;
  std::size_t total = 0;
  bool have_baseline = false;
};

std::string default_worker_id() {
#if defined(__unix__) || defined(__APPLE__)
  return "worker-" + std::to_string(static_cast<long>(::getpid()));
#else
  return "worker-local";
#endif
}

}  // namespace

bool run_fleet_worker(const FleetWorkerOptions& options,
                      FleetWorkerStats* stats, std::string* error) {
  FleetWorkerStats local_stats;
  FleetWorkerStats& st = stats != nullptr ? *stats : local_stats;
  st = FleetWorkerStats{};

  const std::string worker_id =
      options.worker_id.empty() ? default_worker_id() : options.worker_id;
  const std::string where =
      options.host + ":" + std::to_string(options.port);

  std::unique_ptr<net::TcpClientTransport> conn;
  std::size_t reconnects_left = options.max_reconnects;
  // Seeded network fault injection: every frame in either direction runs
  // through the decorator when SECBUS_CHAOS carries a net: directive.
  // `wire` is the worker's single handle on the connection — the raw TCP
  // client, or the chaos wrapper re-targeted at each reconnect.
  net::ChaosTransport chaos_wire(options.chaos.net);
  net::Transport* wire = nullptr;

  // Campaign state, learned from the first campaign message and pinned for
  // the life of the worker (reconnects verify it did not change).
  bool have_campaign = false;
  bool fatal = false;  // campaign-level failure: do not retry
  std::string campaign_name;
  FleetGridOptions grid;
  std::vector<scenario::ScenarioSpec> specs;
  std::uint64_t grid_fp = 0;
  std::size_t shards = 0;
  std::uint64_t heartbeat_ms = 2'000;
  // Unlike the grid identity, the epoch is *allowed* to change across a
  // reconnect — that is what surviving a server restart looks like.
  std::uint64_t epoch = 0;

  const auto load_campaign_msg = [&](const Json& msg,
                                     std::string* err) -> bool {
    std::uint64_t announced_fp = 0;
    std::uint64_t shards_u = 0;
    std::uint64_t hb = 0;
    const Json* campaign_json = msg.find("campaign");
    const Json* grid_json = msg.find("grid");
    if (campaign_json == nullptr || grid_json == nullptr ||
        !u64_field(msg, "grid_fingerprint", announced_fp) ||
        !u64_field(msg, "shards", shards_u) ||
        !u64_field(msg, "heartbeat_ms", hb) || shards_u == 0) {
      return fail(err, "malformed campaign message from server");
    }
    std::uint64_t announced_epoch = 0;
    (void)u64_field(msg, "epoch", announced_epoch);
    if (have_campaign) {
      if (announced_fp != grid_fp ||
          static_cast<std::size_t>(shards_u) != shards) {
        fatal = true;
        return fail(err, "server campaign changed across a reconnect "
                         "(grid fingerprint or shard count drifted)");
      }
      epoch = announced_epoch;
      return true;
    }
    FleetGridOptions g;
    CampaignSpec spec;
    if (!fleet_grid_from_json(*grid_json, g, err) ||
        !campaign_from_json(*campaign_json, spec, err)) {
      fatal = true;
      return false;
    }
    std::vector<scenario::ScenarioSpec> expanded = expand_fleet_grid(spec, g);
    const std::uint64_t local_fp = grid_fingerprint(expanded);
    if (local_fp != announced_fp) {
      fatal = true;
      return fail(err, "expanded grid fingerprint " + fp_hex(local_fp) +
                           " disagrees with the server's " +
                           fp_hex(announced_fp) +
                           " — server and worker have drifted (binary or "
                           "campaign version skew); refusing to run");
    }
    campaign_name = spec.name;
    grid = g;
    specs = std::move(expanded);
    grid_fp = local_fp;
    shards = static_cast<std::size_t>(shards_u);
    heartbeat_ms = std::max<std::uint64_t>(hb, 100);
    epoch = announced_epoch;
    have_campaign = true;
    if (!options.quiet) {
      std::fprintf(stderr,
                   "fleet worker %s: campaign %s — %zu job(s), %zu "
                   "shard(s), grid %s\n",
                   worker_id.c_str(), campaign_name.c_str(), specs.size(),
                   shards, fp_hex(grid_fp).c_str());
    }
    return true;
  };

  // Connect + hello + campaign handshake; one attempt.
  const auto try_attach = [&](std::string* err) -> bool {
    conn = std::make_unique<net::TcpClientTransport>();
    if (!conn->connect(options.host, options.port, err)) return false;
    if (options.chaos.net.enabled) {
      chaos_wire.set_inner(conn.get());
      wire = &chaos_wire;
    } else {
      wire = conn.get();
    }
    if (!wire->send(net::kServerConn, fleet_msg::hello(worker_id))) {
      return fail(err, "hello send failed");
    }
    const std::uint64_t deadline = wire->now_ms() + 15'000;
    while (wire->now_ms() < deadline) {
      std::vector<net::TransportEvent> events;
      if (!wire->poll(200, events, err)) return false;
      for (const net::TransportEvent& event : events) {
        if (event.kind == net::TransportEvent::Kind::kClose) {
          return fail(err, event.detail.empty()
                               ? "server closed the connection during the "
                                 "handshake"
                               : event.detail);
        }
        if (event.kind != net::TransportEvent::Kind::kMessage) continue;
        const std::string type = fleet_msg::type_of(event.message);
        if (type == "error") {
          fatal = true;
          return fail(err, "server: " + string_field(event.message,
                                                     "message"));
        }
        if (type == "campaign") return load_campaign_msg(event.message, err);
      }
    }
    return fail(err, "timed out waiting for the campaign message");
  };

  // Handshake with bounded exponential backoff across the reconnect budget.
  const auto attach = [&](std::string* err) -> bool {
    std::uint64_t backoff = std::max<std::uint64_t>(options.backoff_ms, 1);
    const std::uint64_t backoff_cap =
        std::max(options.backoff_max_ms, options.backoff_ms);
    for (;;) {
      std::string attempt_error;
      if (try_attach(&attempt_error)) return true;
      if (fatal || reconnects_left == 0) {
        return fail(err, "fleet worker " + worker_id + ": " + where + ": " +
                             attempt_error +
                             (fatal ? "" : " (reconnect budget exhausted)"));
      }
      --reconnects_left;
      ++st.reconnects;
      if (!options.quiet) {
        std::fprintf(stderr,
                     "fleet worker %s: %s; retrying in %llu ms (%zu "
                     "attempt(s) left)\n",
                     worker_id.c_str(), attempt_error.c_str(),
                     static_cast<unsigned long long>(backoff),
                     reconnects_left);
      }
      sleep_ms(backoff);
      backoff = std::min(backoff * 2, backoff_cap);
    }
  };

  // Runs one granted shard and submits the result. False only on fatal
  // (unrecoverable) failure with `err` set.
  const auto run_granted = [&](const LeaseGrant& grant,
                               std::string* err) -> bool {
    std::error_code ec;
    std::filesystem::create_directories(options.out_dir, ec);
    ShardRunOptions run;
    run.shard = grant.shard;
    run.shards = shards;
    run.threads = options.threads == 0 ? 1 : options.threads;
    run.campaign = campaign_name;
    run.collect_metrics = grid.collect_metrics;
    run.chaos = options.chaos;
    if (options.checkpoint) {
      run.checkpoint_path =
          (std::filesystem::path(options.out_dir) /
           checkpoint_file_name(campaign_name, grant.shard, shards))
              .string();
    }

    auto shared = std::make_shared<HeartbeatShared>();
    shared->sampler.begin(campaign_name, grant.shard, shards);
    run.on_job_done = [shared](const scenario::JobResult&, std::size_t done,
                               std::size_t total) {
      std::lock_guard<std::mutex> lock(shared->mutex);
      if (!shared->have_baseline) {
        // First completion: everything before it was checkpoint-resumed.
        shared->have_baseline = true;
        shared->sampler.set_baseline(done == 0 ? 0 : done - 1);
      }
      shared->done = done;
      shared->total = total;
    };

    std::atomic<bool> stop{false};
    net::Transport* beat_wire = wire;
    const std::uint64_t beat_every = heartbeat_ms;
    std::thread beat([&stop, shared, beat_wire, grant, beat_every] {
      std::uint64_t slept = 0;
      for (;;) {
        sleep_ms(50);
        if (stop.load(std::memory_order_relaxed)) return;
        slept += 50;
        if (slept < beat_every) continue;
        slept = 0;
        ProgressRecord record;
        {
          std::lock_guard<std::mutex> lock(shared->mutex);
          record = shared->sampler.sample(shared->done, shared->total,
                                          /*finished=*/false);
        }
        // Piggyback the process metrics snapshot (throughput, FormatCache,
        // crypto datapaths, wire counters) on the liveness beat.
        const obs::Registry snapshot = worker_metrics_snapshot(record);
        // Best-effort: a dead connection is discovered (and repaired) by
        // the main thread once the shard finishes.
        beat_wire->send(net::kServerConn,
                        fleet_msg::heartbeat(grant.shard, grant.generation,
                                             record, &snapshot, grant.epoch));
      }
    });
    const ShardRunOutcome outcome = run_shard(specs, run);
    stop.store(true, std::memory_order_relaxed);
    beat.join();
    if (!outcome.checkpoint_ok) {
      std::fprintf(stderr,
                   "fleet worker %s: checkpoint write failed (%s); shard "
                   "%zu results are still submitted\n",
                   worker_id.c_str(), run.checkpoint_path.c_str(),
                   grant.shard);
    }

    const ShardResultFile file = to_shard_file(campaign_name, outcome,
                                               grant.shard, shards, grid_fp);
    ProgressRecord final_record;
    {
      std::lock_guard<std::mutex> lock(shared->mutex);
      final_record = shared->sampler.sample(outcome.indices.size(),
                                            outcome.indices.size(),
                                            /*finished=*/true);
    }
    const std::string done_frame = net::encode_frame(
        fleet_msg::shard_done(grant.shard, grant.generation, final_record,
                              file, grant.epoch));
    if (!wire->send_frame(net::kServerConn, done_frame)) {
      // The connection died while we computed. Re-attach and resubmit: a
      // quick reconnect beats the lease deadline and the result is
      // accepted; a slow one gets a refuse and the shard re-runs
      // elsewhere (from our checkpoint). A reconnect that crossed a
      // server restart resubmits under the dead incarnation's epoch and
      // is refused the same way — the replacement server grants the
      // shard afresh and our checkpoint still makes it a resume.
      if (!attach(err)) return false;
      if (!wire->send_frame(net::kServerConn, done_frame)) {
        return fail(err, "fleet worker " + worker_id +
                             ": resubmitting shard " +
                             std::to_string(grant.shard) +
                             " failed after reconnect");
      }
    }
    ++st.shards_completed;
    if (!options.quiet) {
      std::fprintf(stderr,
                   "fleet worker %s: shard %zu submitted (%zu resumed, %zu "
                   "executed)\n",
                   worker_id.c_str(), grant.shard, outcome.resumed,
                   outcome.executed);
    }
    return true;
  };

  if (!attach(error)) return false;

  bool need_request = true;
  std::uint64_t last_request_ms = 0;
  for (;;) {
    if (need_request) {
      if (!wire->send(net::kServerConn, fleet_msg::request())) {
        if (!attach(error)) return false;
        continue;  // retry the request on the fresh connection
      }
      need_request = false;
      last_request_ms = wire->now_ms();
    }
    std::vector<net::TransportEvent> events;
    std::string poll_error;
    if (!wire->poll(200, events, &poll_error)) {
      if (!attach(error)) return false;
      need_request = true;
      continue;
    }
    bool disconnected = false;
    for (const net::TransportEvent& event : events) {
      if (event.kind == net::TransportEvent::Kind::kClose) {
        disconnected = true;
        break;
      }
      if (event.kind != net::TransportEvent::Kind::kMessage) continue;
      const std::string type = fleet_msg::type_of(event.message);
      if (type == "grant") {
        std::uint64_t shard_u = 0;
        std::uint64_t generation = 0;
        if (!u64_field(event.message, "shard", shard_u) ||
            !u64_field(event.message, "generation", generation) ||
            shard_u >= shards) {
          return fail(error, "fleet worker " + worker_id +
                                 ": malformed grant from server");
        }
        LeaseGrant grant;
        grant.shard = static_cast<std::size_t>(shard_u);
        grant.generation = generation;
        grant.epoch = epoch;  // campaign-announced, unless the grant says
        (void)u64_field(event.message, "epoch", grant.epoch);
        if (!run_granted(grant, error)) return false;
        need_request = true;
      } else if (type == "refuse") {
        ++st.shards_refused;
        if (!options.quiet) {
          std::uint64_t shard_u = 0;
          (void)u64_field(event.message, "shard", shard_u);
          std::fprintf(stderr,
                       "fleet worker %s: dropping shard %llu (%s)\n",
                       worker_id.c_str(),
                       static_cast<unsigned long long>(shard_u),
                       string_field(event.message, "reason").c_str());
        }
      } else if (type == "done") {
        if (!options.quiet) {
          std::fprintf(stderr,
                       "fleet worker %s: campaign complete (%zu shard(s) "
                       "submitted, %zu refused, %zu reconnect(s))\n",
                       worker_id.c_str(), st.shards_completed,
                       st.shards_refused, st.reconnects);
        }
        return true;
      } else if (type == "error") {
        return fail(error, "fleet worker " + worker_id + ": server: " +
                               string_field(event.message, "message"));
      }
      // "wait" and duplicate "campaign" messages need no action: the
      // server pushes a grant when a shard frees up.
    }
    if (disconnected) {
      if (!attach(error)) return false;
      need_request = true;
      continue;
    }
    // Belt and braces for a lost wait/grant: quietly re-request after a
    // few silent heartbeat intervals.
    if (!need_request &&
        wire->now_ms() - last_request_ms > 4 * heartbeat_ms) {
      need_request = true;
    }
  }
}

}  // namespace secbus::campaign
