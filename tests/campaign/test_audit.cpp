// Lease log + fleet timeline + /status document, pinned over
// FakeTransport's manual clock: a full grant -> heartbeat -> expiry ->
// reassignment -> zombie-refusal -> commit story must leave exactly the
// expected record sequence behind, the Chrome-trace timeline built from it
// must reconcile (unmatched == 0), the resume replay must refuse logs that
// contradict themselves, a commit must never be logged for a shard file
// that did not land, and the status/registry surfaces the HTTP plane
// serves must reflect the same state.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "campaign/audit.hpp"
#include "campaign/fleet.hpp"
#include "campaign/shard.hpp"
#include "campaign/telemetry.hpp"
#include "net/fake_transport.hpp"
#include "obs/exposition.hpp"
#include "obs/fleet_timeline.hpp"
#include "scenario/runner.hpp"

namespace secbus::campaign {
namespace {

using net::ConnId;
using net::FakeTransport;
using util::Json;

std::string example_path(const std::string& name) {
  return std::string(SECBUS_REPO_DIR) + "/examples/campaigns/" + name;
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("secbus_audit_" + std::to_string(::getpid()) + "_" + tag);
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

// --- record (de)serialization -----------------------------------------------

TEST(AuditRecordIo, RoundTripsAllFields) {
  AuditRecord record;
  record.t_ms = 1234;
  record.event = AuditEvent::kReassigned;
  record.shard = 7;
  record.generation = 3;
  record.epoch = 2;
  record.worker = "w-9";
  record.detail = "previous lease expired";
  record.campaign = "camp";
  record.shards = 4;
  record.jobs = 12;
  record.grid_fp = 0xfeedu;
  record.file = "/tmp/camp.shard-1-of-4.json";
  AuditRecord back;
  ASSERT_TRUE(audit_record_from_json(audit_record_to_json(record), back));
  EXPECT_EQ(back.t_ms, record.t_ms);
  EXPECT_EQ(back.event, record.event);
  EXPECT_EQ(back.shard, record.shard);
  EXPECT_EQ(back.generation, record.generation);
  EXPECT_EQ(back.epoch, record.epoch);
  EXPECT_EQ(back.worker, record.worker);
  EXPECT_EQ(back.detail, record.detail);
  EXPECT_EQ(back.campaign, record.campaign);
  EXPECT_EQ(back.shards, record.shards);
  EXPECT_EQ(back.jobs, record.jobs);
  EXPECT_EQ(back.grid_fp, record.grid_fp);
  EXPECT_EQ(back.file, record.file);
}

TEST(AuditRecordIo, EpochDefaultsToZeroOnOldLogs) {
  // Logs written before the epoch field must read back as epoch 0.
  Json j;
  std::string error;
  ASSERT_TRUE(Json::parse(R"({"t_ms":5,"event":"grant","shard":1,)"
                          R"("generation":2,"worker":"w"})",
                          j, &error))
      << error;
  AuditRecord back;
  ASSERT_TRUE(audit_record_from_json(j, back));
  EXPECT_EQ(back.epoch, 0u);
}

TEST(AuditRecordIo, OptionalFieldsOmittedWhenEmpty) {
  AuditRecord record;
  record.worker = "w";
  const Json j = audit_record_to_json(record);
  for (const char* field :
       {"detail", "campaign", "shards", "jobs", "grid_fp", "file"}) {
    EXPECT_EQ(j.find(field), nullptr) << field;
  }
}

TEST(AuditRecordIo, EveryEventNameRoundTrips) {
  for (AuditEvent e :
       {AuditEvent::kGrant, AuditEvent::kReassigned, AuditEvent::kExtend,
        AuditEvent::kExpire, AuditEvent::kRelease, AuditEvent::kRefuse,
        AuditEvent::kCommit, AuditEvent::kServerStart}) {
    AuditEvent back = AuditEvent::kCommit;
    ASSERT_TRUE(parse_audit_event(to_string(e), back)) << to_string(e);
    EXPECT_EQ(back, e);
  }
  AuditEvent out;
  EXPECT_FALSE(parse_audit_event("granted", out));
}

TEST(AuditRecordIo, FileNameConvention) {
  EXPECT_EQ(audit_file_name("ci_smoke"), "ci_smoke.fleet-audit.jsonl");
}

// --- resume replay ------------------------------------------------------------

AuditRecord server_start(std::uint64_t epoch, const std::string& campaign,
                         std::size_t shards) {
  AuditRecord r;
  r.event = AuditEvent::kServerStart;
  r.epoch = epoch;
  r.campaign = campaign;
  r.shards = shards;
  r.jobs = 4;
  r.grid_fp = 7;
  return r;
}

AuditRecord commit(std::uint64_t epoch, std::size_t shard,
                   const std::string& file) {
  AuditRecord r;
  r.event = AuditEvent::kCommit;
  r.epoch = epoch;
  r.shard = shard;
  r.generation = 2;
  r.worker = "w1";
  r.file = file;
  return r;
}

TEST(LeaseLogReplay, RestoresIdentityEpochAndCommits) {
  AuditRecord grant;
  grant.event = AuditEvent::kGrant;
  grant.shard = 1;
  LeaseLogState state;
  std::string error;
  ASSERT_TRUE(replay_lease_log(
      {server_start(0, "camp", 2), grant, commit(0, 1, "/tmp/s1"),
       server_start(1, "camp", 2), commit(1, 0, "/tmp/s0")},
      state, &error))
      << error;
  EXPECT_TRUE(state.any_epoch);
  EXPECT_EQ(state.last_epoch, 1u);
  EXPECT_EQ(state.campaign, "camp");
  EXPECT_EQ(state.shards, 2u);
  EXPECT_EQ(state.jobs, 4u);
  EXPECT_EQ(state.grid_fp, 7u);
  ASSERT_EQ(state.committed.size(), 2u);
  EXPECT_EQ(state.committed.at(1).epoch, 0u);
  EXPECT_EQ(state.committed.at(1).generation, 2u);
  EXPECT_EQ(state.committed.at(1).worker, "w1");
  EXPECT_EQ(state.committed.at(0).file, "/tmp/s0");
  EXPECT_TRUE(state.complete());
}

TEST(LeaseLogReplay, RefusesMixedCampaigns) {
  LeaseLogState state;
  std::string error;
  EXPECT_FALSE(replay_lease_log(
      {server_start(0, "camp_a", 2), server_start(1, "camp_b", 2)}, state,
      &error));
  EXPECT_NE(error.find("mixes different campaigns"), std::string::npos);
}

TEST(LeaseLogReplay, RefusesEpochGoingBackwards) {
  LeaseLogState state;
  std::string error;
  EXPECT_FALSE(replay_lease_log(
      {server_start(3, "camp", 2), server_start(2, "camp", 2)}, state,
      &error));
  EXPECT_NE(error.find("backwards"), std::string::npos);
}

TEST(LeaseLogReplay, RefusesCommitForOutOfRangeShard) {
  LeaseLogState state;
  std::string error;
  EXPECT_FALSE(replay_lease_log(
      {server_start(0, "camp", 2), commit(0, 5, "/tmp/s5")}, state, &error));
  EXPECT_NE(error.find("shard 5"), std::string::npos);
}

TEST(LeaseLogReplay, LogWithoutIdentityIsNotResumable) {
  // A server_start with no campaign identity (and a commit with no file)
  // carries nothing a resume could trust.
  AuditRecord bare_start;
  bare_start.event = AuditEvent::kServerStart;
  LeaseLogState state;
  std::string error;
  ASSERT_TRUE(replay_lease_log({bare_start, commit(0, 0, "")}, state, &error))
      << error;
  EXPECT_FALSE(state.any_epoch);
  EXPECT_TRUE(state.committed.empty());
  EXPECT_FALSE(state.complete());
}

// --- the server's audit trail over FakeTransport ----------------------------

class FleetAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string error;
    ASSERT_TRUE(
        load_campaign_file(example_path("ci_smoke.json"), spec_, &error))
        << error;
  }

  FleetServerOptions options(std::size_t shards, const TempDir& dir) {
    FleetServerOptions opt;
    opt.shards = shards;
    opt.lease_timeout_ms = 1000;
    opt.heartbeat_ms = 200;
    opt.out_dir = dir.path();
    opt.quiet = true;
    return opt;
  }

  ConnId handshake(FleetServer& server, const std::string& worker) {
    const ConnId conn = fake_.connect_client();
    fake_.client_send(conn, fleet_msg::hello(worker));
    step(server);
    (void)fake_.take_client_inbox(conn);
    return conn;
  }

  void step(FleetServer& server) {
    std::string error;
    ASSERT_TRUE(server.step(0, &error)) << error;
  }

  LeaseGrant grant_via(FleetServer& server, ConnId conn) {
    fake_.client_send(conn, fleet_msg::request());
    step(server);
    const std::vector<Json> inbox = fake_.take_client_inbox(conn);
    LeaseGrant grant;
    EXPECT_EQ(inbox.size(), 1u);
    if (inbox.empty()) return grant;
    EXPECT_EQ(fleet_msg::type_of(inbox[0]), "grant");
    std::uint64_t shard = 0;
    EXPECT_TRUE(inbox[0].find("shard")->to_u64(shard));
    EXPECT_TRUE(inbox[0].find("generation")->to_u64(grant.generation));
    grant.shard = static_cast<std::size_t>(shard);
    return grant;
  }

  // Runs the granted shard for real and submits it; false (with `error`)
  // when the server's step fails.
  bool try_submit(FleetServer& server, ConnId conn, const LeaseGrant& grant,
                  std::string* error) {
    ShardRunOptions run;
    run.shard = grant.shard;
    run.shards = server.leases().shard_count();
    run.threads = 2;
    const ShardRunOutcome outcome = run_shard(server.specs(), run);
    const ShardResultFile file =
        to_shard_file(spec_.name, outcome, grant.shard,
                      server.leases().shard_count(), server.grid_fp());
    ProgressSampler sampler;
    sampler.begin(spec_.name, grant.shard, server.leases().shard_count());
    const ProgressRecord record = sampler.sample(
        outcome.indices.size(), outcome.indices.size(), /*finished=*/true);
    fake_.client_send(conn, fleet_msg::shard_done(grant.shard,
                                                  grant.generation, record,
                                                  file));
    return server.step(0, error);
  }

  void run_and_submit(FleetServer& server, ConnId conn,
                      const LeaseGrant& grant) {
    std::string error;
    ASSERT_TRUE(try_submit(server, conn, grant, &error)) << error;
  }

  std::vector<AuditRecord> read_log(const FleetServer& server) {
    std::vector<AuditRecord> records;
    std::string error;
    EXPECT_TRUE(read_audit_log(server.audit_path(), records, &error))
        << error;
    return records;
  }

  FakeTransport fake_;
  CampaignSpec spec_;
};

TEST_F(FleetAuditTest, LeaseLifecycleLeavesExactAuditSequence) {
  TempDir dir("lifecycle");
  FleetServer server(fake_, spec_, options(1, dir));
  ASSERT_FALSE(server.audit_path().empty());

  // Grant to w1, one accepted heartbeat, then silence past the deadline.
  const ConnId w1 = handshake(server, "w1");
  const LeaseGrant grant = grant_via(server, w1);
  ASSERT_EQ(grant.generation, 1u);
  ProgressRecord running;
  running.campaign = spec_.name;
  running.total = 10;
  fake_.advance_ms(800);
  fake_.client_send(w1, fleet_msg::heartbeat(0, grant.generation, running));
  step(server);
  fake_.advance_ms(1500);
  step(server);
  ASSERT_EQ(server.leases().state(0), LeaseManager::ShardState::kPending);

  // w2 picks the shard back up (a reassignment), the zombie is fenced off
  // on both its late heartbeat and its late result, then w2 commits.
  const ConnId w2 = handshake(server, "w2");
  const LeaseGrant regrant = grant_via(server, w2);
  ASSERT_EQ(regrant.generation, 2u);
  fake_.client_send(w1, fleet_msg::heartbeat(0, grant.generation, running));
  step(server);
  (void)fake_.take_client_inbox(w1);
  run_and_submit(server, w1, grant);  // stale generation: refused
  (void)fake_.take_client_inbox(w1);
  run_and_submit(server, w2, regrant);
  ASSERT_TRUE(server.finished());

  const std::vector<AuditRecord> log = read_log(server);
  std::vector<std::string> events;
  events.reserve(log.size());
  for (const AuditRecord& r : log) events.push_back(to_string(r.event));
  EXPECT_EQ(events,
            (std::vector<std::string>{"server_start", "grant", "extend",
                                      "expire", "reassigned", "refuse",
                                      "refuse", "commit"}));

  // Timestamps are server-relative and nondecreasing under the manual
  // clock; generations fence exactly as the lease manager did. A fresh
  // server is epoch 0 on every record.
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_GE(log[i].t_ms, log[i - 1].t_ms) << "record " << i;
  }
  for (const AuditRecord& r : log) EXPECT_EQ(r.epoch, 0u);
  EXPECT_EQ(log[1].worker, "w1");
  EXPECT_EQ(log[1].generation, 1u);
  EXPECT_EQ(log[3].worker, "w1");  // the expiry names the lapsed holder
  EXPECT_EQ(log[4].worker, "w2");
  EXPECT_EQ(log[4].generation, 2u);
  EXPECT_EQ(log[5].detail, "stale heartbeat");
  EXPECT_EQ(log[6].detail, "stale result");
  EXPECT_EQ(log[7].worker, "w2");

  // The timeline built from this log reconciles exactly: two spans (one
  // expired, one committed), the extend folded in, three instants (one
  // expiry, two refusals), nothing unmatched.
  obs::FleetTimelineStats stats;
  const std::string timeline = obs::fleet_timeline_json(log, &stats);
  EXPECT_EQ(stats.tracks, 2u);
  EXPECT_EQ(stats.lease_spans, 2u);
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.released, 0u);
  EXPECT_EQ(stats.extends, 1u);
  EXPECT_EQ(stats.instants, 3u);
  EXPECT_EQ(stats.unmatched, 0u);
  EXPECT_EQ(stats.epochs, 1u);  // one server_start, one incarnation
  EXPECT_EQ(stats.lost, 0u);    // nothing was open when it started
  // It is a loadable Chrome trace document.
  Json doc;
  std::string error;
  ASSERT_TRUE(Json::parse(timeline, doc, &error)) << error;
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  EXPECT_GE(doc.find("traceEvents")->items().size(), 5u);
}

TEST_F(FleetAuditTest, DisconnectIsAuditedAsRelease) {
  TempDir dir("release");
  FleetServer server(fake_, spec_, options(1, dir));
  const ConnId w1 = handshake(server, "w1");
  (void)grant_via(server, w1);
  fake_.client_close(w1);
  step(server);

  const std::vector<AuditRecord> log = read_log(server);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].event, AuditEvent::kServerStart);
  EXPECT_EQ(log[2].event, AuditEvent::kRelease);
  EXPECT_EQ(log[2].worker, "w1");

  obs::FleetTimelineStats stats;
  (void)obs::fleet_timeline_json(log, &stats);
  EXPECT_EQ(stats.released, 1u);
  EXPECT_EQ(stats.unmatched, 0u);
}

TEST_F(FleetAuditTest, CommitIsLoggedOnlyAfterTheShardFileLands) {
  TempDir dir("unwritable");
  const std::string shard0 =
      (std::filesystem::path(dir.path()) / shard_file_name(spec_.name, 0, 2))
          .string();
  {
    FleetServer server(fake_, spec_, options(2, dir));
    ASSERT_TRUE(server.init_error().empty()) << server.init_error();
    const ConnId w1 = handshake(server, "w1");
    const LeaseGrant grant = grant_via(server, w1);
    ASSERT_EQ(grant.shard, 0u);
    // A directory where the shard file belongs: the write fails like a
    // full disk would.
    std::filesystem::create_directory(shard0);
    std::string error;
    EXPECT_FALSE(try_submit(server, w1, grant, &error));
    EXPECT_NE(error.find(shard0), std::string::npos) << error;

    for (const AuditRecord& r : read_log(server)) {
      EXPECT_FALSE(r.event == AuditEvent::kCommit && r.shard == 0)
          << "commit logged for a shard file that never landed";
    }
  }

  // The restarted server finds no commit for shard 0 and re-runs it.
  std::filesystem::remove(shard0);
  FakeTransport fake;
  FleetServerOptions resume = options(2, dir);
  resume.resume = true;
  FleetServer server(fake, spec_, resume);
  ASSERT_TRUE(server.init_error().empty()) << server.init_error();
  EXPECT_EQ(server.epoch(), 1u);
  EXPECT_EQ(server.resumed_shards(), 0u);
  EXPECT_EQ(server.leases().state(0), LeaseManager::ShardState::kPending);
}

TEST_F(FleetAuditTest, UnwritableLogRefusesToServe) {
  TempDir dir("no-log");
  // A directory where the log belongs: it can be neither replayed nor
  // opened, and the server must not run without it.
  std::filesystem::create_directory(std::filesystem::path(dir.path()) /
                                    audit_file_name(spec_.name));
  FleetServer server(fake_, spec_, options(1, dir));
  EXPECT_FALSE(server.init_error().empty());
  std::string error;
  EXPECT_FALSE(server.step(0, &error));
  EXPECT_EQ(error, server.init_error());
}

TEST_F(FleetAuditTest, LogWithoutIdentityCannotBeResumed) {
  TempDir dir("no-identity");
  {
    // What a server that predates the identity fields would have left.
    AuditLog log;
    ASSERT_TRUE(log.open(dir.path() + "/" + audit_file_name(spec_.name)));
    AuditRecord start;
    start.event = AuditEvent::kServerStart;
    ASSERT_TRUE(log.append(start));
  }
  FleetServerOptions opt = options(1, dir);
  opt.resume = true;
  FleetServer resumed(fake_, spec_, opt);
  EXPECT_NE(resumed.init_error().find("nothing to resume"), std::string::npos)
      << resumed.init_error();
  // Nor does a fresh serve silently start over it.
  FakeTransport fake;
  FleetServer fresh(fake, spec_, options(1, dir));
  EXPECT_NE(fresh.init_error().find("--resume"), std::string::npos)
      << fresh.init_error();
}

// --- /status + fleet registry ----------------------------------------------

TEST_F(FleetAuditTest, StatusJsonTracksLeasesAndWorkers) {
  TempDir dir("status");
  FleetServer server(fake_, spec_, options(2, dir));
  const ConnId w1 = handshake(server, "w1");
  const LeaseGrant grant = grant_via(server, w1);

  Json status = server.status_json();
  EXPECT_EQ(status.find("campaign")->as_string(), spec_.name);
  std::uint64_t u = 0;
  ASSERT_TRUE(status.find("leased")->to_u64(u));
  EXPECT_EQ(u, 1u);
  EXPECT_FALSE(status.find("finished")->as_bool());
  const Json& lease0 = status.find("leases")->items()[0];
  EXPECT_EQ(lease0.find("state")->as_string(), "leased");
  EXPECT_EQ(lease0.find("worker")->as_string(), "w1");
  ASSERT_NE(lease0.find("deadline_ms"), nullptr);
  const Json& lease1 = status.find("leases")->items()[1];
  EXPECT_EQ(lease1.find("state")->as_string(), "pending");
  EXPECT_EQ(lease1.find("deadline_ms"), nullptr);
  ASSERT_EQ(status.find("workers")->items().size(), 1u);
  const Json& worker0 = status.find("workers")->items()[0];
  EXPECT_EQ(worker0.find("worker")->as_string(), "w1");
  EXPECT_TRUE(worker0.find("connected")->as_bool());

  // The same document renders as the single-screen `campaign top` view.
  const std::string view = render_fleet_top(status);
  EXPECT_NE(view.find(spec_.name), std::string::npos);
  EXPECT_NE(view.find("w1"), std::string::npos);
  EXPECT_NE(view.find("leased"), std::string::npos);

  run_and_submit(server, w1, grant);
  const LeaseGrant grant2 = grant_via(server, w1);
  run_and_submit(server, w1, grant2);
  ASSERT_TRUE(server.finished());
  status = server.status_json();
  EXPECT_TRUE(status.find("finished")->as_bool());
  ASSERT_TRUE(status.find("done")->to_u64(u));
  EXPECT_EQ(u, 2u);
}

TEST_F(FleetAuditTest, FleetRegistrySumsWorkerSnapshots) {
  TempDir dir("registry");
  FleetServer server(fake_, spec_, options(2, dir));
  const ConnId w1 = handshake(server, "w1");
  const ConnId w2 = handshake(server, "w2");
  const LeaseGrant g1 = grant_via(server, w1);
  const LeaseGrant g2 = grant_via(server, w2);

  // Each worker heartbeats a snapshot; the server publishes both per
  // worker and summed under fleet.total.* (counters stay counters).
  ProgressRecord running;
  running.campaign = spec_.name;
  obs::Registry snap1;
  snap1.counter("worker.jobs_done", 3);
  snap1.counter("net.frames_out", 10);
  snap1.gauge("worker.jobs_per_sec", 1.5);
  fake_.client_send(
      w1, fleet_msg::heartbeat(g1.shard, g1.generation, running, &snap1));
  obs::Registry snap2;
  snap2.counter("worker.jobs_done", 4);
  snap2.counter("net.frames_out", 20);
  snap2.gauge("worker.jobs_per_sec", 2.25);
  fake_.client_send(
      w2, fleet_msg::heartbeat(g2.shard, g2.generation, running, &snap2));
  step(server);

  const obs::Registry reg = server.fleet_registry();
  EXPECT_EQ(reg.counter_value("fleet.jobs"),
            static_cast<std::uint64_t>(server.specs().size()));
  EXPECT_EQ(reg.counter_value("fleet.shards"), 2u);
  EXPECT_EQ(reg.value("fleet.workers.connected"), 2.0);
  // Ordinals follow first appearance: w1 is worker0, w2 worker1.
  EXPECT_EQ(reg.counter_value("fleet.worker0.worker.jobs_done"), 3u);
  EXPECT_EQ(reg.counter_value("fleet.worker1.worker.jobs_done"), 4u);
  EXPECT_EQ(reg.counter_value("fleet.total.worker.jobs_done"), 7u);
  EXPECT_EQ(reg.counter_value("fleet.total.net.frames_out"), 30u);
  const obs::Metric* total_rate = reg.find("fleet.total.worker.jobs_per_sec");
  ASSERT_NE(total_rate, nullptr);
  EXPECT_FALSE(total_rate->is_counter);
  EXPECT_DOUBLE_EQ(total_rate->value, 3.75);

  // The registry renders as valid Prometheus exposition with the fleet
  // totals present.
  const std::string text = obs::prometheus_text(reg);
  EXPECT_NE(text.find("# TYPE secbus_fleet_total_worker_jobs_done counter\n"
                      "secbus_fleet_total_worker_jobs_done 7\n"),
            std::string::npos);
}

// --- the worker-side snapshot ----------------------------------------------

TEST(WorkerMetricsSnapshot, CarriesThroughputCacheBackendAndNet) {
  ProgressRecord progress;
  progress.done = 5;
  progress.total = 8;
  progress.elapsed_ms = 2000;
  progress.jobs_per_sec = 2.5;
  progress.format_cache_hits = 30;
  progress.format_cache_misses = 10;
  const obs::Registry snap = worker_metrics_snapshot(progress);
  EXPECT_EQ(snap.counter_value("worker.jobs_done"), 5u);
  EXPECT_EQ(snap.counter_value("worker.jobs_total"), 8u);
  EXPECT_EQ(snap.counter_value("worker.elapsed_ms"), 2000u);
  EXPECT_DOUBLE_EQ(snap.value("worker.jobs_per_sec"), 2.5);
  EXPECT_EQ(snap.counter_value("core.format_cache.hits"), 30u);
  EXPECT_DOUBLE_EQ(snap.value("core.format_cache.hit_rate"), 0.75);
  // The crypto datapaths and wire counters ride along for the exposition.
  EXPECT_NE(snap.find("crypto.hw_datapaths"), nullptr);
  EXPECT_NE(snap.find("net.frames_in"), nullptr);
  EXPECT_NE(snap.find("net.bytes_out"), nullptr);
}

}  // namespace
}  // namespace secbus::campaign
