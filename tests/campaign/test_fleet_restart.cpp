// Restart recovery + epoch fencing over FakeTransport: a server killed
// mid-campaign and restarted with `resume` must replay its lease log
// (committed shards stay done, everything else back to pending), bump its
// epoch, refuse pre-restart zombie results, and still produce merged
// output byte-identical to a single-process run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "campaign/fleet.hpp"
#include "campaign/audit.hpp"
#include "campaign/report.hpp"
#include "campaign/telemetry.hpp"
#include "net/fake_transport.hpp"
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
            ("secbus_restart_" + std::to_string(::getpid()) + "_" + tag);
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

class FleetRestartTest : public ::testing::Test {
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

  void step(FakeTransport& fake, FleetServer& server) {
    (void)fake;
    std::string error;
    ASSERT_TRUE(server.step(0, &error)) << error;
  }

  ConnId handshake(FakeTransport& fake, FleetServer& server,
                   const std::string& worker) {
    const ConnId conn = fake.connect_client();
    fake.client_send(conn, fleet_msg::hello(worker));
    step(fake, server);
    (void)fake.take_client_inbox(conn);
    return conn;
  }

  // Expects exactly one message of `type` in the inbox and returns it.
  Json expect_only(const std::vector<Json>& inbox, const std::string& type) {
    EXPECT_EQ(inbox.size(), 1u);
    if (inbox.empty()) return Json();
    EXPECT_EQ(fleet_msg::type_of(inbox[0]), type);
    return inbox[0];
  }

  LeaseGrant grant_of(const Json& msg) {
    LeaseGrant grant;
    std::uint64_t shard = 0;
    EXPECT_TRUE(msg.find("shard")->to_u64(shard));
    EXPECT_TRUE(msg.find("generation")->to_u64(grant.generation));
    if (const Json* epoch = msg.find("epoch"); epoch != nullptr) {
      EXPECT_TRUE(epoch->to_u64(grant.epoch));
    }
    grant.shard = static_cast<std::size_t>(shard);
    return grant;
  }

  LeaseGrant grant_via(FakeTransport& fake, FleetServer& server, ConnId conn) {
    fake.client_send(conn, fleet_msg::request());
    step(fake, server);
    return grant_of(expect_only(fake.take_client_inbox(conn), "grant"));
  }

  // Runs the granted shard for real and submits its result stamped with
  // `epoch` (which may deliberately disagree with the server's).
  void run_and_submit(FakeTransport& fake, FleetServer& server, ConnId conn,
                      const LeaseGrant& grant, std::uint64_t epoch) {
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
    fake.client_send(conn, fleet_msg::shard_done(grant.shard, grant.generation,
                                                 record, file, epoch));
    step(fake, server);
  }

  CampaignSpec spec_;
};

TEST_F(FleetRestartTest, ResumeRestoresCommitsFencesZombiesAndStaysByteIdentical) {
  TempDir dir("resume");

  // --- incarnation 0: commit shard 0, grant shard 1, then "crash" --------
  FakeTransport fake1;
  LeaseGrant stale;  // shard 1's grant, minted under epoch 0
  {
    FleetServer server(fake1, spec_, options(2, dir));
    ASSERT_TRUE(server.init_error().empty()) << server.init_error();
    EXPECT_EQ(server.epoch(), 0u);

    const ConnId w1 = handshake(fake1, server, "w1");
    const LeaseGrant g0 = grant_via(fake1, server, w1);
    ASSERT_EQ(g0.shard, 0u);
    EXPECT_EQ(g0.epoch, 0u);
    run_and_submit(fake1, server, w1, g0, g0.epoch);
    ASSERT_EQ(server.leases().state(0), LeaseManager::ShardState::kDone);

    stale = grant_via(fake1, server, w1);
    ASSERT_EQ(stale.shard, 1u);
    // Destroying the server here *is* the crash: the log has shard 0's
    // commit but no trace of shard 1 completing.
  }

  // --- a fresh serve over the crashed log must refuse --------------------
  {
    FakeTransport fresh_fake;
    FleetServer fresh(fresh_fake, spec_, options(2, dir));
    EXPECT_NE(fresh.init_error().find("--resume"), std::string::npos)
        << fresh.init_error();
    std::string error;
    EXPECT_FALSE(fresh.step(0, &error));
    EXPECT_EQ(error, fresh.init_error());
  }

  // --- incarnation 1: resume -------------------------------------------
  FakeTransport fake2;
  FleetServerOptions resume_opt = options(2, dir);
  resume_opt.resume = true;
  FleetServer server(fake2, spec_, resume_opt);
  ASSERT_TRUE(server.init_error().empty()) << server.init_error();
  EXPECT_EQ(server.epoch(), 1u);
  EXPECT_EQ(server.resumed_shards(), 1u);
  EXPECT_EQ(server.leases().state(0), LeaseManager::ShardState::kDone);
  EXPECT_EQ(server.leases().state(1), LeaseManager::ShardState::kPending);

  // The zombie reconnects still holding its epoch-0 lease on shard 1. Its
  // heartbeat and its completed result both present the stale epoch and
  // are fenced off with drop=true; the shard stays pending.
  const ConnId zombie = handshake(fake2, server, "w1");
  ProgressRecord running;
  running.campaign = spec_.name;
  running.total = 10;
  fake2.client_send(zombie, fleet_msg::heartbeat(stale.shard, stale.generation,
                                                 running, nullptr,
                                                 /*epoch=*/0));
  step(fake2, server);
  Json refuse = expect_only(fake2.take_client_inbox(zombie), "refuse");
  EXPECT_TRUE(refuse.find("drop")->as_bool());
  run_and_submit(fake2, server, zombie, stale, /*epoch=*/0);
  refuse = expect_only(fake2.take_client_inbox(zombie), "refuse");
  EXPECT_TRUE(refuse.find("drop")->as_bool());
  EXPECT_EQ(server.leases().state(1), LeaseManager::ShardState::kPending);

  // Re-requesting yields a fresh epoch-1 grant, and the result minted
  // under it is accepted — finishing the campaign.
  const LeaseGrant regrant = grant_via(fake2, server, zombie);
  EXPECT_EQ(regrant.shard, 1u);
  EXPECT_EQ(regrant.epoch, 1u);
  EXPECT_EQ(regrant.generation, 1u);  // fresh lease manager, first grant
  run_and_submit(fake2, server, zombie, regrant, regrant.epoch);
  ASSERT_TRUE(server.finished());
  EXPECT_EQ(server.results().size(), server.specs().size());

  // Byte-identity across the crash: the merged fleet report equals the
  // direct single-process run's, despite shard 0 predating the restart.
  scenario::BatchOptions direct_opts;
  direct_opts.threads = 2;
  const std::vector<scenario::JobResult> direct =
      scenario::run_batch(server.specs(), direct_opts);
  EXPECT_EQ(campaign_json(CampaignReport::from(spec_.name, server.results())),
            campaign_json(CampaignReport::from(spec_.name, direct)));

  // The completed log is started over by the next fresh serve, which
  // begins at epoch 0 with a clean slate: one server_start, no commits.
  {
    FakeTransport fake3;
    FleetServer next(fake3, spec_, options(2, dir));
    EXPECT_TRUE(next.init_error().empty()) << next.init_error();
    EXPECT_EQ(next.epoch(), 0u);
    EXPECT_EQ(next.resumed_shards(), 0u);
    std::vector<AuditRecord> records;
    std::string error;
    ASSERT_TRUE(read_audit_log(next.audit_path(), records, &error)) << error;
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].event, AuditEvent::kServerStart);
    EXPECT_EQ(records[0].epoch, 0u);
  }
}

TEST_F(FleetRestartTest, ResumeWithoutLogIsAnError) {
  TempDir dir("no-log");
  FakeTransport fake;
  FleetServerOptions opt = options(2, dir);
  opt.resume = true;
  FleetServer server(fake, spec_, opt);
  EXPECT_FALSE(server.init_error().empty());
  std::string error;
  EXPECT_FALSE(server.step(0, &error));
}

TEST_F(FleetRestartTest, ResumeRefusesIdentityMismatch) {
  TempDir dir("identity");
  // A log for the same campaign name but a different shard count must not
  // resume — the committed shard files would not line up.
  {
    AuditLog log;
    ASSERT_TRUE(log.open(dir.path() + "/" + audit_file_name(spec_.name)));
    AuditRecord start;
    start.event = AuditEvent::kServerStart;
    start.campaign = spec_.name;
    start.shards = 5;
    start.jobs = 3;
    start.grid_fp = 0x1234u;
    ASSERT_TRUE(log.append(start));
  }
  FakeTransport fake;
  FleetServerOptions opt = options(2, dir);
  opt.resume = true;
  FleetServer server(fake, spec_, opt);
  EXPECT_FALSE(server.init_error().empty());
  EXPECT_NE(server.init_error().find("different campaign"), std::string::npos)
      << server.init_error();
}

}  // namespace
}  // namespace secbus::campaign
