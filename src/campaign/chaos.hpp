// Deterministic fault injection for the campaign fleet.
//
// Fault tolerance that is only exercised by real crashes is untested fault
// tolerance. ChaosOptions is a tiny seam that makes fleet processes fail
// at *chosen, reproducible* points so the recovery paths run on every CI
// build, not just on bad days:
//
//   * kill_after:<n>        — a shard worker dies after its n-th completed
//     job. The worker checkpoints the n-th job first and then calls
//     std::_Exit (no unwinding, no flushing — as close to a real SIGKILL
//     as a process can do to itself), which is exactly the torn state the
//     JSONL replay and lease machinery must absorb.
//   * kill_server_after:<n> — the fleet *server* dies right after its n-th
//     shard commit is in the lease log (campaign/audit.hpp). Restarting with
//     `campaign serve --resume` must recover the fleet byte-identically.
//   * net:<k=v,...>         — seeded network faults on the process's fleet
//     transport (net/chaos_transport.hpp): drop=<p>, dup=<p>, trunc=<p>,
//     reset=<p>, delay_ms=<lo>..<hi>, seed=<n>.
//
// Activation: programmatic (ShardRunOptions::chaos / WorkerOptions::chaos /
// FleetServerOptions::chaos) or the SECBUS_CHAOS environment variable;
// directives are separated by ';', e.g.
//
//   SECBUS_CHAOS=kill_after:5                      die after 5 jobs (exit 42)
//   SECBUS_CHAOS=kill_server_after:2               server dies after commit 2
//   SECBUS_CHAOS='net:drop=0.05,delay_ms=0..20,reset=0.02,seed=7'
//   SECBUS_CHAOS='kill_after:5;net:drop=0.1'       both at once
//
// The variable is parsed strictly; a malformed value is a hard error at
// startup rather than silently-no-chaos (a chaos test that forgot to
// inject is the worst kind of green).
#pragma once

#include <cstdint>
#include <string>

#include "net/chaos_transport.hpp"

namespace secbus::campaign {

// Exit status of a chaos-killed process: distinguishable from both success
// (0) and ordinary failure (1) in wait status checks and CI logs.
inline constexpr int kChaosExitCode = 42;

struct ChaosOptions {
  enum class Kind : std::uint8_t {
    kNone,
    kKillAfter,  // std::_Exit(kChaosExitCode) after `kill_after` jobs
  };
  Kind kind = Kind::kNone;
  std::uint64_t kill_after = 0;
  // Server-side kill switch: _Exit(kChaosExitCode) right after the n-th
  // lease-log commit of this process flushes (0 = disabled).
  std::uint64_t kill_server_after = 0;
  // Seeded network faults for this process's fleet transport.
  net::ChaosNetOptions net;

  [[nodiscard]] bool enabled() const noexcept {
    return kind != Kind::kNone || kill_server_after != 0 || net.enabled;
  }

  // Parses ';'-separated directives ("kill_after:<n>",
  // "kill_server_after:<n>", "net:<k=v,...>"). Empty text parses to
  // no-chaos.
  static bool parse(const std::string& text, ChaosOptions& out,
                    std::string* error);

  // Reads SECBUS_CHAOS. Unset parses to no-chaos; a malformed value
  // returns false with a message.
  static bool from_env(ChaosOptions& out, std::string* error);
};

// Call after every completed job with the number of jobs this process has
// executed so far; dies when the configured point is reached. Announces
// the death on stderr first so logs show the kill was injected, not a bug.
void chaos_maybe_die(const ChaosOptions& chaos, std::uint64_t executed_jobs);

// Server-side twin: call after every logged shard commit with the
// number of commits this process has logged. Dies (exit 42) when
// kill_server_after is reached — after the commit record flushed, so the
// restarted server replays everything this one durably recorded.
void chaos_maybe_kill_server(const ChaosOptions& chaos,
                             std::uint64_t logged_commits);

}  // namespace secbus::campaign
