// Minimal non-blocking TCP building blocks for the campaign fleet.
//
// The fleet control plane (campaign/fleet.hpp) is a single-threaded poll
// loop: one listening socket, a handful of worker connections, no thread
// per connection. These wrappers own exactly that much POSIX surface —
// RAII fds, non-blocking accept/read/write with EINTR/EAGAIN folded into
// tri-state results, and a poll() veneer — and nothing else. Higher layers
// never see errno.
//
// On platforms without BSD sockets every operation fails cleanly with
// "sockets unsupported on this platform", so the library still links and
// the fleet state machine stays unit-testable through net::FakeTransport.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace secbus::net {

#if defined(__unix__) || defined(__APPLE__)
inline constexpr bool kHasSockets = true;
#else
inline constexpr bool kHasSockets = false;
#endif

// Result of one non-blocking read/write attempt.
enum class IoStatus : std::uint8_t {
  kOk,        // made progress (`n` bytes)
  kWouldBlock,  // no progress now; retry after poll()
  kClosed,    // orderly remote close (reads only)
  kError,     // connection is dead
};

// RAII socket fd. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  void close();

  // Non-blocking I/O; `n` receives the bytes moved on kOk.
  IoStatus read_some(void* buf, std::size_t cap, std::size_t& n);
  IoStatus write_some(const void* buf, std::size_t len, std::size_t& n);

 private:
  int fd_ = -1;
};

// Listening TCP socket bound to 127.0.0.1-or-any:`port`. `port` 0 asks the
// kernel for an ephemeral port; `bound_port()` reports the real one.
class TcpListener {
 public:
  // `loopback_only` binds 127.0.0.1 (tests, local fleets); otherwise
  // INADDR_ANY. Returns false with a message on failure.
  bool listen(std::uint16_t port, bool loopback_only, std::string* error);

  // Accepts one pending connection as a non-blocking socket. Returns an
  // invalid Socket when none is pending (or on transient error).
  [[nodiscard]] Socket accept();

  [[nodiscard]] bool valid() const noexcept { return socket_.valid(); }
  [[nodiscard]] int fd() const noexcept { return socket_.fd(); }
  [[nodiscard]] std::uint16_t bound_port() const noexcept { return port_; }
  void close() { socket_.close(); }

 private:
  Socket socket_;
  std::uint16_t port_ = 0;
};

// Blocking connect to host:port (worker side; the worker has nothing to do
// until it is connected). The returned socket is switched to non-blocking.
// Returns an invalid Socket with `error` set on failure.
[[nodiscard]] Socket tcp_connect(const std::string& host, std::uint16_t port,
                                 std::string* error);

// poll(2) veneer: waits up to `timeout_ms` for readability (always) and
// writability (`want_write[i]`) on `fds`. Returns bitmasks per fd:
struct PollResult {
  bool readable = false;
  bool writable = false;
  bool broken = false;  // HUP/ERR/NVAL
};
// False only on hard poll() failure. Timeout produces all-false results.
bool poll_fds(const std::vector<int>& fds, const std::vector<bool>& want_write,
              std::uint64_t timeout_ms, std::vector<PollResult>& out,
              std::string* error);

// Monotonic wall-clock milliseconds (steady_clock) — the fleet's time base.
[[nodiscard]] std::uint64_t steady_now_ms();

}  // namespace secbus::net
