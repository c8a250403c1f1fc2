// In-process fake transport: the fleet state machine without sockets.
//
// Tests stand a FleetServer on a FakeTransport, script worker behaviour
// through the client-side API (connect / client_send / client_close), and
// advance a manual clock to trigger lease expiry at exact instants. Every
// message still round-trips through the length-prefixed frame encoder and
// decoder (net/frame.hpp), so the wire format is exercised by the same
// tests that exercise the protocol.
//
// Single-threaded by design: drive the server and the scripted clients
// from one test thread.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string_view>
#include <vector>

#include "net/frame.hpp"
#include "net/transport.hpp"

namespace secbus::net {

class FakeTransport : public Transport {
 public:
  // --- test-side (the "workers") ---------------------------------------
  // Opens a new fake connection; the server sees kOpen on its next poll.
  ConnId connect_client();

  // Sends a message from client `conn` to the server (via framing). The
  // server sees kMessage on its next poll. No-op on a closed connection.
  void client_send(ConnId conn, const util::Json& message);
  // The same for a message already serialized as compact JSON.
  void client_send(ConnId conn, std::string_view payload);

  // Closes from the client side; the server sees kClose on its next poll.
  void client_close(ConnId conn);

  // Messages the server sent to client `conn` since the last take
  // (decoded from frames, in order).
  [[nodiscard]] std::vector<util::Json> take_client_inbox(ConnId conn);

  // True while `conn` is open from the client's perspective (the server
  // has not close_conn()'d it).
  [[nodiscard]] bool client_open(ConnId conn) const;

  // Advances the manual clock.
  void advance_ms(std::uint64_t delta) { now_ms_ += delta; }

  // True while the server->client byte stream of `conn` is still decodable
  // (a truncated frame poisons it permanently, exactly like the TCP
  // decoder). Chaos-transport tests assert on this.
  [[nodiscard]] bool client_stream_corrupt(ConnId conn) const;

  // --- Transport (the server's view) -----------------------------------
  bool send(ConnId conn, const util::Json& message) override;
  bool send_frame(ConnId conn, const std::string& bytes) override;
  void close_conn(ConnId conn) override;
  bool poll(std::uint64_t timeout_ms, std::vector<TransportEvent>& out,
            std::string* error) override;
  std::uint64_t now_ms() override { return now_ms_; }

 private:
  struct FakeConn {
    bool open_client = true;  // client end still up
    bool open_server = true;  // server end still up (i.e. not close_conn'd)
    bool announced = false;   // kOpen already delivered to the server
    bool close_pending = false;  // client closed; kClose not yet delivered
    FrameDecoder to_server;      // bytes client -> server
    FrameDecoder to_client;      // bytes server -> client
    std::deque<util::Json> server_events;  // decoded, awaiting server poll
    std::deque<util::Json> client_inbox;   // decoded, awaiting the test
  };

  std::map<ConnId, FakeConn> conns_;
  ConnId next_id_ = 1;
  std::uint64_t now_ms_ = 0;
};

}  // namespace secbus::net
