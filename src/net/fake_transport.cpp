#include "net/fake_transport.hpp"

#include <utility>

#include "net/frame.hpp"

namespace secbus::net {

namespace {

// Round-trips one message through the real wire format. Returns decoded
// messages (normally exactly one).
void push_through(FrameDecoder& decoder, const std::string& frame,
                  std::deque<util::Json>& out) {
  decoder.feed(frame.data(), frame.size());
  util::Json decoded;
  while (decoder.next(decoded)) {
    out.push_back(std::move(decoded));
    decoded = util::Json();
  }
}

}  // namespace

ConnId FakeTransport::connect_client() {
  const ConnId id = next_id_++;
  conns_.emplace(id, FakeConn{});
  return id;
}

void FakeTransport::client_send(ConnId conn, const util::Json& message) {
  client_send(conn, message.dump(0));
}

void FakeTransport::client_send(ConnId conn, std::string_view payload) {
  const auto it = conns_.find(conn);
  if (it == conns_.end() || !it->second.open_client || !it->second.open_server) {
    return;
  }
  push_through(it->second.to_server, encode_frame(payload),
               it->second.server_events);
}

void FakeTransport::client_close(ConnId conn) {
  const auto it = conns_.find(conn);
  if (it == conns_.end() || !it->second.open_client) return;
  it->second.open_client = false;
  if (it->second.open_server) it->second.close_pending = true;
}

std::vector<util::Json> FakeTransport::take_client_inbox(ConnId conn) {
  std::vector<util::Json> out;
  const auto it = conns_.find(conn);
  if (it == conns_.end()) return out;
  for (util::Json& j : it->second.client_inbox) out.push_back(std::move(j));
  it->second.client_inbox.clear();
  return out;
}

bool FakeTransport::client_open(ConnId conn) const {
  const auto it = conns_.find(conn);
  return it != conns_.end() && it->second.open_server &&
         it->second.open_client;
}

bool FakeTransport::send(ConnId conn, const util::Json& message) {
  const auto it = conns_.find(conn);
  if (it == conns_.end() || !it->second.open_server || !it->second.open_client) {
    return false;
  }
  push_through(it->second.to_client, encode_frame(message),
               it->second.client_inbox);
  return true;
}

bool FakeTransport::send_frame(ConnId conn, const std::string& bytes) {
  const auto it = conns_.find(conn);
  if (it == conns_.end() || !it->second.open_server || !it->second.open_client) {
    return false;
  }
  // Raw bytes, exactly as a TCP socket would carry them: a partial frame
  // fuses with whatever follows and poisons the decoder, which is the
  // point of the truncation fault.
  FakeConn& fake = it->second;
  fake.to_client.feed(bytes.data(), bytes.size());
  util::Json decoded;
  while (fake.to_client.next(decoded)) {
    fake.client_inbox.push_back(std::move(decoded));
    decoded = util::Json();
  }
  return true;
}

bool FakeTransport::client_stream_corrupt(ConnId conn) const {
  const auto it = conns_.find(conn);
  return it != conns_.end() && it->second.to_client.corrupt();
}

void FakeTransport::close_conn(ConnId conn) {
  const auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  it->second.open_server = false;
}

bool FakeTransport::poll(std::uint64_t /*timeout_ms*/,
                         std::vector<TransportEvent>& out,
                         std::string* /*error*/) {
  // The fake never blocks: time moves only via advance_ms(). Delivery
  // order matches the TCP transport — kOpen before the connection's
  // messages, kClose after them.
  for (auto& [id, conn] : conns_) {
    if (!conn.open_server) continue;
    if (!conn.announced) {
      conn.announced = true;
      TransportEvent ev;
      ev.kind = TransportEvent::Kind::kOpen;
      ev.conn = id;
      out.push_back(std::move(ev));
    }
    while (!conn.server_events.empty()) {
      TransportEvent ev;
      ev.kind = TransportEvent::Kind::kMessage;
      ev.conn = id;
      ev.message = std::move(conn.server_events.front());
      conn.server_events.pop_front();
      out.push_back(std::move(ev));
    }
    if (conn.close_pending) {
      conn.close_pending = false;
      conn.open_server = false;
      TransportEvent ev;
      ev.kind = TransportEvent::Kind::kClose;
      ev.conn = id;
      ev.detail = "peer closed";
      out.push_back(std::move(ev));
    }
  }
  return true;
}

}  // namespace secbus::net
