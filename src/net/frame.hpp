// Length-prefixed JSON message framing for the fleet protocol.
//
// TCP delivers a byte stream; the fleet protocol speaks discrete JSON
// messages. Each frame is a 4-byte big-endian payload length followed by
// exactly that many bytes of compact JSON. The decoder is incremental
// (feed whatever recv() produced, pop complete messages) and transport
// agnostic — net::FakeTransport routes test traffic through the same
// encoder/decoder pair, so framing is exercised by every unit test, not
// just the socket path.
//
// A frame that exceeds kMaxFrameBytes or whose payload is not valid JSON
// poisons the decoder (corrupt() stays true); the connection owner drops
// the peer. There is no resynchronization inside a stream — after a bad
// length prefix nothing downstream can be trusted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace secbus::net {

// Largest admissible payload. Shard result files for 10k-job slices are a
// few MB of JSON; 64 MB leaves an order of magnitude of headroom while a
// garbage length prefix ("HTTP"...) still dies immediately.
inline constexpr std::uint32_t kMaxFrameBytes = 64u * 1024u * 1024u;

// Compact-serializes `message` and prepends the length prefix.
[[nodiscard]] std::string encode_frame(const util::Json& message);
// The same for a message already serialized as compact JSON.
[[nodiscard]] std::string encode_frame(std::string_view payload);

// Incremental frame decoder over an arbitrary chunking of the stream.
class FrameDecoder {
 public:
  // Appends raw bytes from the stream. No-op once corrupt.
  void feed(const char* data, std::size_t size);

  // Pops the next complete message. False when no complete frame is
  // buffered (or the decoder is corrupt; check corrupt() to distinguish).
  [[nodiscard]] bool next(util::Json& out);

  // True once an oversized length prefix or undecodable payload was seen.
  // The stream is unrecoverable; close the connection.
  [[nodiscard]] bool corrupt() const noexcept { return corrupt_; }
  // Human-readable reason for corrupt().
  [[nodiscard]] const std::string& corrupt_reason() const noexcept {
    return reason_;
  }

  // Bytes buffered but not yet consumed (tests / backpressure accounting).
  [[nodiscard]] std::size_t buffered() const noexcept { return buffer_.size(); }

 private:
  std::string buffer_;
  bool corrupt_ = false;
  std::string reason_;
};

}  // namespace secbus::net
