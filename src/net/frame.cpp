#include "net/frame.hpp"

#include <cstring>

#include "net/netstats.hpp"

namespace secbus::net {

std::string encode_frame(const util::Json& message) {
  return encode_frame(message.dump(0));
}

std::string encode_frame(std::string_view payload) {
  const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
  std::string frame;
  frame.reserve(4 + payload.size());
  frame.push_back(static_cast<char>((size >> 24) & 0xff));
  frame.push_back(static_cast<char>((size >> 16) & 0xff));
  frame.push_back(static_cast<char>((size >> 8) & 0xff));
  frame.push_back(static_cast<char>(size & 0xff));
  frame += payload;
  detail::count_frame_out(frame.size());
  return frame;
}

void FrameDecoder::feed(const char* data, std::size_t size) {
  if (corrupt_) return;
  buffer_.append(data, size);
}

bool FrameDecoder::next(util::Json& out) {
  if (corrupt_ || buffer_.size() < 4) return false;
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(
        static_cast<unsigned char>(buffer_[i]));
  };
  const std::uint32_t size = (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
  if (size > kMaxFrameBytes) {
    corrupt_ = true;
    reason_ = "frame length " + std::to_string(size) + " exceeds the " +
              std::to_string(kMaxFrameBytes) + "-byte cap";
    buffer_.clear();
    detail::count_poisoned(/*oversized=*/true);
    return false;
  }
  if (buffer_.size() < 4 + static_cast<std::size_t>(size)) return false;
  const std::string_view payload(buffer_.data() + 4, size);
  std::string parse_error;
  if (!util::Json::parse(payload, out, &parse_error)) {
    corrupt_ = true;
    reason_ = "frame payload is not valid JSON: " + parse_error;
    buffer_.clear();
    detail::count_poisoned(/*oversized=*/false);
    return false;
  }
  buffer_.erase(0, 4 + static_cast<std::size_t>(size));
  detail::count_frame_in(4 + static_cast<std::uint64_t>(size));
  return true;
}

}  // namespace secbus::net
