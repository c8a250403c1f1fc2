#include "obs/chrome_trace.hpp"

#include <charconv>
#include <utility>

#include "util/json.hpp"

namespace secbus::obs {

ChromeTraceWriter::ChromeTraceWriter(std::string_view process_name,
                                     std::size_t reserve) {
  out_.reserve(reserve);
  out_ += "{\"traceEvents\":[";
  std::string& l = line();
  l += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
       "\"args\":{\"name\":";
  util::JsonWriter(l).value(process_name);
  l += "}}";
}

void ChromeTraceWriter::track(std::uint64_t tid, std::string_view name) {
  std::string& l = line();
  l += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
  append_u64(l, tid);
  l += ",\"name\":\"thread_name\",\"args\":{\"name\":";
  util::JsonWriter(l).value(name);
  l += "}}";
}

std::string& ChromeTraceWriter::event(char ph, std::uint64_t tid,
                                      std::uint64_t ts) {
  std::string& l = line();
  l += "{\"ph\":\"";
  l += ph;
  l += ph == 'i' ? "\",\"s\":\"t\"," : "\",";
  l += "\"pid\":1,\"tid\":";
  append_u64(l, tid);
  l += ",\"ts\":";
  append_u64(l, ts);
  return l;
}

std::string ChromeTraceWriter::finish(std::string_view time_unit) {
  out_ += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
          "\"generator\":\"secbus\",\"timeUnit\":\"";
  out_ += time_unit;
  out_ += "\"}}\n";
  return std::move(out_);
}

// One event per line; the first line has no leading comma, so the array
// stays valid without a post-pass.
std::string& ChromeTraceWriter::line() {
  out_ += first_ ? "\n  " : ",\n  ";
  first_ = false;
  return out_;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

}  // namespace secbus::obs
