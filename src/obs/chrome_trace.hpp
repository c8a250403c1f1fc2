// The Chrome trace-event JSON document both exporters emit (trace_export
// for the simulator's event ring, fleet_timeline for the fleet's lease
// log): the JSON Array Format under "traceEvents", one event per line,
// every event in process 1, one metadata-named track per tid.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace secbus::obs {

class ChromeTraceWriter {
 public:
  // Opens the document with the "process_name" metadata event (tid 0).
  ChromeTraceWriter(std::string_view process_name, std::size_t reserve);

  // A "thread_name" metadata event naming track `tid`.
  void track(std::uint64_t tid, std::string_view name);

  // Starts the next event line with its head,
  //   {"ph":"<ph>","pid":1,"tid":<tid>,"ts":<ts>
  // (instants, ph 'i', are thread-scoped: "s":"t" follows ph), and returns
  // the buffer the caller appends the rest of the event to.
  std::string& event(char ph, std::uint64_t tid, std::uint64_t ts);

  // Closes the document; `time_unit` records what a trace microsecond is.
  [[nodiscard]] std::string finish(std::string_view time_unit);

 private:
  std::string& line();

  std::string out_;
  bool first_ = true;
};

void append_u64(std::string& out, std::uint64_t v);

}  // namespace secbus::obs
