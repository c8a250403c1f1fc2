// Crash-safe JSON-Lines append and replay.
//
// Campaign shard workers checkpoint every completed job as one compact JSON
// record per line. Appends go straight to disk (fflush per record), so a
// killed worker loses at most the record it was writing; the reader treats
// a torn trailing line as "the crash point" and replays everything before
// it. That pair of properties is what makes 10k-job campaigns interruptible
// without a database.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace secbus::util {

// Append-mode writer: one compact JSON document per line, flushed per
// append. Thread-compatible, not thread-safe — callers that append from a
// worker pool serialize externally (see campaign::CheckpointWriter).
class JsonlWriter {
 public:
  JsonlWriter() = default;
  ~JsonlWriter() { close(); }

  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  // Opens `path` for appending (creating it if missing). If the file ends
  // in a torn record from a crashed writer (no trailing newline), a
  // newline is welded on first so new records never fuse with the
  // fragment. Returns false and leaves the writer closed on failure.
  bool open(const std::string& path);

  // Writes `value` as a single compact line and flushes. False once any
  // write has failed (the writer stays failed until reopened). The first
  // failure — a short fwrite or a failed fflush, i.e. the kernel refusing
  // bytes (ENOSPC, EDQUOT, a yanked mount) — is reported loudly on stderr
  // with the path and errno; silently shrugging it off would let a
  // "crash-safe" log lose records with no trace.
  bool append(const Json& value) { return append_line(value.dump(0)); }
  // The same for a record serialized by the caller (one compact JSON
  // document, no newline), e.g. streamed through a JsonWriter.
  bool append_line(std::string line);

  [[nodiscard]] bool is_open() const noexcept { return file_ != nullptr; }
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  void close();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  bool ok_ = true;
};

// Replays a JSONL file into `out`. Malformed lines are *skipped*, not
// fatal: records are independent, and a crash/resume/crash sequence leaves
// torn fragments in the middle of the file — every complete record around
// them must still replay (a skipped checkpoint record merely re-runs that
// job). Returns false only when the file cannot be opened or read at all;
// a missing file is reported through `error` too (callers treat it as "no
// checkpoint yet").
bool read_jsonl(const std::string& path, std::vector<Json>& out,
                std::string* error = nullptr);
// The same file walk handing each non-empty line's text to `visit`, for
// readers that decode records without building a tree; a line that does
// not decode is theirs to skip.
bool for_each_jsonl_line(const std::string& path,
                         const std::function<void(std::string_view)>& visit,
                         std::string* error = nullptr);

}  // namespace secbus::util
