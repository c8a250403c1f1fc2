#include "util/jsonl.hpp"

#include <cerrno>
#include <cstring>

#include "util/fileio.hpp"

namespace secbus::util {

namespace {

// One loud line per failure. errno is only trustworthy immediately after
// the failed stdio call, so callers capture it before anything else runs.
void report_write_failure(const std::string& path, const char* what,
                          int err) {
  std::fprintf(stderr, "jsonl: %s failed for %s: %s\n", what, path.c_str(),
               err != 0 ? std::strerror(err) : "short write");
}

}  // namespace

bool JsonlWriter::open(const std::string& path) {
  close();
  path_ = path;
  // A previous writer may have died mid-record, leaving the file without a
  // trailing newline; terminate the fragment so the next append starts on
  // its own line (the replayer skips the now-isolated bad line).
  bool needs_newline = false;
  if (std::FILE* probe = std::fopen(path.c_str(), "rb")) {
    if (std::fseek(probe, -1, SEEK_END) == 0) {
      needs_newline = std::fgetc(probe) != '\n';
    }
    std::fclose(probe);
  }
  errno = 0;
  file_ = std::fopen(path.c_str(), "ab");
  ok_ = file_ != nullptr;
  if (!ok_) {
    report_write_failure(path_, "open", errno);
    return false;
  }
  if (needs_newline) {
    errno = 0;
    ok_ = std::fputc('\n', file_) == '\n' && std::fflush(file_) == 0;
    if (!ok_) report_write_failure(path_, "torn-tail weld", errno);
  }
  return ok_;
}

bool JsonlWriter::append_line(std::string line) {
  if (file_ == nullptr || !ok_) return false;
  line += '\n';
  errno = 0;
  const std::size_t written =
      std::fwrite(line.data(), 1, line.size(), file_);
  ok_ = written == line.size() && std::fflush(file_) == 0;
  if (!ok_) {
    // A short fwrite with errno unset still means the record is torn on
    // disk; the reader will skip the fragment, but the *writer* must not
    // pretend the record landed.
    report_write_failure(path_, written == line.size() ? "flush" : "write",
                         errno);
  }
  return ok_;
}

void JsonlWriter::close() {
  if (file_ != nullptr) {
    if (std::fclose(file_) != 0 && ok_) {
      // fclose can surface the final buffered-write failure (NFS, ENOSPC
      // discovered late); too late to fail the append, not too late to say.
      report_write_failure(path_, "close", errno);
    }
    file_ = nullptr;
  }
}

bool for_each_jsonl_line(const std::string& path,
                         const std::function<void(std::string_view)>& visit,
                         std::string* error) {
  std::string text;
  if (!read_file(path, text, error)) return false;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + start, end - start);
    start = end + 1;
    if (!line.empty()) visit(line);
  }
  return true;
}

bool read_jsonl(const std::string& path, std::vector<Json>& out,
                std::string* error) {
  out.clear();
  // Records are independent: a line that doesn't parse is a crash
  // fragment (torn tail, or a welded-over tear from an earlier resume) —
  // skip it and keep replaying. A complete record whose newline never
  // made it out parses fine and is kept.
  return for_each_jsonl_line(
      path,
      [&out](std::string_view line) {
        Json value;
        if (Json::parse(line, value)) out.push_back(std::move(value));
      },
      error);
}

}  // namespace secbus::util
