#include "util/csv.hpp"

#include <algorithm>
#include <cstdio>

namespace secbus::util {

namespace {

// RFC-4180: a cell holding a separator, quote or line break is quoted, with
// its quotes doubled.
void append_escaped(std::string& out, const std::string& cell) {
  const auto needs_quotes = [](char c) {
    return c == ',' || c == '"' || c == '\n' || c == '\r';
  };
  if (std::none_of(cell.begin(), cell.end(), needs_quotes)) {
    out += cell;
    return;
  }
  out.push_back('"');
  for (char c : cell) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

}  // namespace

CsvWriter::CsvWriter(std::string path) : path_(std::move(path)) {}

CsvWriter::~CsvWriter() { flush(); }

void CsvWriter::header(const std::vector<std::string>& cols) { emit_line(cols); }

void CsvWriter::row(const std::vector<std::string>& cells) { emit_line(cells); }

void CsvWriter::emit_line(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) buffer_.push_back(',');
    append_escaped(buffer_, cells[i]);
  }
  buffer_.push_back('\n');
}

void CsvWriter::flush() {
  if (path_.empty() || buffer_.empty()) return;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    ok_ = false;
    return;
  }
  std::fwrite(buffer_.data(), 1, buffer_.size(), f);
  std::fclose(f);
}

std::string CsvWriter::escape(const std::string& cell) {
  std::string out;
  append_escaped(out, cell);
  return out;
}

}  // namespace secbus::util
