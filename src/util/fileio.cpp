#include "util/fileio.hpp"

#include <cstdio>

#include <sys/stat.h>

namespace secbus::util {

namespace {

bool fail(std::string* error, const std::string& path, const char* message) {
  if (error != nullptr && error->empty()) {
    *error = path + ": " + message;
  }
  return false;
}

}  // namespace

bool read_file(const std::string& path, std::string& out,
               std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail(error, path, "cannot open file");
  out.clear();
  // One allocation for a regular file; the loop still reads to EOF.
  struct stat st {};
  if (::fstat(::fileno(f), &st) == 0 && S_ISREG(st.st_mode)) {
    out.reserve(static_cast<std::size_t>(st.st_size));
  }
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return fail(error, path, "read error");
  return true;
}

bool write_file(const std::string& path, std::string_view text,
                std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return fail(error, path, "cannot open file for writing");
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) return fail(error, path, "write error");
  return true;
}

}  // namespace secbus::util
