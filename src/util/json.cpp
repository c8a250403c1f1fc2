#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace secbus::util {

Json Json::boolean(bool v) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.dbl_ = v;
  return j;
}

Json Json::number(std::uint64_t v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.int_exact_ = true;
  j.mag_ = v;
  return j;
}

Json Json::number(std::int64_t v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.int_exact_ = true;
  j.neg_ = v < 0;
  j.mag_ = j.neg_ ? ~static_cast<std::uint64_t>(v) + 1
                  : static_cast<std::uint64_t>(v);
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.kind_ = Kind::kString;
  j.str_ = std::move(v);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

double Json::as_double() const noexcept {
  if (!int_exact_) return dbl_;
  const double mag = static_cast<double>(mag_);
  return neg_ ? -mag : mag;
}

bool Json::to_u64(std::uint64_t& out) const noexcept {
  if (kind_ != Kind::kNumber || !int_exact_ || neg_) return false;
  out = mag_;
  return true;
}

bool Json::to_i64(std::int64_t& out) const noexcept {
  if (kind_ != Kind::kNumber || !int_exact_) return false;
  if (neg_) {
    if (mag_ > 0x8000'0000'0000'0000ULL) return false;
    out = static_cast<std::int64_t>(~mag_ + 1);
  } else {
    if (mag_ > 0x7FFF'FFFF'FFFF'FFFFULL) return false;
    out = static_cast<std::int64_t>(mag_);
  }
  return true;
}

Json& Json::set(std::string key, Json value) {
  kind_ = Kind::kObject;
  for (Member& m : object_) {
    if (m.first == key) {
      m.second = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  kind_ = Kind::kArray;
  array_.push_back(std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const Member& m : object_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

namespace {

// Bytes a JSON string cannot hold as is: the quote, the backslash and the
// control characters. Both the writer and the reader scan for them.
bool special(char c) noexcept {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

// The one escaping routine: RFC-8259 with the short escapes where JSON has
// them and \u00XX for the remaining control characters.
void append_quoted(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  std::size_t run = 0;  // start of the pending unescaped stretch
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (!special(s[i])) continue;
    const auto c = static_cast<unsigned char>(s[i]);
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  JsonWriter(out, indent).value(*this);
  if (indent > 0) out += '\n';
  return out;
}

// --- writer -----------------------------------------------------------------

void JsonWriter::newline(std::size_t depth) {
  if (indent_ <= 0) return;
  out_ += '\n';
  out_.append(static_cast<std::size_t>(indent_) * depth, ' ');
}

JsonWriter& JsonWriter::open(char c) {
  prefix();
  out_ += c;
  ++depth_;
  first_ = true;
  return *this;
}

JsonWriter& JsonWriter::close(char c) {
  --depth_;
  if (!first_) newline(depth_);  // empty containers stay "{}" / "[]"
  out_ += c;
  first_ = false;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  prefix();
  append_quoted(out_, k);
  out_ += indent_ > 0 ? ": " : ":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  prefix();
  append_quoted(out_, s);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return null();  // JSON has no Inf/NaN
  // Integral values below 1e15 print under %.15g as their plain digits,
  // which round-trip.
  if (std::fabs(v) < 1e15 && v == std::trunc(v)) {
    return std::signbit(v) && v == 0.0
               ? raw("-0")
               : integer(static_cast<std::int64_t>(v));
  }
  // %.15g when it parses back to the same bits, else %.17g (which always
  // does). A %.15g lexeme that overflows (DBL_MAX) does not round-trip.
  char buf[32];
  auto end = std::to_chars(buf, buf + sizeof buf, v,
                           std::chars_format::general, 15).ptr;
  double back = 0.0;
  if (std::from_chars(buf, end, back).ec != std::errc() || back != v) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        17).ptr;
  }
  return raw(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

JsonWriter& JsonWriter::value(const Json& j) {
  switch (j.kind_) {
    case Json::Kind::kNull:
      return null();
    case Json::Kind::kBool:
      return value(j.bool_);
    case Json::Kind::kNumber:
      if (!j.int_exact_) return value(j.dbl_);
      // Negative exact integers fit int64 (the parser and number(int64)
      // guarantee it).
      return j.neg_ ? integer(static_cast<std::int64_t>(~j.mag_ + 1))
                    : integer(j.mag_);
    case Json::Kind::kString:
      return value(j.str_);
    case Json::Kind::kArray:
      begin_array();
      for (const Json& item : j.array_) value(item);
      return end_array();
    case Json::Kind::kObject:
      begin_object();
      for (const Json::Member& m : j.object_) key(m.first).value(m.second);
      return end_object();
  }
  return *this;
}

// --- reader -----------------------------------------------------------------

namespace {

constexpr int kMaxDepth = 128;

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

void append_utf8(std::string& s, std::uint32_t cp) {
  if (cp < 0x80) {
    s += static_cast<char>(cp);
  } else if (cp < 0x800) {
    s += static_cast<char>(0xC0 | (cp >> 6));
    s += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    s += static_cast<char>(0xE0 | (cp >> 12));
    s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    s += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    s += static_cast<char>(0xF0 | (cp >> 18));
    s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    s += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

}  // namespace

bool JsonReader::fail(std::string_view message) {
  if (!ok()) return false;
  // Line and column are derived from the byte offset only on failure, so
  // the happy path carries no per-character bookkeeping.
  const std::string_view before = text_.substr(0, pos_);
  const auto line = std::count(before.begin(), before.end(), '\n') + 1;
  const std::size_t line_start = before.rfind('\n') + 1;  // npos + 1 == 0
  error_ = "line " + std::to_string(line) + ", column " +
           std::to_string(pos_ - line_start + 1) + ": ";
  error_ += message;
  return false;
}

bool JsonReader::context(std::string_view where) {
  if (ok()) error_ = "invalid value";
  error_.insert(0, std::string(where) + ": ");
  return false;
}

void JsonReader::skip_ws() noexcept {
  while (!at_end()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

bool JsonReader::open(char c, const char* what) {
  if (!ok()) return false;
  skip_ws();
  if (at_end() || text_[pos_] != c) return fail(what);
  ++pos_;
  first_ = true;
  return true;
}

// Consumes the separator before the open container's next element; false
// at its closing bracket (consumed) or on an error.
bool JsonReader::next(char close, const char* kind) {
  if (!ok()) return false;
  skip_ws();
  const bool first = std::exchange(first_, false);
  if (!at_end() && text_[pos_] == close) {
    ++pos_;
    return false;
  }
  if (first) return true;
  if (at_end()) return fail(std::string("unterminated ") + kind);
  if (text_[pos_] != ',') {
    return fail(std::string("expected ',' or '") + close + "' in " + kind);
  }
  ++pos_;
  return true;
}

bool JsonReader::next_key(std::string_view& key) {
  if (!next('}', "object")) return false;
  skip_ws();
  if (at_end() || text_[pos_] != '"') return fail("expected object key string");
  if (!lex_string(key_, key)) return false;
  skip_ws();
  if (at_end() || text_[pos_] != ':') return fail("expected ':'");
  ++pos_;
  return true;
}

bool JsonReader::end_object() {
  std::string_view extra;
  if (next_key(extra)) {
    return fail("unexpected member \"" + std::string(extra) + "\"");
  }
  return ok();
}

bool JsonReader::expect_key(std::string_view k) {
  std::string_view got;
  if (next_key(got)) {
    return got == k || fail("expected member \"" + std::string(k) +
                            "\", found \"" + std::string(got) + "\"");
  }
  return ok() && fail("missing member \"" + std::string(k) + "\"");
}

bool JsonReader::finish() {
  if (!ok()) return false;
  skip_ws();
  return at_end() || fail("trailing characters after document");
}

bool JsonReader::literal(std::string_view word) {
  for (const char c : word) {
    if (at_end() || text_[pos_] != c) return fail("invalid literal");
    ++pos_;
  }
  return true;
}

bool JsonReader::read(bool& out) {
  if (!ok()) return false;
  skip_ws();
  if (at_end() || (text_[pos_] != 't' && text_[pos_] != 'f')) {
    return fail("expected a bool");
  }
  out = text_[pos_] == 't';
  return literal(out ? "true" : "false");
}

bool JsonReader::read(std::string& out) {
  if (!ok()) return false;
  skip_ws();
  if (at_end() || text_[pos_] != '"') return fail("expected a string");
  std::string_view view;
  if (!lex_string(out, view)) return false;
  if (view.data() != out.data()) out.assign(view);
  return true;
}

bool JsonReader::read(std::uint64_t& out) {
  if (!ok()) return false;
  skip_ws();
  Number n;
  if (!lex_number(n)) return false;
  if (!n.is_int || n.neg) return fail("expected a u64");
  out = n.mag;
  return true;
}

bool JsonReader::read(double& out) {
  if (!ok()) return false;
  skip_ws();
  Number n;
  if (!lex_number(n)) return false;
  if (!n.is_int) {
    // An out-of-range lexeme (1e400) parses to inf, which would
    // re-serialize as null.
    out = n.value;
    return std::isfinite(out) || fail("number out of double range");
  }
  const auto mag = static_cast<double>(n.mag);
  out = n.neg ? -mag : mag;
  return true;
}

// Leaves `out` viewing the decoded string: the text itself when it holds
// no escapes, else `scratch`.
bool JsonReader::lex_string(std::string& scratch, std::string_view& out) {
  ++pos_;  // '"'
  std::size_t run = pos_;
  const auto plain = [&] {
    while (!at_end() && !special(text_[pos_])) ++pos_;
  };
  plain();
  if (!at_end() && text_[pos_] == '"') {
    out = text_.substr(run, pos_ - run);
    ++pos_;
    return true;
  }
  scratch.clear();
  const auto hex4 = [&](std::uint32_t& v) {
    v = 0;
    for (int i = 0; i < 4; ++i) {
      if (at_end()) return fail("truncated \\u escape");
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else return fail("invalid \\u escape digit");
    }
    return true;
  };
  while (true) {
    scratch.append(text_.data() + run, pos_ - run);
    if (at_end()) return fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') break;
    if (c != '\\') return fail("raw control character in string");
    if (at_end()) return fail("truncated escape");
    switch (text_[pos_++]) {
      case '"': scratch += '"'; break;
      case '\\': scratch += '\\'; break;
      case '/': scratch += '/'; break;
      case 'b': scratch += '\b'; break;
      case 'f': scratch += '\f'; break;
      case 'n': scratch += '\n'; break;
      case 'r': scratch += '\r'; break;
      case 't': scratch += '\t'; break;
      case 'u': {
        std::uint32_t cp = 0;
        if (!hex4(cp)) return false;
        if (cp >= 0xD800 && cp <= 0xDBFF) {  // surrogate pair
          if (at_end() || text_[pos_] != '\\') return fail("unpaired surrogate");
          ++pos_;
          if (at_end() || text_[pos_] != 'u') return fail("unpaired surrogate");
          ++pos_;
          std::uint32_t low = 0;
          if (!hex4(low)) return false;
          if (low < 0xDC00 || low > 0xDFFF) return fail("invalid low surrogate");
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          return fail("unpaired surrogate");
        }
        append_utf8(scratch, cp);
        break;
      }
      default: return fail("invalid escape character");
    }
    run = pos_;
    plain();
  }
  out = scratch;
  return true;
}

bool JsonReader::lex_number(Number& out) {
  const std::size_t start = pos_;
  const auto digits = [&] {
    while (!at_end() && is_digit(text_[pos_])) ++pos_;
  };
  if (!at_end() && text_[pos_] == '-') {
    out.neg = true;
    ++pos_;
  }
  if (at_end() || !is_digit(text_[pos_])) return fail("invalid number");
  bool overflow = false;
  if (text_[pos_] == '0') {
    ++pos_;
    if (!at_end() && is_digit(text_[pos_])) {
      return fail("leading zero in number");
    }
  } else {
    while (!at_end() && is_digit(text_[pos_])) {
      const auto digit = static_cast<std::uint64_t>(text_[pos_++] - '0');
      if (out.mag > (0xFFFF'FFFF'FFFF'FFFFULL - digit) / 10) {
        overflow = true;
      } else {
        out.mag = out.mag * 10 + digit;
      }
    }
  }
  out.is_int = !overflow;
  if (!at_end() && text_[pos_] == '.') {
    out.is_int = false;
    ++pos_;
    if (at_end() || !is_digit(text_[pos_])) {
      return fail("digit required after decimal point");
    }
    digits();
  }
  if (!at_end() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    out.is_int = false;
    ++pos_;
    if (!at_end() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
    if (at_end() || !is_digit(text_[pos_])) {
      return fail("digit required in exponent");
    }
    digits();
  }
  // int64 bounds the negative integers; "-0" is the double -0.0, since an
  // integer zero would lose the sign.
  if (out.neg && (out.mag > 0x8000'0000'0000'0000ULL || out.mag == 0)) {
    out.is_int = false;
  }
  if (out.is_int) return true;
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  const auto parsed = std::from_chars(first, last, out.value);
  if (parsed.ec != std::errc() || parsed.ptr != last) {
    // Outside double range: keep strtod's overflow (inf) and underflow
    // results.
    out.value = std::strtod(std::string(first, last).c_str(), nullptr);
  }
  return true;
}

bool JsonReader::read(Json& out, int depth) {
  if (!ok()) return false;
  if (depth > kMaxDepth) return fail("nesting too deep");
  skip_ws();
  if (at_end()) return fail("unexpected end of input");
  switch (text_[pos_]) {
    case 'n':
      out = Json::null();
      return literal("null");
    case 't':
    case 'f': {
      bool b = false;
      if (!read(b)) return false;
      out = Json::boolean(b);
      return true;
    }
    case '"': {
      std::string s;
      if (!read(s)) return false;
      out = Json::string(std::move(s));
      return true;
    }
    case '[':
      out = Json::array();
      begin_array();
      while (next_item()) {
        Json item;
        if (!read(item, depth + 1)) return false;
        out.push(std::move(item));
      }
      return ok();
    case '{': {
      out = Json::object();
      begin_object();
      std::string_view view;
      while (next_key(view)) {
        std::string key(view);
        Json value;
        if (!read(value, depth + 1)) return false;
        // Duplicate keys are a spec error in campaign files; reject so a
        // typo'd second value can't silently win.
        if (out.find(key) != nullptr) {
          return fail("duplicate object key \"" + key + "\"");
        }
        out.members().emplace_back(std::move(key), std::move(value));
      }
      return ok();
    }
    default: {
      Number n;
      if (!lex_number(n)) return false;
      if (!n.is_int) {
        out = Json::number(n.value);
      } else if (n.neg) {
        out = Json::number(static_cast<std::int64_t>(~n.mag + 1));
      } else {
        out = Json::number(n.mag);
      }
      return true;
    }
  }
}

bool Json::parse(std::string_view text, Json& out, std::string* error) {
  if (error != nullptr) error->clear();
  JsonReader reader(text);
  Json value;
  if (!reader.read(value) || !reader.finish()) {
    if (error != nullptr) *error = reader.error();
    return false;
  }
  out = std::move(value);
  return true;
}

}  // namespace secbus::util
