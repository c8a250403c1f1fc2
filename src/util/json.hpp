// Dependency-free JSON value, streaming writer and pull parser.
//
// The campaign subsystem declares whole experiment grids in JSON files, so
// the simulator needs to read and emit JSON without dragging in an external
// library. This is a small, strict RFC-8259 implementation with two
// properties the campaign files rely on:
//   * object members keep insertion order (stable, diffable emission), and
//   * integers up to the full uint64 range round-trip exactly (workload
//     seeds are SplitMix64 outputs, which double would silently mangle).
// Parse errors carry line:column positions; path-aware error messages are
// layered on top by campaign/spec_io.
//
// JsonWriter is the one place numbers and strings are formatted: Json::dump
// walks the tree through it, and the result path (job results, shard files,
// reports, spec fingerprints) streams through it without building a tree.
// Doubles print as %.15g when that parses back to the same bits, else as
// %.17g; non-finite doubles print as null. JsonReader is the one parser:
// Json::parse builds its tree through it, and the result path decodes
// straight into typed fields.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace secbus::util {

class Json {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;  // insertion-ordered

  Json() = default;  // null

  // --- constructors ------------------------------------------------------
  [[nodiscard]] static Json null() { return Json(); }
  [[nodiscard]] static Json boolean(bool v);
  [[nodiscard]] static Json number(double v);
  [[nodiscard]] static Json number(std::uint64_t v);
  [[nodiscard]] static Json number(std::int64_t v);
  [[nodiscard]] static Json string(std::string v);
  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();

  // --- inspection ---------------------------------------------------------
  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }
  // Number parsed from an integer lexeme (no fraction/exponent) that fits
  // the int64/uint64 range; such numbers round-trip bit-exactly.
  [[nodiscard]] bool is_integer() const noexcept {
    return kind_ == Kind::kNumber && int_exact_;
  }

  // --- value access (callers check the kind first) ------------------------
  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_double() const noexcept;
  // False when not an integer-exact number in the target range.
  [[nodiscard]] bool to_u64(std::uint64_t& out) const noexcept;
  [[nodiscard]] bool to_i64(std::int64_t& out) const noexcept;
  [[nodiscard]] const std::string& as_string() const noexcept { return str_; }
  [[nodiscard]] const Array& items() const noexcept { return array_; }
  [[nodiscard]] Array& items() noexcept { return array_; }
  [[nodiscard]] const Object& members() const noexcept { return object_; }
  [[nodiscard]] Object& members() noexcept { return object_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return kind_ == Kind::kArray ? array_.size() : object_.size();
  }

  // --- building -----------------------------------------------------------
  // Appends (or replaces) a member; keeps this value an object.
  Json& set(std::string key, Json value);
  // Appends to an array; keeps this value an array.
  Json& push(Json value);
  // First member with `key`; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;

  // --- text ---------------------------------------------------------------
  // Strict parse of a complete JSON document (trailing whitespace allowed).
  // On failure returns false and, when `error` is non-null, stores a
  // "line L, column C: message" description.
  [[nodiscard]] static bool parse(std::string_view text, Json& out,
                                  std::string* error = nullptr);

  // Serializes; `indent` > 0 pretty-prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 2) const;

 private:
  friend class JsonWriter;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  // Numbers: `int_exact_` numbers live in (neg_, mag_); others in dbl_.
  bool int_exact_ = false;
  bool neg_ = false;
  std::uint64_t mag_ = 0;
  double dbl_ = 0.0;
  std::string str_;
  Array array_;
  Object object_;
};

// Streaming JSON emitter appending to a caller-owned string. Commas, and
// with `indent` > 0 the newlines and indentation of Json::dump(indent), are
// placed automatically; the caller supplies a well-formed sequence of
// begin/key/value/end calls. Reusing the target string across documents
// reuses its capacity.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out, int indent = 0)
      : out_(out), indent_(indent) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  // Member key; the next call writes its value. A string literal is
  // copied as is (literal keys need no escaping); other keys are escaped.
  JsonWriter& key(std::string_view k);
  template <std::size_t N>
  JsonWriter& key(const char (&literal)[N]) {
    return literal_key(std::string_view(literal, N - 1));
  }

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  JsonWriter& value(double v);
  template <std::integral T>
  JsonWriter& value(T v) {
    if constexpr (std::signed_integral<T>) {
      return integer(static_cast<std::int64_t>(v));
    } else {
      return integer(static_cast<std::uint64_t>(v));
    }
  }
  JsonWriter& value(const Json& j);
  JsonWriter& null() { return raw("null"); }
  // Splices pre-serialized JSON verbatim in value position: a number in a
  // caller-chosen format, or a whole document serialized earlier.
  JsonWriter& raw(std::string_view json) {
    prefix();
    out_ += json;
    return *this;
  }

  // One member: key and value, or key and a callable that writes the
  // value. With optional() and object(), this is also the schema interface
  // JsonReader shares: a document type described once as a chain of
  // member() calls (joined by &&; a writer is always true) writes here and
  // reads there.
  template <std::size_t N, typename T>
  JsonWriter& member(const char (&k)[N], const T& v) {
    key(k);
    if constexpr (std::invocable<const T&>) {
      v();
    } else {
      value(v);
    }
    return *this;
  }
  template <std::size_t N, typename F>
  bool optional(const char (&k)[N], bool present, const F& write) {
    if (present) member(k, write);
    return true;
  }
  explicit operator bool() const noexcept { return true; }
  template <typename F>
  bool object(const F& members) {
    begin_object();
    members();
    end_object();
    return true;
  }

 private:
  JsonWriter& open(char c);
  JsonWriter& close(char c);
  JsonWriter& literal_key(std::string_view k) {
    prefix();
    out_ += '"';
    out_ += k;
    out_ += indent_ > 0 ? "\": " : "\":";
    after_key_ = true;
    return *this;
  }
  template <typename Int>
  JsonWriter& integer(Int v) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    return raw(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }
  // Separator and indentation before a value or key.
  void prefix() {
    if (after_key_) {
      after_key_ = false;
    } else if (depth_ > 0) {  // not the document's top-level value
      if (!first_) out_ += ',';
      first_ = false;
      if (indent_ > 0) newline(depth_);
    }
  }
  void newline(std::size_t depth);

  std::string& out_;
  int indent_;
  std::size_t depth_ = 0;
  bool first_ = true;       // nothing written yet in the open container
  bool after_key_ = false;  // a key was written; its value comes next
};

// Pull parser over one JSON document. The caller walks the structure it
// expects and the reader tokenizes on demand, so a document decodes
// straight into typed fields with no tree in between (Json::parse builds
// its tree through it). The first failure sticks: every later call returns
// false and error() keeps the first "line L, column C: message".
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  // Containers: begin_*, then next_key()/next_item() until they return
  // false at the closing bracket (or on an error; check ok()).
  bool begin_object() { return open('{', "expected an object"); }
  bool begin_array() { return open('[', "expected an array"); }
  // `key` stays valid until the next call.
  bool next_key(std::string_view& key);
  bool next_item() { return next(']', "array"); }
  // The open object has no further member.
  bool end_object();

  bool read(bool& out);
  bool read(std::string& out);
  bool read(std::uint64_t& out);  // an integer lexeme in u64 range
  bool read(double& out);         // a number within double range
  bool read(Json& out) { return read(out, 0); }
  // Only whitespace remains.
  bool finish();

  // Schema interface (see JsonWriter::member). Members are expected in
  // schema order, the order the writer emits them, so a missing, repeated
  // or unknown member is an error. `v` is a value to read, or a callable
  // that reads the member's value and returns whether it could.
  template <typename T>
  bool member(std::string_view k, T&& v) {
    if (!expect_key(k)) return false;
    bool read_ok = false;
    if constexpr (std::invocable<T&>) {
      read_ok = v();
    } else {
      read_ok = read(v);
    }
    return read_ok || context(k);
  }
  // A trailing member that may be absent: the object closes first.
  template <typename F>
  bool optional(std::string_view k, bool /*present*/, F&& read_value) {
    skip_ws();
    return (!at_end() && text_[pos_] == '}') || member(k, read_value);
  }
  template <typename F>
  bool object(F&& members) {
    return begin_object() && members() && end_object();
  }

  bool fail(std::string_view message);
  // Prefixes the recorded error with "`where`: "; returns false.
  bool context(std::string_view where);
  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  struct Number {
    bool is_int = false;  // integer lexeme that fits (neg, mag)
    bool neg = false;
    std::uint64_t mag = 0;
    double value = 0.0;   // set when !is_int
  };

  bool read(Json& out, int depth);
  bool open(char c, const char* what);
  bool next(char close, const char* kind);
  bool expect_key(std::string_view k);
  bool lex_string(std::string& scratch, std::string_view& out);
  bool lex_number(Number& out);
  bool literal(std::string_view word);
  bool at_end() const noexcept { return pos_ >= text_.size(); }
  void skip_ws() noexcept;

  std::string_view text_;
  std::size_t pos_ = 0;
  bool first_ = false;  // just inside a container: no separator due
  std::string key_;     // decoded keys that carried escapes
  std::string error_;
};

// The tree of the document `write(JsonWriter&)` streams, for the X_to_json
// helpers that keep a tree API over a streaming serializer: one formatter,
// and the tree's dump(0) is the streamed bytes.
template <typename Write>
[[nodiscard]] Json written_tree(Write&& write) {
  std::string text;
  JsonWriter w(text);
  write(w);
  Json tree;
  SECBUS_ASSERT(Json::parse(text, tree), "written JSON re-parses");
  return tree;
}

}  // namespace secbus::util
