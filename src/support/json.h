// JSON for the pipeline's machine-readable artifacts: a small value model
// with a recursive-descent parser, and the one writer every emitter uses.
//
// The parser covers the full grammar the emitters produce: objects, arrays,
// strings with the common escapes, integer/double numbers, booleans and
// null. Numbers are kept in three views (int64/uint64/double) because the
// crash reporter writes full 64-bit addresses and counters that do not
// round-trip through double.
//
// Writer appends compact JSON to a caller-owned std::string and places the
// commas itself, so emitters (findings and SARIF, stats and traces, sampler
// rows, server responses, stream hellos, bench results) say only what they
// write. Its string escaper is the only one in the tree; the flight recorder
// keeps its own allocation-free arena writer because it runs in a signal
// handler.
#ifndef SRC_SUPPORT_JSON_H_
#define SRC_SUPPORT_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/status.h"

namespace pkrusafe {
namespace json {

enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
 public:
  Value() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  double AsDouble() const { return double_; }
  int64_t AsInt() const { return int_; }
  uint64_t AsUint() const { return uint_; }
  const std::string& AsString() const { return string_; }
  const std::vector<Value>& AsArray() const { return array_; }
  const std::map<std::string, Value>& AsObject() const { return object_; }

  // Object member access; nullptr when absent or not an object.
  const Value* Find(std::string_view key) const;

  // Convenience typed getters with defaults (missing/mistyped → fallback).
  uint64_t GetUint(std::string_view key, uint64_t fallback = 0) const;
  int64_t GetInt(std::string_view key, int64_t fallback = 0) const;
  double GetDouble(std::string_view key, double fallback = 0.0) const;
  std::string GetString(std::string_view key, std::string fallback = "") const;

 private:
  friend class Parser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

// Parses exactly one JSON value (leading/trailing whitespace tolerated;
// trailing garbage is an error).
Result<Value> Parse(std::string_view text);

// Parses one JSON value from the front of `text`, returning how many bytes
// were consumed via `consumed` — the JSONL helper ("one object per line").
Result<Value> ParsePrefix(std::string_view text, size_t* consumed);

// Returns `text` escaped for use inside a JSON string literal (quotes not
// included): `"`, `\`, \n, \r and \t get their short escapes, other bytes
// below 0x20 become \u00XX, and everything else (UTF-8 included) passes
// through.
std::string JsonEscape(std::string_view text);

// Streaming writer over a caller-owned string. Calls nest like the JSON they
// produce: inside an object every value follows a Key(). The writer inserts
// the separating commas; it does not check that the calls are well formed.
//
//   std::string out;
//   json::Writer w(&out);
//   w.BeginObject().Key("ok").Bool(true).Key("prints").BeginArray();
//   for (const std::string& p : prints) w.String(p);
//   w.EndArray().EndObject();
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  Writer& BeginObject() { return Open('{'); }
  Writer& EndObject() { return Close('}'); }
  Writer& BeginArray() { return Open('['); }
  Writer& EndArray() { return Close(']'); }
  Writer& Key(std::string_view key);
  Writer& String(std::string_view value);
  Writer& Int(int64_t value) { return Number(std::to_string(value)); }
  Writer& Uint(uint64_t value) { return Number(std::to_string(value)); }
  Writer& Bool(bool value) { return Number(value ? "true" : "false"); }
  Writer& Null() { return Number("null"); }
  // Number text the caller already formatted (e.g. "%.3f"), appended as is.
  Writer& Number(std::string_view text);
  // Starts the next element on a new line, after its comma. A no-op at the
  // start of a container.
  Writer& LineBreak();

 private:
  // Writes the comma owed before a new key or element.
  void Separate();
  Writer& Open(char bracket);
  Writer& Close(char bracket);

  std::string* out_;
  bool need_comma_ = false;
};

}  // namespace json
}  // namespace pkrusafe

#endif  // SRC_SUPPORT_JSON_H_
