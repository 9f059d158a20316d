// Minimal strict JSON for the campaign daemon's request bodies.
//
// The simulator writes plenty of JSON (campaign exports, trace events) but
// until the daemon it never had to *read* any. This is a small recursive-
// descent parser over exactly the RFC 8259 grammar — objects, arrays,
// strings (with escapes), numbers, true/false/null — with the strictness
// the rest of the repo applies to its inputs: the whole body must be one
// value with nothing trailing, depth is bounded, duplicate object keys are
// rejected, and numbers are parsed with the locale-independent core/fmt
// rules. Numbers additionally keep their raw spelling so integral fields
// (seeds are full u64) can be re-parsed exactly instead of round-tripping
// through a double.
//
// Failures throw SpecError with a byte offset — the daemon maps that to a
// 400 response, mirroring how the fault-schedule parser reports file/line.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace msehsim::serve {

class JsonValue;

/// Object members in *insertion order* (a map would hide duplicate keys and
/// reorder canonicalization inputs; the spec layer does its own ordering).
using JsonMember = std::pair<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Value accessors; each throws SpecError when the kind does not match.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;
  [[nodiscard]] const std::vector<JsonMember>& as_object() const;

  /// The number's exact byte spelling from the body ("18446744073709551615"
  /// survives; its double form would not). Empty for non-numbers.
  [[nodiscard]] const std::string& raw_number() const { return string_; }

  /// Object member lookup; nullptr when absent (kind must be kObject).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

 private:
  friend class JsonParser;

  Kind kind_{Kind::kNull};
  bool bool_{false};
  double number_{0.0};
  std::string string_;  ///< string value, or a number's raw spelling
  std::vector<JsonValue> array_;
  std::vector<JsonMember> object_;
};

/// Parses @p text as exactly one JSON value (leading/trailing whitespace
/// allowed, nothing else). Throws SpecError with a byte offset on any
/// violation, including nesting deeper than @p max_depth.
[[nodiscard]] JsonValue parse_json(std::string_view text, int max_depth = 32);

}  // namespace msehsim::serve
