// Minimal JSON document model: parse and serialise.
//
// Just enough JSON for the observability layer's own formats — JSONL
// event logs, metrics snapshots, and Chrome trace files — so tests can
// validate emitted files with a real parser and tools can re-read logs
// without external dependencies. Not a general-purpose library: numbers
// are doubles, no comments, UTF-8 passes through untouched (only \uXXXX
// below 0x80 is decoded).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace portatune::obs::json {

class Value {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Value() = default;

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::Null; }
  bool is_bool() const noexcept { return type_ == Type::Bool; }
  bool is_number() const noexcept { return type_ == Type::Number; }
  bool is_string() const noexcept { return type_ == Type::String; }
  bool is_array() const noexcept { return type_ == Type::Array; }
  bool is_object() const noexcept { return type_ == Type::Object; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& as_array() const;
  const std::vector<std::pair<std::string, Value>>& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
  /// Member lookup that throws portatune::Error when absent.
  const Value& at(std::string_view key) const;

  /// Parse a complete JSON document (throws portatune::Error on any
  /// syntax error or trailing garbage).
  static Value parse(std::string_view text);

  /// Serialise (compact, no whitespace).
  std::string dump() const;

  static Value make_null() { return Value(); }
  static Value make_bool(bool b);
  static Value make_number(double n);
  static Value make_string(std::string s);
  static Value make_array(std::vector<Value> items);
  static Value make_object(std::vector<std::pair<std::string, Value>> m);

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// The non-negative integer member `key` of object `obj`; `fallback`
/// when it is absent, which throws when there is none. Throws
/// portatune::Error naming `key` unless the member is a whole number
/// below 2^64: the one check every integer read from a request or a
/// state file goes through, so no out-of-range double reaches a cast.
std::uint64_t size_member(const Value& obj, std::string_view key,
                          std::optional<std::uint64_t> fallback = {});

/// Escape a string for embedding in a JSON document (no surrounding
/// quotes).
std::string escape(std::string_view s);

}  // namespace portatune::obs::json
