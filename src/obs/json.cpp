#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/error.hpp"

namespace portatune::obs::json {

namespace {

/// Deepest array/object nesting a document may have. Far above anything
/// the protocol, metrics or trace files produce.
constexpr std::size_t kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = parse_value();
    skip_ws();
    PT_REQUIRE(pos_ == text_.size(),
               "json: trailing garbage at offset " + std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        // Bounded recursion: a line of nothing but '[' must fail with a
        // parse error, not overflow the stack.
        if (++depth_ > kMaxDepth)
          fail("nesting deeper than " + std::to_string(kMaxDepth));
        Value v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Value::make_string(parse_string());
      case 't':
        if (consume_literal("true")) return Value::make_bool(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Value::make_bool(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Value::make_null();
        fail("bad literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    std::vector<std::pair<std::string, Value>> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value::make_object(std::move(members));
    }
  }

  Value parse_array() {
    expect('[');
    std::vector<Value> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value::make_array(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      fail("bad number '" + token + "'");
    }
    return Value::make_number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays/objects open around pos_
};

void dump_into(const Value& v, std::string& out);

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  out += escape(s);
  out += '"';
}

void dump_into(const Value& v, std::string& out) {
  switch (v.type()) {
    case Value::Type::Null: out += "null"; return;
    case Value::Type::Bool: out += v.as_bool() ? "true" : "false"; return;
    case Value::Type::Number: {
      const double n = v.as_number();
      if (!std::isfinite(n)) {
        out += "null";
        return;
      }
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", n);
      out += buf;
      return;
    }
    case Value::Type::String: dump_string(v.as_string(), out); return;
    case Value::Type::Array: {
      out += '[';
      const auto& items = v.as_array();
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ',';
        dump_into(items[i], out);
      }
      out += ']';
      return;
    }
    case Value::Type::Object: {
      out += '{';
      const auto& members = v.as_object();
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out += ',';
        dump_string(members[i].first, out);
        out += ':';
        dump_into(members[i].second, out);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

bool Value::as_bool() const {
  PT_REQUIRE(is_bool(), "json: not a bool");
  return bool_;
}

double Value::as_number() const {
  PT_REQUIRE(is_number(), "json: not a number");
  return number_;
}

const std::string& Value::as_string() const {
  PT_REQUIRE(is_string(), "json: not a string");
  return string_;
}

const std::vector<Value>& Value::as_array() const {
  PT_REQUIRE(is_array(), "json: not an array");
  return array_;
}

const std::vector<std::pair<std::string, Value>>& Value::as_object() const {
  PT_REQUIRE(is_object(), "json: not an object");
  return object_;
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  PT_REQUIRE(v != nullptr, "json: missing key '" + std::string(key) + "'");
  return *v;
}

Value Value::parse(std::string_view text) { return Parser(text).run(); }

std::uint64_t size_member(const Value& obj, std::string_view key,
                          std::optional<std::uint64_t> fallback) {
  const Value* v = obj.find(key);
  if (v == nullptr && fallback) return *fallback;
  PT_REQUIRE(v != nullptr, "json: missing key '" + std::string(key) + "'");
  // 0x1p64 is 2^64 exactly; NaN fails every comparison.
  PT_REQUIRE(v->is_number() && v->as_number() >= 0 &&
                 v->as_number() < 0x1p64 &&
                 v->as_number() == std::floor(v->as_number()),
             "'" + std::string(key) +
                 "' must be a non-negative integer below 2^64");
  return static_cast<std::uint64_t>(v->as_number());
}

std::string Value::dump() const {
  std::string out;
  dump_into(*this, out);
  return out;
}

Value Value::make_bool(bool b) {
  Value v;
  v.type_ = Type::Bool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double n) {
  Value v;
  v.type_ = Type::Number;
  v.number_ = n;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.type_ = Type::String;
  v.string_ = std::move(s);
  return v;
}

Value Value::make_array(std::vector<Value> items) {
  Value v;
  v.type_ = Type::Array;
  v.array_ = std::move(items);
  return v;
}

Value Value::make_object(std::vector<std::pair<std::string, Value>> m) {
  Value v;
  v.type_ = Type::Object;
  v.object_ = std::move(m);
  return v;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace portatune::obs::json
