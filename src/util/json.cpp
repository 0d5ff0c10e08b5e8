#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace autodml::util {

const JsonValue& JsonValue::at(std::string_view key) const {
  const auto& obj = as_object();
  const auto it = obj.find(std::string(key));
  if (it == obj.end())
    throw std::out_of_range("JsonValue: missing key " + std::string(key));
  return it->second;
}

bool JsonValue::contains(std::string_view key) const {
  if (!is_object()) return false;
  return as_object().count(std::string(key)) > 0;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("JSON parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
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

  JsonValue parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue(nullptr);
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject obj;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      obj.emplace(std::move(key), parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue(std::move(obj));
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray arr;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue(std::move(arr));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else {
            // Pass through as UTF-8 for the BMP (sufficient here).
            if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            }
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(text_.data() + start,
                                           text_.data() + pos_, value);
    if (ec != std::errc{} || ptr != text_.data() + pos_) {
      pos_ = start;
      fail("malformed number");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void escape_into(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_into(std::string& out, const JsonValue& v, int indent, int depth) {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    const double d = v.as_number();
    if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15) {
      // Integral values print without a fraction for readability.
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
      out += buf;
    } else {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      out += buf;
    }
  } else if (v.is_string()) {
    escape_into(out, v.as_string());
  } else if (v.is_array()) {
    const auto& arr = v.as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i) out += ',';
      newline(depth + 1);
      dump_into(out, arr[i], indent, depth + 1);
    }
    newline(depth);
    out += ']';
  } else {
    const auto& obj = v.as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [key, value] : obj) {
      if (!first) out += ',';
      first = false;
      newline(depth + 1);
      escape_into(out, key);
      out += indent > 0 ? ": " : ":";
      dump_into(out, value, indent, depth + 1);
    }
    newline(depth);
    out += '}';
  }
}

[[noreturn]] void wrong_type(std::string_view where, std::string_view key,
                             std::string_view type) {
  throw std::invalid_argument(std::string(where) + ": '" + std::string(key) +
                              "' must be " + std::string(type));
}

}  // namespace

JsonValue parse_json(std::string_view text) {
  Parser parser(text);
  return parser.parse_document();
}

std::string dump_json(const JsonValue& value, int indent) {
  std::string out;
  dump_into(out, value, indent, 0);
  return out;
}

const JsonValue& require(const JsonValue& object, std::string_view key,
                         std::string_view where) {
  if (object.is_object()) {
    const JsonObject& members = object.as_object();
    const auto it = members.find(std::string(key));
    if (it != members.end()) return it->second;
  }
  throw std::invalid_argument(std::string(where) + ": missing '" +
                              std::string(key) + "'");
}

bool require_bool(const JsonValue& object, std::string_view key,
                  std::string_view where) {
  const JsonValue& v = require(object, key, where);
  if (!v.is_bool()) wrong_type(where, key, "a bool");
  return v.as_bool();
}

double require_number(const JsonValue& object, std::string_view key,
                      std::string_view where) {
  const JsonValue& v = require(object, key, where);
  if (!v.is_number()) wrong_type(where, key, "a number");
  return v.as_number();
}

std::int64_t require_int(const JsonValue& object, std::string_view key,
                         std::string_view where) {
  const double d = require_number(object, key, where);
  if (d != std::floor(d)) wrong_type(where, key, "an integer");
  return static_cast<std::int64_t>(d);
}

const std::string& require_string(const JsonValue& object,
                                  std::string_view key,
                                  std::string_view where) {
  const JsonValue& v = require(object, key, where);
  if (!v.is_string()) wrong_type(where, key, "a string");
  return v.as_string();
}

}  // namespace autodml::util
