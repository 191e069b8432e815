#include "support/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "support/error.hpp"

namespace srm::support {

namespace {

[[noreturn]] void type_error(const char* want, Json::Type got) {
  static const char* const kNames[] = {"null",   "bool",  "int",   "double",
                                       "string", "array", "object"};
  throw InvalidArgument(std::string("JSON type mismatch: wanted ") + want +
                        ", value is " + kNames[static_cast<int>(got)]);
}

void write_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Maximum container nesting the parser accepts. The recursive-descent
/// parser uses one stack frame per level, so this cap is what turns a
/// hostile "[[[[[…" document into a clean srm::InvalidArgument instead of
/// a stack overflow. 128 is far beyond any document this library writes
/// (cell envelopes nest < 10 deep).
constexpr int kMaxParseDepth = 128;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument("JSON: " + what + " at offset " +
                          std::to_string(pos_));
  }

  void skip_ws() {
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

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxParseDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("invalid literal");
      case 'N':
        if (consume_literal("NaN")) {
          return Json(std::numeric_limits<double>::quiet_NaN());
        }
        fail("invalid literal");
      case 'I':
        if (consume_literal("Infinity")) {
          return Json(std::numeric_limits<double>::infinity());
        }
        fail("invalid literal");
      default:
        if (c == '-' && consume_literal("-Infinity")) {
          return Json(-std::numeric_limits<double>::infinity());
        }
        return parse_number();
    }
  }

  Json parse_object(int depth) {
    ++pos_;  // '{'
    Json::Object members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(members));
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_ws();
      if (peek() != ':') fail("expected ':' after object key");
      ++pos_;
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Json(std::move(members));
      }
      fail("expected ',' or '}' in object");
    }
  }

  Json parse_array(int depth) {
    ++pos_;  // '['
    Json::Array items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(items));
    }
    while (true) {
      items.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Json(std::move(items));
      }
      fail("expected ',' or ']' in array");
    }
  }

  void append_utf8(std::string& out, unsigned code_point) {
    if (code_point < 0x80) {
      out += static_cast<char>(code_point);
    } else if (code_point < 0x800) {
      out += static_cast<char>(0xC0 | (code_point >> 6));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else if (code_point < 0x10000) {
      out += static_cast<char>(0xE0 | (code_point >> 12));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code_point >> 18));
      out += static_cast<char>(0x80 | ((code_point >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    pos_ += 4;
    return value;
  }

  std::string parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) {
          fail("raw control character in string");
        }
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("truncated escape");
      const char esc = text_[pos_++];
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
          unsigned code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must pair with \uDC00..\uDFFF.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("unpaired surrogate");
            }
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("unpaired surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  [[nodiscard]] bool digit_at(std::size_t pos) const {
    return pos < text_.size() && text_[pos] >= '0' && text_[pos] <= '9';
  }

  // Strict RFC 8259 number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?
  // [0-9]+)?. Untrusted service input means the lenient scan that once
  // lived here (which took ".5", "01", "1." or "1e+") is no longer
  // acceptable — anything off-grammar fails with an offset instead of
  // guessing.
  Json parse_number() {
    const std::size_t begin = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!digit_at(pos_)) fail("invalid number");
    if (text_[pos_] == '0') {
      ++pos_;
      if (digit_at(pos_)) fail("leading zero in number");
    } else {
      while (digit_at(pos_)) ++pos_;
    }
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      if (!digit_at(pos_)) fail("expected digit after decimal point");
      while (digit_at(pos_)) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digit_at(pos_)) fail("expected digit in exponent");
      while (digit_at(pos_)) ++pos_;
    }
    const std::string_view token = text_.substr(begin, pos_ - begin);
    const char* b = token.data();
    const char* e = b + token.size();
    if (!is_double) {
      std::int64_t value = 0;
      const auto [ptr, ec] = std::from_chars(b, e, value);
      if (ec == std::errc{} && ptr == e) return Json(value);
      // Out of std::int64_t range: fall through to double.
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(b, e, value);
    if (ec != std::errc{} || ptr != e) fail("invalid number");
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::from_unsigned(std::uint64_t value) {
  SRM_EXPECTS(value <=
                  static_cast<std::uint64_t>(
                      std::numeric_limits<std::int64_t>::max()),
              "JSON integer out of std::int64_t range");
  return Json(static_cast<std::int64_t>(value));
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

std::int64_t Json::as_int() const {
  if (type_ != Type::kInt) type_error("int", type_);
  return int_;
}

std::uint64_t Json::as_unsigned() const {
  const std::int64_t value = as_int();
  // Documents come from outside the program (serve requests, artifacts).
  require_input(value >= 0,
                "JSON integer is negative where a count was expected");
  return static_cast<std::uint64_t>(value);
}

double Json::as_double() const {
  if (type_ == Type::kDouble) return double_;
  if (type_ == Type::kInt) return static_cast<double>(int_);
  type_error("number", type_);
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const Json::Array& Json::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

const Json::Object& Json::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* found = find(key);
  if (found == nullptr) {
    throw InvalidArgument("JSON object has no member '" + std::string(key) +
                          "'");
  }
  return *found;
}

void Json::set(std::string key, Json value) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

void Json::push_back(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) type_error("array", type_);
  array_.push_back(std::move(value));
}

std::string Json::format_double(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "Infinity" : "-Infinity";
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  SRM_ASSERT(ec == std::errc{}, "to_chars failed for a finite double");
  std::string out(buf, ptr);
  // Keep the numeric type visible to the reader: integral doubles get a
  // ".0" so "5" stays an int and "5.0" stays a double (and "-0" keeps its
  // sign through the double path).
  if (out.find_first_of(".eE") == std::string::npos) out += ".0";
  return out;
}

void Json::write(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline_indent = [&](int levels) {
    out += '\n';
    out.append(static_cast<std::size_t>(indent) *
                   static_cast<std::size_t>(levels),
               ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kInt: out += std::to_string(int_); break;
    case Type::kDouble: out += format_double(double_); break;
    case Type::kString: write_escaped(out, string_); break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      // Arrays of scalars stay on one line even in pretty mode (sample
      // vectors would otherwise dominate the file in newlines); arrays of
      // composites get one element per line.
      const bool nested =
          pretty && (array_.front().is_array() || array_.front().is_object());
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out += pretty && !nested ? ", " : ",";
        if (nested) newline_indent(depth + 1);
        array_[i].write(out, indent, depth + 1);
      }
      if (nested) newline_indent(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i != 0) out += ',';
        if (pretty) newline_indent(depth + 1);
        write_escaped(out, object_[i].first);
        out += pretty ? ": " : ":";
        object_[i].second.write(out, indent, depth + 1);
      }
      if (pretty) newline_indent(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  if (indent >= 0) out += '\n';
  return out;
}

Json Json::parse(std::string_view text) { return Parser(text).run(); }

}  // namespace srm::support
