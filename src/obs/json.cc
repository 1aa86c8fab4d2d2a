#include "src/obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace komodo::obs {

// --- Writer --------------------------------------------------------------------

void JsonWriter::Comma() {
  if (after_key_) {
    after_key_ = false;
    return;  // value directly follows its key; no comma
  }
  if (!has_elem_.empty()) {
    if (has_elem_.back()) {
      out_->push_back(',');
    }
    has_elem_.back() = true;
  }
}

void JsonWriter::Escaped(std::string_view s) {
  out_->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out_->append("\\\"");
        break;
      case '\\':
        out_->append("\\\\");
        break;
      case '\n':
        out_->append("\\n");
        break;
      case '\t':
        out_->append("\\t");
        break;
      case '\r':
        out_->append("\\r");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_->append(buf);
        } else {
          out_->push_back(c);
        }
    }
  }
  out_->push_back('"');
}

void JsonWriter::BeginObject() {
  Comma();
  out_->push_back('{');
  has_elem_.push_back(false);
}

void JsonWriter::EndObject() {
  has_elem_.pop_back();
  out_->push_back('}');
}

void JsonWriter::BeginArray() {
  Comma();
  out_->push_back('[');
  has_elem_.push_back(false);
}

void JsonWriter::EndArray() {
  has_elem_.pop_back();
  out_->push_back(']');
}

void JsonWriter::Key(std::string_view key) {
  Comma();
  Escaped(key);
  out_->push_back(':');
  after_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  Comma();
  Escaped(value);
}

void JsonWriter::Uint(uint64_t value) {
  Comma();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(value));
  out_->append(buf);
}

void JsonWriter::Int(int64_t value) {
  Comma();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  out_->append(buf);
}

void JsonWriter::Double(double value) {
  Comma();
  if (!std::isfinite(value)) {
    out_->append("null");
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_->append(buf);
}

void JsonWriter::Bool(bool value) {
  Comma();
  out_->append(value ? "true" : "false");
}

void JsonWriter::Null() {
  Comma();
  out_->append("null");
}

// --- Parser --------------------------------------------------------------------

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : members) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> Parse(std::string* error) {
    JsonValue v;
    if (!ParseValue(v)) {
      Report(error);
      return std::nullopt;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      err_ = "trailing characters after value";
      Report(error);
      return std::nullopt;
    }
    return v;
  }

 private:
  void Report(std::string* error) const {
    if (error != nullptr) {
      *error = "offset " + std::to_string(pos_) + ": " + (err_ ? err_ : "parse error");
    }
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Fail(const char* why) {
    err_ = why;
    return false;
  }

  bool Literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (text_.substr(pos_, n) != lit) {
      return Fail("invalid literal");
    }
    pos_ += n;
    return true;
  }

  bool ParseString(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected string");
    }
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          break;
        }
        const char e = text_[pos_++];
        switch (e) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return Fail("truncated \\u escape");
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Fail("invalid \\u escape");
              }
            }
            // UTF-8 encode (surrogate pairs unsupported; the exporters never
            // emit non-BMP characters).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xc0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            } else {
              out.push_back(static_cast<char>(0xe0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            }
            break;
          }
          default:
            return Fail("invalid escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue& v) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected number");
    }
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    v.number = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Fail("malformed number");
    }
    v.kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool ParseValue(JsonValue& v) {
    SkipWs();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    const char c = text_[pos_];
    switch (c) {
      case '{': {
        ++pos_;
        v.kind = JsonValue::Kind::kObject;
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        for (;;) {
          SkipWs();
          std::string key;
          if (!ParseString(key)) {
            return false;
          }
          SkipWs();
          if (pos_ >= text_.size() || text_[pos_] != ':') {
            return Fail("expected ':'");
          }
          ++pos_;
          JsonValue member;
          if (!ParseValue(member)) {
            return false;
          }
          v.members.emplace_back(std::move(key), std::move(member));
          SkipWs();
          if (pos_ < text_.size() && text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
          }
          return Fail("expected ',' or '}'");
        }
      }
      case '[': {
        ++pos_;
        v.kind = JsonValue::Kind::kArray;
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        for (;;) {
          JsonValue item;
          if (!ParseValue(item)) {
            return false;
          }
          v.items.push_back(std::move(item));
          SkipWs();
          if (pos_ < text_.size() && text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
          }
          return Fail("expected ',' or ']'");
        }
      }
      case '"':
        v.kind = JsonValue::Kind::kString;
        return ParseString(v.str);
      case 't':
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return Literal("true");
      case 'f':
        v.kind = JsonValue::Kind::kBool;
        v.boolean = false;
        return Literal("false");
      case 'n':
        v.kind = JsonValue::Kind::kNull;
        return Literal("null");
      default:
        return ParseNumber(v);
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  const char* err_ = nullptr;
};

}  // namespace

std::optional<JsonValue> ParseJson(std::string_view text, std::string* error) {
  return Parser(text).Parse(error);
}

bool WriteFile(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t n = std::fwrite(content.data(), 1, content.size(), f);
  const int rc = std::fclose(f);
  return n == content.size() && rc == 0;
}

}  // namespace komodo::obs
