#include "src/common/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace ccnvme {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
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
  return out;
}

void JsonWriter::NewlineIndent() {
  if (!pretty) {
    return;
  }
  os << '\n';
  for (int i = 0; i < depth; ++i) {
    os << "  ";
  }
}

void JsonWriter::Open(char c) {
  os << c;
  depth++;
}

void JsonWriter::Close(char c) {
  depth--;
  NewlineIndent();
  os << c;
}

void JsonWriter::Key(const std::string& k, bool first) {
  if (!first) {
    os << ',';
  }
  NewlineIndent();
  os << '"' << JsonEscape(k) << (pretty ? "\": " : "\":");
}

void JsonWriter::String(const std::string& s) {
  os << '"' << JsonEscape(s) << '"';
}

namespace {

class JsonReader {
 public:
  JsonReader(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    if (!ParseValue(out)) {
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing data");
    }
    return true;
  }

 private:
  bool Fail(const std::string& why) {
    if (error_ != nullptr) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "json parse error at offset %zu: %s", pos_,
                    why.c_str());
      *error_ = buf;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      pos_++;
    }
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{') {
      return ParseObject(out);
    }
    if (c == '[') {
      return ParseArray(out);
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->str);
    }
    if (c == 't' || c == 'f') {
      const std::string word = c == 't' ? "true" : "false";
      if (text_.compare(pos_, word.size(), word) != 0) {
        return Fail("bad literal");
      }
      pos_ += word.size();
      out->type = JsonValue::Type::kBool;
      out->b = c == 't';
      return true;
    }
    if (c == 'n') {
      if (text_.compare(pos_, 4, "null") != 0) {
        return Fail("bad literal");
      }
      pos_ += 4;
      out->type = JsonValue::Type::kNull;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    pos_++;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      pos_++;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'");
      }
      pos_++;
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->obj.emplace(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated object");
      }
      if (text_[pos_] == ',') {
        pos_++;
        continue;
      }
      if (text_[pos_] == '}') {
        pos_++;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    pos_++;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      pos_++;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->arr.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated array");
      }
      if (text_[pos_] == ',') {
        pos_++;
        continue;
      }
      if (text_[pos_] == ']') {
        pos_++;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected string");
    }
    pos_++;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case 'n': *out += '\n'; break;
        case 't': *out += '\t'; break;
        case 'r': *out += '\r'; break;
        case 'u':
          // Exported escapes are only control chars; decode the low byte.
          if (pos_ + 4 > text_.size()) {
            return Fail("bad \\u escape");
          }
          *out += static_cast<char>(std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16));
          pos_ += 4;
          break;
        default: *out += esc;
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      pos_++;
    }
    if (pos_ == start) {
      return Fail("expected value");
    }
    out->type = JsonValue::Type::kNumber;
    out->str = text_.substr(start, pos_ - start);
    out->num = std::strtod(out->str.c_str(), nullptr);
    return true;
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace

bool JsonParse(const std::string& text, JsonValue* out, std::string* error) {
  JsonReader reader(text, error);
  return reader.Parse(out);
}

}  // namespace ccnvme
