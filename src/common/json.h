// Minimal shared JSON support: an escaping writer and a small recursive
// reader (objects / arrays / strings / numbers / bools / null). Enough to
// round-trip every JSON artifact the repo produces (metrics snapshots,
// bench reports, profile dumps) without an external dependency.
#ifndef SRC_COMMON_JSON_H_
#define SRC_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace ccnvme {

// Escapes for embedding inside a JSON string literal (no surrounding quotes).
std::string JsonEscape(const std::string& s);

// Streaming writer with optional pretty printing. Usage mirrors the
// handwritten emitters it replaced:
//   JsonWriter w(/*pretty=*/true);
//   w.Open('{'); w.Key("n", true); w.os << 42; w.Close('}');
struct JsonWriter {
  std::ostringstream os;
  bool pretty;
  int depth = 0;

  explicit JsonWriter(bool p) : pretty(p) {}

  void NewlineIndent();
  void Open(char c);
  void Close(char c);
  void Key(const std::string& k, bool first);
  // Convenience scalar emitters (value position; pair with Key()).
  void String(const std::string& s);
};

// Parsed JSON tree.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };
  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;  // kString: the value; kNumber: the literal's exact text
  std::map<std::string, JsonValue> obj;
  std::vector<JsonValue> arr;

  const JsonValue* Find(const std::string& key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
  uint64_t U64(const std::string& key, uint64_t fallback = 0) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->type == Type::kNumber ? static_cast<uint64_t>(v->num)
                                                    : fallback;
  }
  double Num(const std::string& key, double fallback = 0.0) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->type == Type::kNumber ? v->num : fallback;
  }
  std::string Str(const std::string& key, const std::string& fallback = "") const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->type == Type::kString ? v->str : fallback;
  }
};

// Parses |text| into |out|. On failure returns false and, when |error| is
// non-null, stores a one-line diagnostic with the byte offset.
bool JsonParse(const std::string& text, JsonValue* out, std::string* error);

}  // namespace ccnvme

#endif  // SRC_COMMON_JSON_H_
