// Minimal JSON support for the observability exporters and the bench/metrics
// schema validators: a streaming writer (always emits valid JSON) and a
// strict recursive-descent parser. Deliberately dependency-free — the obs
// library sits below every other Komodo component and must not pull the ARM
// model or monitor in.
#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace komodo::obs {

// Appends JSON tokens to a string, inserting commas and escaping strings.
// Usage is push-down: Begin/End calls must nest; Key() is required before
// every value inside an object.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  void Key(std::string_view key);
  void String(std::string_view value);
  void Uint(uint64_t value);
  void Int(int64_t value);
  void Double(double value);  // non-finite values emit null
  void Bool(bool value);
  void Null();

  // Key/value conveniences for the common object-member case.
  void KV(std::string_view key, std::string_view value) { Key(key), String(value); }
  void KV(std::string_view key, const char* value) { Key(key), String(value); }
  void KV(std::string_view key, uint64_t value) { Key(key), Uint(value); }
  void KV(std::string_view key, int value) { Key(key), Int(value); }
  void KV(std::string_view key, double value) { Key(key), Double(value); }
  void KV(std::string_view key, bool value) { Key(key), Bool(value); }

 private:
  void Comma();
  void Escaped(std::string_view s);

  std::string* out_;
  // One entry per open container: true once the first element was written.
  std::vector<bool> has_elem_;
  bool after_key_ = false;
};

// Parsed JSON value. Object members keep insertion order (the exporters'
// output is deterministic and tests compare it structurally).
struct JsonValue {
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> items;                           // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  bool IsObject() const { return kind == Kind::kObject; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsString() const { return kind == Kind::kString; }
  bool IsNumber() const { return kind == Kind::kNumber; }

  // Object-member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

// Strict parser: rejects trailing garbage, comments, and unterminated
// constructs. On failure returns nullopt and, when `error` is non-null,
// stores a byte offset + message.
std::optional<JsonValue> ParseJson(std::string_view text, std::string* error = nullptr);

// Writes `content` to `path`, replacing the file. False when the file cannot
// be opened or fully written. Every JSON artifact goes out through here.
bool WriteFile(const std::string& path, std::string_view content);

}  // namespace komodo::obs

#endif  // SRC_OBS_JSON_H_
