// The one JSON emitter. Every stats file and bench artifact the project
// writes goes through JsonWriter, so the format is decided here, once:
// strict JSON that any reader accepts, in one layout with no options.
#pragma once

#include <charconv>
#include <concepts>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mm::util {

/// `text` escaped for use between the quotes of a JSON string: `"` and `\`
/// get a backslash, newline and tab become `\n` and `\t`, and every other
/// control character becomes `\u00XX`. Other bytes pass through unchanged.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Streaming writer over an ostream. Containers open keyed inside an object
/// and bare at the top level or inside an array; field() writes one
/// `"key": value` member. Layout: one item per line, two-space indentation,
/// `{}`/`[]` when empty, a newline after the top-level value. Integers are
/// exact; doubles are shortest round-trip (std::to_chars), so they read back
/// bit-equal; NaN and infinities, which JSON cannot express, are `null`.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter& begin_object() { return open(nullptr, '{'); }
  JsonWriter& begin_object(std::string_view key) { return open(&key, '{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open(nullptr, '['); }
  JsonWriter& begin_array(std::string_view key) { return open(&key, '['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& field(std::string_view key, bool value) {
    return member(key, value ? "true" : "false");
  }
  JsonWriter& field(std::string_view key, double value);
  JsonWriter& field(std::string_view key, std::string_view value) {
    return member(key, '"' + json_escape(value) + '"');
  }
  /// Without this overload a string literal would convert to bool.
  JsonWriter& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& field(std::string_view key, T value) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    return member(key, {buf, static_cast<std::size_t>(end - buf)});
  }

 private:
  /// Comma, newline and indentation before an item, then its key if any.
  void next_item(const std::string_view* key);
  JsonWriter& open(const std::string_view* key, char bracket);
  JsonWriter& close(char bracket);
  JsonWriter& member(std::string_view key, std::string_view token);

  std::ostream& out_;
  /// Each open container's opening bracket and whether it has items yet.
  std::vector<std::pair<char, bool>> open_;
};

/// Opens `path`, lets `fill` write one top-level value, flushes, and
/// returns false if the file could not be opened or any write failed.
[[nodiscard]] bool write_json_file(const std::string& path,
                                   const std::function<void(JsonWriter&)>& fill);

}  // namespace mm::util
