#include "util/json.h"

#include <cassert>
#include <cmath>
#include <fstream>

namespace mm::util {

std::string json_escape(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (byte < 0x20) {
      out += "\\u00";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

void JsonWriter::next_item(const std::string_view* key) {
  // A key exactly when the enclosing container is an object.
  assert((key != nullptr) == (!open_.empty() && open_.back().first == '{'));
  if (!open_.empty()) {
    if (open_.back().second) out_ << ',';
    open_.back().second = true;
    out_ << '\n' << std::string(2 * open_.size(), ' ');
  }
  if (key != nullptr) out_ << '"' << json_escape(*key) << "\": ";
}

JsonWriter& JsonWriter::open(const std::string_view* key, char bracket) {
  next_item(key);
  out_ << bracket;
  open_.emplace_back(bracket, false);
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  assert(!open_.empty() && open_.back().first == (bracket == '}' ? '{' : '['));
  const bool had_items = open_.back().second;
  open_.pop_back();
  if (had_items) out_ << '\n' << std::string(2 * open_.size(), ' ');
  out_ << bracket;
  if (open_.empty()) out_ << '\n';
  return *this;
}

JsonWriter& JsonWriter::member(std::string_view key, std::string_view token) {
  next_item(&key);
  out_ << token;
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, double value) {
  if (!std::isfinite(value)) return member(key, "null");
  char buf[32];
  const char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  return member(key, {buf, static_cast<std::size_t>(end - buf)});
}

bool write_json_file(const std::string& path,
                     const std::function<void(JsonWriter&)>& fill) {
  std::ofstream out(path);
  if (!out) return false;
  JsonWriter json(out);
  fill(json);
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace mm::util
