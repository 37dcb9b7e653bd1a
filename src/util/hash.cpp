#include "src/util/hash.hpp"

#include <cstdio>
#include <utility>

namespace bb::util {

std::uint64_t fnv1a64(std::string_view data, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string content_digest(std::string_view data) {
  return hex64(fnv1a64(data));
}

std::string frame(std::string_view magic, int version, std::string_view body) {
  std::string out;
  out += magic;
  out += ' ';
  out += std::to_string(version);
  out += '\n';
  out += content_digest(body);
  out += '\n';
  out += body;
  return out;
}

std::optional<std::string_view> unframe(std::string_view magic, int version,
                                        std::string_view bytes,
                                        std::string* error) {
  const auto fail = [error](std::string reason) {
    if (error != nullptr) *error = std::move(reason);
    return std::optional<std::string_view>();
  };
  const std::size_t magic_end = bytes.find('\n');
  if (magic_end == std::string_view::npos) return fail("missing magic line");
  const std::string expected =
      std::string(magic) + " " + std::to_string(version);
  const std::string_view magic_line = bytes.substr(0, magic_end);
  if (magic_line != expected) {
    return fail("bad magic/version line '" + std::string(magic_line) +
                "' (want '" + expected + "')");
  }
  const std::size_t sum_end = bytes.find('\n', magic_end + 1);
  if (sum_end == std::string_view::npos) return fail("missing checksum line");
  const std::string_view sum =
      bytes.substr(magic_end + 1, sum_end - magic_end - 1);
  const std::string_view body = bytes.substr(sum_end + 1);
  if (sum != content_digest(body)) return fail("checksum mismatch");
  return body;
}

}  // namespace bb::util
