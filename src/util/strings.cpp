#include "src/util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace bb::util {

std::vector<std::string> split(std::string_view s, std::string_view delims) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < s.size()) {
    const std::size_t pos = s.find_first_of(delims, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    if (pos > start) out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view trim(std::string_view s) {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to) {
  std::string out;
  std::size_t start = 0;
  while (start < s.size()) {
    const std::size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      break;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
  return out;
}

std::optional<long long> parse_ll(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  // strtoll needs a NUL-terminated buffer; argv values are short.
  const std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) return std::nullopt;
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return value;
}

std::optional<long long> positive_env(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::nullopt;
  const auto n = parse_ll(env);
  return n && *n > 0 ? n : std::nullopt;
}

std::uint64_t resolve_seed(std::uint64_t seed) {
  if (seed != 0) return seed;
  return static_cast<std::uint64_t>(positive_env("BB_SEED").value_or(1));
}

}  // namespace bb::util
