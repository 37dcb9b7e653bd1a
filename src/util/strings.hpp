// String utilities shared across the back-end tools.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bb::util {

/// Splits `s` on any character in `delims`, dropping empty fields.
std::vector<std::string> split(std::string_view s, std::string_view delims);

/// Joins `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool ends_with(std::string_view s, std::string_view suffix);

/// Lower-cases ASCII characters.
std::string to_lower(std::string_view s);

/// Replaces every occurrence of `from` in `s` with `to`.
std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to);

/// Parses the *whole* of `s` as a decimal integer (optional sign).
/// Returns nullopt for empty input, garbage, trailing text, or values
/// outside long long — unlike std::stoi/atoi, which throw or silently
/// return 0.
std::optional<long long> parse_ll(std::string_view s);

/// The environment variable `name` when it holds a positive integer
/// (parse_ll rules), else nullopt: an unset or malformed value falls
/// back silently to the caller's default.
std::optional<long long> positive_env(const char* name);

/// The seed a run uses: `seed` when non-zero, else the BB_SEED
/// environment variable when it is a positive integer, else 1.
std::uint64_t resolve_seed(std::uint64_t seed);

}  // namespace bb::util
