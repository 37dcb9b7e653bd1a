// Content-addressing hash primitives shared by every layer that derives
// stable identifiers from bytes: the serve disk cache (entry file
// names), the incremental build graph (unit and controller digests) and
// the technology library fingerprint.  Also the checksummed record
// framing shared by disk cache entries and the incremental manifest and
// artifacts.
//
// FNV-1a is not cryptographic; it is used strictly for content
// addressing among trusted inputs, where the failure mode of a
// collision is a stale-entry guard (the disk cache embeds and compares
// the full key, the incremental manifest rebuilds on any doubt).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace bb::util {

/// 64-bit FNV-1a over `data`.  `seed` selects independent streams (the
/// disk cache derives a 128-bit file name from two seeds).
std::uint64_t fnv1a64(std::string_view data,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

/// 16-hex-digit rendering of a 64-bit hash.
std::string hex64(std::uint64_t value);

/// hex64(fnv1a64(data)): the one-call digest used for content keys.
std::string content_digest(std::string_view data);

/// Frames `body` as a self-checking record:
///   "<magic> <version>\n<content_digest(body)>\n<body>"
std::string frame(std::string_view magic, int version, std::string_view body);

/// Inverse of frame(): verifies the magic/version line and the checksum
/// and returns the body (a view into `bytes`).  nullopt on any defect,
/// with a one-line reason in `error` when non-null.
std::optional<std::string_view> unframe(std::string_view magic, int version,
                                        std::string_view bytes,
                                        std::string* error = nullptr);

}  // namespace bb::util
