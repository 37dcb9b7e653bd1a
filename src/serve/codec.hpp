// Versioned serialization of SynthesizedController for the persistent
// cache tier.
//
// Each controller is one JSON object written by util::JsonWriter and
// read back by util::parse_json, the same pair the incremental manifest
// uses:
//
//   {"codec":3,"name":..,"inputs":[..],"outputs":[..],"state_bits":[..],
//    "num_vars":N,"functions":[{"name":..,"state_bit":false,
//    "num_vars":N,"cubes":["01-.."]}],"state_codes":["0110"],
//    "initial":"0110"}
//
// Member order is fixed and there are no floats, pointers or maps with
// unstable order, so serialize(deserialize(s)) == s holds for every
// document serialize produced, which is what lets the disk cache
// checksum entries byte-for-byte.  Signal names are stored verbatim;
// the rebinding that adapts a cached controller to a requesting spec's
// names happens in minimalist::SynthCache, above this layer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/minimalist/synth.hpp"

namespace bb::serve {

/// Format revision of the controller serialization; bump on any layout
/// change so old cache entries are treated as misses, not misparsed,
/// and on any change to what the cache admits.  3: only controllers
/// that passed the MN lint are stored (flow::synthesize_cached).
inline constexpr int kCodecVersion = 3;

/// Renders `ctrl` as one versioned JSON object (no trailing newline).
std::string serialize_controller(const minimalist::SynthesizedController& ctrl);

/// Parses a serialized controller.  Returns nullopt on *any* defect —
/// bad JSON, unknown version, a member of the wrong type, num_vars
/// above 10^6, a cube whose width is not its function's num_vars, a bit
/// string with a character other than '0'/'1' — and stores a
/// one-line reason in `error` when non-null.  Never throws: the disk
/// cache treats a failed parse as a corrupt entry and deletes it.
std::optional<minimalist::SynthesizedController> deserialize_controller(
    std::string_view text, std::string* error = nullptr);

}  // namespace bb::serve
