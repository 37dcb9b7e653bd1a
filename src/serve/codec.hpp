// Versioned serialization of SynthesizedController for the persistent
// cache tier.
//
// The format is line-oriented text: deterministic by construction (no
// floats, no pointers, no maps with unstable order), so
// serialize(deserialize(s)) == s holds for every valid document, which
// is what lets the disk cache checksum entries byte-for-byte.  Signal
// names are stored verbatim; the rebinding that adapts a cached
// controller to a requesting spec's names happens in
// minimalist::SynthCache, above this layer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/minimalist/synth.hpp"

namespace bb::serve {

/// Format revision of the controller serialization; bump on any layout
/// change so old cache entries are treated as misses, not misparsed.
inline constexpr int kCodecVersion = 1;

/// Renders `ctrl` in the versioned text format.
std::string serialize_controller(const minimalist::SynthesizedController& ctrl);

/// Parses a serialized controller.  Returns nullopt on *any* defect —
/// unknown version, truncation, malformed counts or cubes — and stores a
/// one-line reason in `error` when non-null.  Never throws: the disk
/// cache treats a failed parse as a corrupt entry and deletes it.
std::optional<minimalist::SynthesizedController> deserialize_controller(
    std::string_view text, std::string* error = nullptr);

}  // namespace bb::serve
