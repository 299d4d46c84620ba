// Binary serialization of heat-map grids.
//
// Versioned little-endian format ("RNHM" v2): a fixed header (magic,
// version, dimensions, domain, lane), then the width * height values
// row-major in the header's *lane* — the narrowest element type that
// holds every value of the grid exactly:
//   * u8  (lane 1) when every value is, bit for bit, the double of an
//         integer in [0, 255];
//   * u16 (lane 2) for integers in [0, 65535];
//   * f64 (lane 8) otherwise (fractions, negatives, -0.0, NaN, large
//         values), the raw IEEE-754 doubles.
// A size-measure map (heat = |RNN set|, an integer bounded by |O|)
// therefore travels at one or two bytes per pixel, and every grid
// round-trips bit-exactly whatever its lane. query/wire_layout.h pins the
// header fields (kGridLayout). v1 files (the same header without the lane
// word, always f64) still load.
//
// Lets expensive city-scale maps be computed once and re-rendered /
// re-queried later (see the CLI's `render` subcommand), and doubles as
// the grid payload of the serving wire protocol (query/wire.h):
// EncodeHeatmap/DecodeHeatmap are the buffer-level primitives,
// SaveHeatmap/LoadHeatmap the file wrappers.
#ifndef RNNHM_HEATMAP_SERIALIZATION_H_
#define RNNHM_HEATMAP_SERIALIZATION_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "heatmap/heatmap.h"

namespace rnnhm {

/// Bytes of the RNHM v2 header that precedes the lane-encoded body.
inline constexpr size_t kHeatmapHeaderBytes = 52;

/// Appends the grid's serialized bytes (the exact byte stream SaveHeatmap
/// writes) to `*out`, choosing the narrowest exact lane in one pass over
/// the values.
void EncodeHeatmap(const HeatmapGrid& grid, std::vector<uint8_t>* out);

/// Decodes one grid from the front of [data, data + size). On success
/// advances `*consumed` by the number of bytes read (trailing bytes are
/// left for the caller). On any malformed input — short buffer, bad
/// magic/version, unknown lane, non-positive dimensions, degenerate
/// domain, truncated payload — returns nullopt and, when `error` is
/// non-null, describes the failure; never CHECK-fails, so it is safe on
/// untrusted bytes. The header and the body length are validated before
/// the grid is allocated.
std::optional<HeatmapGrid> DecodeHeatmap(const uint8_t* data, size_t size,
                                         size_t* consumed,
                                         std::string* error = nullptr);

/// Writes the grid to `path`. Returns false on I/O failure.
bool SaveHeatmap(const HeatmapGrid& grid, const std::string& path);

/// Loads a grid written by SaveHeatmap (v2, or a v1 file). Returns
/// nullopt on I/O failure, bad magic/version, or a truncated payload.
std::optional<HeatmapGrid> LoadHeatmap(const std::string& path);

/// Exact size in bytes of the serialized form of `grid` (header +
/// lane-encoded body), i.e. what EncodeHeatmap appends.
size_t SerializedSizeBytes(const HeatmapGrid& grid);

}  // namespace rnnhm

#endif  // RNNHM_HEATMAP_SERIALIZATION_H_
