// Versioned binary wire protocol for engine requests and responses — the
// process-sharding seam of the serving layer.
//
// The ROADMAP's next scaling step is sharding the engine across
// processes; this module defines the bytes that cross the boundary. The
// protocol is little-endian throughout and versioned (kWireVersion);
// decoders validate strictly and return errors instead of CHECK-failing,
// so a server can face untrusted bytes.
//
// Requests carry the circle set either *inline* (full payload; the server
// registers it in its CircleSetRegistry) or *by reference* (just the
// 64-bit content hash of a set some earlier request in the stream carried
// inline) — the wire analogue of CircleSetHandle sharing. A client
// fanning many requests over one population ships the circles once.
// Inline payloads embed their content hash and decoders recompute and
// compare it, so a corrupted circle payload is rejected rather than
// swept.
//
// Responses carry the full HeatmapResponse: status, sweep counters, cache
// counters and the grid. The grid payload is heatmap/serialization's
// "RNHM" blob, which stores the values in the narrowest lane that holds
// them exactly: a size-measure map (integer counts) travels as u8 or u16,
// anything else as f64, and every value decodes bit-identically.
//
// Framing: a stream is a sequence of [u32 LE payload length][payload]
// frames (WriteFrame/ReadFrame). The server side — decode, registry,
// engine, one response frame per request frame, in order — is
// serve/wire_server.h's WireServer.
//
// Decoders of untrusted input (requests) report failures as a Status
// (kInvalidArgument plus a message); decoders of replies a client reads
// (responses, stats replies) report them as a message string.
//
// Versioning rules: kWireVersion bumps on any layout change; decoders
// reject other versions (no negotiation — a shard fleet is deployed in
// lockstep). Reserved header bytes must be zero on encode and are
// rejected when nonzero, so they can be given meaning later without
// silently misreading old traffic.
#ifndef RNNHM_QUERY_WIRE_H_
#define RNNHM_QUERY_WIRE_H_

#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/circle_set_registry.h"
#include "query/heatmap_engine.h"
#include "tile/tile_plan.h"

namespace rnnhm {

/// Protocol version stamped into every message. v4 adds the delta
/// registration op (base hash + edit list -> new registered set, served
/// with an incremental re-sweep) and extends the stats reply with delta
/// and eviction counters. v5 appends `delta_dirty_columns` to the stats
/// reply — the cumulative pixel columns spliced deltas actually
/// recomputed, the observable cost of the 2D dirty-rect splice. v6 adds
/// the tile fragment op (a request for one tile of the domain-tiled
/// decomposition, answered with a window-sized fragment grid — the
/// by-tile sharding seam) and appends the tile counters to the stats
/// reply; plain request/response layouts are unchanged from v5. v7 moves
/// the response grid to the RNHM v2 blob (a lane word after the domain;
/// u8/u16/f64 bodies, see heatmap/serialization.h) and adds the kTooLarge
/// status; no frame header changes size.
inline constexpr uint32_t kWireVersion = 7;

/// Ceiling on a frame's payload length (guards a garbage length prefix
/// from triggering a giant allocation).
inline constexpr uint32_t kMaxFramePayloadBytes = 1u << 30;

/// Ceiling on width*height a server accepts from the wire (an otherwise
/// well-formed request must not be able to demand an absurd raster).
inline constexpr uint64_t kMaxWirePixels = 1ull << 26;

/// Response status codes.
enum class WireStatus : uint8_t {
  kOk = 0,
  kMalformedRequest = 1,   ///< frame decoded but failed validation
  kUnknownCircleSet = 2,   ///< by-reference hash not registered
  kServerError = 3,        ///< the sweep threw
  kTooLarge = 4,           ///< over a size ceiling (pixels, frame bytes)
};

/// Maps an on-the-wire response status into the serving stack's unified
/// Status code (common/status.h): kMalformedRequest -> kInvalidArgument,
/// kUnknownCircleSet -> kNotFound, kServerError -> kInternal, kTooLarge ->
/// kResourceExhausted.
StatusCode FromWireStatus(WireStatus status);

/// The inverse: picks the wire status a server answers with for a local
/// Status code. Codes with no wire meaning (transport-level ones like
/// kUnavailable) collapse to kServerError.
WireStatus ToWireStatus(StatusCode code);

/// Short lower-case name of a response status ("ok", "too-large", ...),
/// for logs and the CLI.
const char* WireStatusName(WireStatus status);

/// A decoded (or to-be-encoded) v2 request. `set_hash` is always the
/// circle set's content hash (HashCircleSet under `metric`); `circles` is
/// the inline payload and is empty for by-reference requests.
struct WireRequest {
  Metric metric = Metric::kLInf;
  uint64_t set_hash = 0;
  bool inline_circles = false;
  std::vector<NnCircle> circles;
  Rect domain;
  int width = 0;
  int height = 0;
};

/// Builds a request for `set`: with `include_circles` the full payload
/// travels (first use of a set on a stream), without it only the hash
/// (subsequent uses).
WireRequest MakeWireRequest(const CircleSetSnapshot& set, const Rect& domain,
                            int width, int height, bool include_circles);

/// Serializes a request message.
std::vector<uint8_t> EncodeRequest(const WireRequest& request);

/// Parses and validates a request message. Returns nullopt on any
/// malformed input (short buffer, bad magic/version/metric, nonzero
/// reserved bytes, non-positive raster, degenerate domain, payload size
/// mismatch, inline content-hash mismatch) with `*status`
/// kInvalidArgument describing it; `*status` is kOk on success.
std::optional<WireRequest> DecodeRequest(std::span<const uint8_t> bytes,
                                         Status* status);

/// A decoded response: `response` is engaged iff `status == kOk`,
/// `error` is the server's message otherwise.
struct WireResponse {
  WireStatus status = WireStatus::kOk;
  std::string error;
  std::optional<HeatmapResponse> response;
};

/// Serializes a success response: status kOk, `from_cache`, the sweep
/// counters and grid of `response`, and the cache counters `cache`.
/// `response`'s own from_cache and cache fields are not read, so a cache
/// hit encodes straight from the shared entry (SweepCacheHit) with its
/// per-hit fields, without copying the grid.
std::vector<uint8_t> EncodeResponse(const HeatmapResponse& response,
                                    bool from_cache,
                                    const SweepCacheStats& cache);

/// As above with the response's own from_cache and cache fields.
inline std::vector<uint8_t> EncodeResponse(const HeatmapResponse& response) {
  return EncodeResponse(response, response.from_cache, response.cache);
}

/// Serializes an error response (no grid).
std::vector<uint8_t> EncodeErrorResponse(WireStatus status,
                                         const std::string& message);

/// Parses and validates a response message; nullopt + `*error` on any
/// malformed input (same strictness as DecodeRequest; the grid payload is
/// validated by heatmap/serialization's DecodeHeatmap).
std::optional<WireResponse> DecodeResponse(std::span<const uint8_t> bytes,
                                           std::string* error);

// --- Delta registration op (v4) -------------------------------------------
//
// Ticking workloads (a fleet of moving taxis, a what-if exploration)
// perturb a few circles per update. A delta request names the previous
// tick's set by content hash, carries the edit list that produced the new
// set, and embeds the expected *derived* content hash so the server can
// prove client and server applied identical edit semantics. The server
// answers with a normal response frame for the derived set's heat map —
// computed by splicing only the dirty columns when it still holds the
// base raster — and the derived set becomes registered (addressable by
// its hash in later requests, including further deltas chained off it).

/// A decoded (or to-be-encoded) delta request. `base_hash` names the
/// registered set the edits apply to; `new_hash` is the content hash of
/// the derived set (HashCircleSet after applying `edits` in order), which
/// the server verifies before registering.
struct WireDeltaRequest {
  Metric metric = Metric::kLInf;
  uint64_t base_hash = 0;
  uint64_t new_hash = 0;
  std::vector<CircleSetEdit> edits;
  Rect domain;
  int width = 0;
  int height = 0;
};

/// Serializes a delta request message.
std::vector<uint8_t> EncodeDeltaRequest(const WireDeltaRequest& request);

/// True iff the payload *starts like* a delta request (magic check only —
/// cheap routing peek; full validation is DecodeDeltaRequest).
bool IsDeltaRequest(std::span<const uint8_t> bytes);

/// Parses and validates a delta request with the same strictness as
/// DecodeRequest (edit index range checks happen later, against the
/// resolved base set).
std::optional<WireDeltaRequest> DecodeDeltaRequest(
    std::span<const uint8_t> bytes, Status* status);

// --- Tile fragment op (v6) ------------------------------------------------
//
// The by-tile sharding seam (tile/tile_plan.h): a tile request names one
// tile of the tile_rows x tile_cols decomposition of an ordinary heat-map
// request, and the server answers with a normal response frame whose grid
// is the tile's window-sized *fragment* — cell (i, j) of the fragment is
// global pixel (window.col_lo + i, window.row_lo + j), where the window is
// TileWindows(domain, width, height, tile_rows, tile_cols)[tile_id]. Any
// peer computes the same windows from the same request fields (they are a
// pure function of the geometry), so a router can stitch fragments from
// different shards into the full raster, bit-identical to an untiled
// response. The header is the whole plain request header followed by the
// tile grid and id, so hash-routing peeks work unchanged on tile frames.

/// A decoded (or to-be-encoded) tile fragment request: a plain request
/// plus the tile grid shape and the row-major tile id to compute.
struct WireTileRequest : WireRequest {
  int tile_rows = 1;
  int tile_cols = 1;
  int tile_id = 0;
};

/// Builds a tile request for `set`, mirroring MakeWireRequest.
WireTileRequest MakeWireTileRequest(const CircleSetSnapshot& set,
                                    const Rect& domain, int width, int height,
                                    bool include_circles, int tile_rows,
                                    int tile_cols, int tile_id);

/// Serializes a tile request message.
std::vector<uint8_t> EncodeTileRequest(const WireTileRequest& request);

/// True iff the payload *starts like* a tile request (magic check only —
/// cheap routing peek; full validation is DecodeTileRequest).
bool IsTileRequest(std::span<const uint8_t> bytes);

/// Parses and validates a tile request with the same strictness as
/// DecodeRequest, plus: the tile grid must fit [1, kMaxTileGridSide] per
/// side and `tile_id` must lie inside it.
std::optional<WireTileRequest> DecodeTileRequest(std::span<const uint8_t> bytes,
                                                 Status* status);

// --- Stats op (v3) --------------------------------------------------------
//
// A stats request asks a server for its serve counters; a router answers
// with the counters of every shard merged (summed) and `shards` set to
// the fleet size. The op lets a deployer watch a fleet through the same
// socket the traffic uses — no side channel.

/// Serve counters as they travel on the wire. `shards` is 1 from a single
/// server and the fleet size from a router.
struct WireStatsReply {
  uint32_t shards = 0;
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t sets_registered = 0;
  uint64_t deltas = 0;         ///< delta requests answered kOk (v4)
  uint64_t delta_splices = 0;  ///< deltas served by incremental splice (v4)
  uint64_t sets_evicted = 0;   ///< registry entries evicted by budget (v4)
  /// Pixel columns recomputed by spliced deltas, cumulative (v5). With
  /// the splice's dirty-rect clipping this is the x-footprint of the
  /// recomputed area; columns_total * splices bounds it from above.
  uint64_t delta_dirty_columns = 0;
  uint64_t tile_requests = 0;   ///< tile fragment requests answered (v6)
  uint64_t tile_fragments = 0;  ///< ... of which kOk with a fragment (v6)
};

/// Serializes a stats request (magic + version only).
std::vector<uint8_t> EncodeStatsRequest();

/// True iff the payload *starts like* a stats request (magic check only —
/// cheap routing peek; full validation is DecodeStatsRequest).
bool IsStatsRequest(std::span<const uint8_t> bytes);

/// Validates a stats request strictly (magic, version, reserved bytes,
/// exact length).
Status DecodeStatsRequest(std::span<const uint8_t> bytes);

/// Serializes a stats response.
std::vector<uint8_t> EncodeStatsResponse(const WireStatsReply& reply);

/// Parses and validates a stats response.
std::optional<WireStatsReply> DecodeStatsResponse(
    std::span<const uint8_t> bytes, std::string* error);

/// Writes one [u32 LE length][payload] frame. False on I/O failure or a
/// payload over kMaxFramePayloadBytes.
bool WriteFrame(std::FILE* out, std::span<const uint8_t> payload);

/// Reads one frame. Returns the payload, or nullopt with `*error` empty
/// on clean EOF (no more frames) and non-empty on a truncated or
/// oversized frame.
std::optional<std::vector<uint8_t>> ReadFrame(std::FILE* in,
                                              std::string* error);

/// What a router learns from a frame header without a full decode.
struct WireRouteInfo {
  /// The hash to partition by: set_hash of a plain or tile request,
  /// base_hash of a delta (the shard holding the base must apply the
  /// edits).
  uint64_t route_hash = 0;
  bool is_delta = false;
  /// The derived set's content hash (deltas only) — the hash future
  /// requests will arrive under, which the router must pin to the same
  /// shard the delta lands on.
  uint64_t derived_hash = 0;
  bool is_tile = false;
  /// The requested tile id (tile requests only) — what a by-tile router
  /// partitions by instead of the hash.
  uint32_t tile_id = 0;
};

/// The routing peek: checks the magic/version and reads the hash fields
/// at their fixed header offsets, without a full decode. Covers plain,
/// delta and tile request frames; nullopt for anything else (stats
/// requests, garbage, short payloads) — the caller decides whether to fan
/// out or answer an error itself.
std::optional<WireRouteInfo> PeekRouteInfo(std::span<const uint8_t> bytes);

}  // namespace rnnhm

#endif  // RNNHM_QUERY_WIRE_H_
