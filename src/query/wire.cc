#include "query/wire.h"

#include <cstring>
#include <exception>
#include <iterator>
#include <utility>

#include "common/little_endian.h"
#include "heatmap/serialization.h"
#include "query/wire_layout.h"

namespace rnnhm {

namespace {

constexpr char kRequestMagic[4] = {'R', 'N', 'W', 'Q'};
constexpr char kResponseMagic[4] = {'R', 'N', 'W', 'S'};
constexpr char kStatsRequestMagic[4] = {'R', 'N', 'W', 'T'};
constexpr char kStatsResponseMagic[4] = {'R', 'N', 'W', 'U'};
constexpr char kDeltaRequestMagic[4] = {'R', 'N', 'W', 'D'};
constexpr char kTileRequestMagic[4] = {'R', 'N', 'W', 'L'};
constexpr uint8_t kFlagInlineCircles = 0x1;
// Sizes and peek offsets come from the declarative layout tables; the
// static_assert battery below keeps this codec and those tables in
// lockstep (tools/check_wire_layout.py independently re-checks both
// against the Put* sequences in this file).
constexpr size_t kCircleBytes = wire_layout::kCircleBytes;
constexpr size_t kRequestHeaderBytes = wire_layout::kRequestHeaderBytes;
constexpr size_t kResponseHeaderBytes = wire_layout::kResponseHeaderBytes;
// The set_hash field's fixed offset in a request header. A delta request
// shares this prefix layout with base_hash in the set_hash slot (so the
// routing peek reads one offset for both) followed by new_hash; a tile
// request shares the whole plain header (through the circle count) and
// appends the tile grid + id before the circle payload.
constexpr size_t kRequestSetHashOffset = wire_layout::kRequestSetHashOffset;
constexpr size_t kDeltaNewHashOffset = wire_layout::kDeltaNewHashOffset;
constexpr size_t kDeltaHeaderBytes = wire_layout::kDeltaHeaderBytes;
constexpr size_t kTileIdOffset = wire_layout::kTileIdOffset;
constexpr size_t kTileHeaderBytes = wire_layout::kTileHeaderBytes;
constexpr size_t kStatsRequestBytes = wire_layout::kStatsRequestBytes;
constexpr size_t kStatsResponseBytes = wire_layout::kStatsResponseBytes;

// --- Wire-layout lint (compile time) --------------------------------------
// Every layout table must be gap-free from offset 0 and sum to its
// declared frame size; the offsets this codec hard-wires (routing peeks,
// shared prefixes) must match the tables field-for-field. A perturbed
// offset in either place is a build break, not a protocol corruption.

namespace wl = wire_layout;

static_assert(wl::Contiguous(wl::kRequestLayout) &&
              wl::TotalBytes(wl::kRequestLayout) == kRequestHeaderBytes);
static_assert(wl::Contiguous(wl::kResponseLayout) &&
              wl::TotalBytes(wl::kResponseLayout) == kResponseHeaderBytes);
static_assert(wl::Contiguous(wl::kDeltaLayout) &&
              wl::TotalBytes(wl::kDeltaLayout) == kDeltaHeaderBytes);
static_assert(wl::Contiguous(wl::kTileLayout) &&
              wl::TotalBytes(wl::kTileLayout) == kTileHeaderBytes);
static_assert(wl::Contiguous(wl::kStatsRequestLayout) &&
              wl::TotalBytes(wl::kStatsRequestLayout) == kStatsRequestBytes);
static_assert(wl::Contiguous(wl::kStatsResponseLayout) &&
              wl::TotalBytes(wl::kStatsResponseLayout) == kStatsResponseBytes);
static_assert(wl::Contiguous(wl::kCircleLayout) &&
              wl::TotalBytes(wl::kCircleLayout) == kCircleBytes);
static_assert(wl::Contiguous(wl::kGridLayout) &&
              wl::TotalBytes(wl::kGridLayout) == wl::kGridHeaderBytes &&
              wl::kGridHeaderBytes == kHeatmapHeaderBytes);

// Routing peeks: PeekRouteInfo reads these raw offsets without decoding,
// so they must match the tables exactly.
static_assert(wl::OffsetOf(wl::kRequestLayout, "set_hash") ==
              kRequestSetHashOffset);
static_assert(wl::OffsetOf(wl::kDeltaLayout, "base_hash") ==
              kRequestSetHashOffset);
static_assert(wl::OffsetOf(wl::kDeltaLayout, "new_hash") ==
              kDeltaNewHashOffset);
static_assert(wl::OffsetOf(wl::kTileLayout, "set_hash") ==
              kRequestSetHashOffset);
static_assert(wl::OffsetOf(wl::kTileLayout, "tile_id") == kTileIdOffset);

// Shared-prefix contracts: a delta is a request with base_hash in the
// set_hash slot; a tile request is a whole request plus the tile grid.
static_assert(wl::OffsetOf(wl::kRequestLayout, "circle_count") ==
              wl::OffsetOf(wl::kTileLayout, "circle_count"));
static_assert(wl::OffsetOf(wl::kRequestLayout, "set_hash") ==
              wl::OffsetOf(wl::kDeltaLayout, "base_hash"));
static_assert(wl::OffsetOf(wl::kTileLayout, "tile_rows") ==
              kRequestHeaderBytes);

// The current protocol version must be the last history row, and its
// published sizes must be the live ones.
static_assert(wl::kWireVersionHistory[std::size(wl::kWireVersionHistory) -
                                      1]
                      .version == kWireVersion &&
              wl::kWireVersionHistory[std::size(wl::kWireVersionHistory) -
                                      1]
                      .request_header_bytes == kRequestHeaderBytes);
static_assert(wl::kWireVersionHistory[std::size(wl::kWireVersionHistory) -
                                      1]
                  .stats_response_bytes == kStatsResponseBytes);

// --- Little-endian reads (explicit, host-endianness independent) ----------

// Bounds-checked sequential reader; the first short read latches !ok and
// every later Get returns zero, so decoders can read a whole header and
// test ok() once.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return ok_ ? size_ - pos_ : 0; }

  uint8_t U8() {
    uint8_t v = 0;
    Raw(&v, 1);
    return v;
  }
  uint16_t U16() {
    uint8_t b[2] = {};
    Raw(b, 2);
    return static_cast<uint16_t>(b[0] | (b[1] << 8));
  }
  uint32_t U32() {
    uint8_t b[4] = {};
    Raw(b, 4);
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }
  uint64_t U64() {
    uint8_t b[8] = {};
    Raw(b, 8);
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool Magic(const char expected[4]) {
    uint8_t b[4] = {};
    Raw(b, 4);
    return ok_ && std::memcmp(b, expected, 4) == 0;
  }
  void Raw(void* dst, size_t len) {
    if (!ok_ || size_ - pos_ < len) {
      ok_ = false;
      std::memset(dst, 0, len);
      return;
    }
    std::memcpy(dst, data_ + pos_, len);
    pos_ += len;
  }
  const uint8_t* cursor() const { return data_ + pos_; }
  void Skip(size_t len) {
    if (!ok_ || size_ - pos_ < len) {
      ok_ = false;
      return;
    }
    pos_ += len;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

std::nullopt_t Fail(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
  return std::nullopt;
}

std::nullopt_t Fail(Status* status, std::string message) {
  if (status != nullptr) *status = Status::InvalidArgument(std::move(message));
  return std::nullopt;
}

// --- Request decoding -----------------------------------------------------
// Plain, tile and delta frames open with the same header prefix (magic,
// version, metric, flags, reserved, raster size, domain, the 64-bit hash
// slot); plain and tile frames also share the circle count and the inline
// payload. One reader and one validator serve all three; `noun` words
// each kind's error messages. The helpers return the error message, empty
// on success.

struct RequestKind {
  const char* magic;
  const char* noun;
  uint8_t allowed_flags;
  bool has_tile_fields;  // tile grid + id between count and payload
};

constexpr RequestKind kPlainKind{kRequestMagic, "request", kFlagInlineCircles,
                                 false};
constexpr RequestKind kTileKind{kTileRequestMagic, "tile request",
                                kFlagInlineCircles, true};
constexpr RequestKind kDeltaKind{kDeltaRequestMagic, "delta request", 0,
                                 false};

struct RequestPrefix {
  uint8_t metric = 0;
  uint8_t flags = 0;
  uint16_t reserved = 0;
  int32_t width = 0;
  int32_t height = 0;
  Rect domain;
  uint64_t hash = 0;  // set_hash; base_hash of a delta
};

// Reads the shared prefix; fails only on a wrong magic or version. The
// fields are validated by CheckRequestPrefix once the caller has read the
// rest of its fixed header, so a truncation anywhere in the header
// reports one error.
std::string ReadRequestPrefix(Reader& r, const RequestKind& kind,
                              RequestPrefix* p) {
  if (!r.Magic(kind.magic)) return std::string("bad ") + kind.noun + " magic";
  if (r.U32() != kWireVersion) return "unsupported wire version";
  p->metric = r.U8();
  p->flags = r.U8();
  p->reserved = r.U16();
  p->width = r.I32();
  p->height = r.I32();
  p->domain.lo.x = r.F64();
  p->domain.lo.y = r.F64();
  p->domain.hi.x = r.F64();
  p->domain.hi.y = r.F64();
  p->hash = r.U64();
  return {};
}

std::string CheckRequestPrefix(const Reader& r, const RequestKind& kind,
                               const RequestPrefix& p) {
  if (!r.ok()) return std::string(kind.noun) + " header truncated";
  if (p.metric > static_cast<uint8_t>(Metric::kL2)) return "unknown metric";
  if ((p.flags & ~kind.allowed_flags) != 0 || p.reserved != 0) {
    return std::string("reserved ") + kind.noun + " bits set";
  }
  if (p.width <= 0 || p.height <= 0) return "non-positive raster size";
  if (!(p.domain.lo.x < p.domain.hi.x) || !(p.domain.lo.y < p.domain.hi.y)) {
    return "degenerate request domain";
  }
  return {};
}

// Decodes a plain or tile frame (per `kind`) into `*request`.
std::string DecodeCircleRequest(std::span<const uint8_t> bytes,
                                const RequestKind& kind,
                                WireTileRequest* request) {
  Reader r(bytes.data(), bytes.size());
  RequestPrefix prefix;
  if (std::string error = ReadRequestPrefix(r, kind, &prefix);
      !error.empty()) {
    return error;
  }
  const uint64_t count = r.U64();
  if (kind.has_tile_fields) {
    request->tile_rows = r.I32();
    request->tile_cols = r.I32();
    request->tile_id = r.I32();
  }
  if (std::string error = CheckRequestPrefix(r, kind, prefix);
      !error.empty()) {
    return error;
  }
  request->metric = static_cast<Metric>(prefix.metric);
  request->set_hash = prefix.hash;
  request->inline_circles = (prefix.flags & kFlagInlineCircles) != 0;
  request->domain = prefix.domain;
  request->width = prefix.width;
  request->height = prefix.height;
  if (kind.has_tile_fields) {
    if (request->tile_rows < 1 || request->tile_cols < 1 ||
        request->tile_rows > kMaxTileGridSide ||
        request->tile_cols > kMaxTileGridSide) {
      return "tile grid outside the wire ceiling";
    }
    if (request->tile_id < 0 ||
        request->tile_id >= request->tile_rows * request->tile_cols) {
      return "tile id outside the tile grid";
    }
  }
  if (!request->inline_circles) {
    if (count != 0) {
      return std::string("by-reference ") + kind.noun + " carries circles";
    }
    if (r.remaining() != 0) {
      return std::string("trailing ") + kind.noun + " bytes";
    }
    return {};
  }
  if (r.remaining() / kCircleBytes < count ||
      r.remaining() != count * kCircleBytes) {
    return "circle payload size mismatch";
  }
  request->circles.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    NnCircle c;
    c.center.x = r.F64();
    c.center.y = r.F64();
    c.radius = r.F64();
    c.client = r.I32();
    request->circles.push_back(c);
  }
  if (!r.ok()) return "circle payload truncated";
  if (HashCircleSet(request->circles, request->metric) != request->set_hash) {
    return "circle payload does not match its content hash";
  }
  return {};
}

}  // namespace

StatusCode FromWireStatus(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return StatusCode::kOk;
    case WireStatus::kMalformedRequest:
      return StatusCode::kInvalidArgument;
    case WireStatus::kUnknownCircleSet:
      return StatusCode::kNotFound;
    case WireStatus::kTooLarge:
      return StatusCode::kResourceExhausted;
    case WireStatus::kServerError:
      break;
  }
  return StatusCode::kInternal;
}

WireStatus ToWireStatus(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return WireStatus::kOk;
    case StatusCode::kInvalidArgument:
      return WireStatus::kMalformedRequest;
    case StatusCode::kResourceExhausted:
      return WireStatus::kTooLarge;
    case StatusCode::kNotFound:
      return WireStatus::kUnknownCircleSet;
    case StatusCode::kInternal:
    case StatusCode::kUnavailable:
    case StatusCode::kDataLoss:
    case StatusCode::kDeadlineExceeded:
      break;
  }
  return WireStatus::kServerError;
}

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "ok";
    case WireStatus::kMalformedRequest:
      return "malformed-request";
    case WireStatus::kUnknownCircleSet:
      return "unknown-circle-set";
    case WireStatus::kServerError:
      return "server-error";
    case WireStatus::kTooLarge:
      return "too-large";
  }
  return "unknown";
}

WireRequest MakeWireRequest(const CircleSetSnapshot& set, const Rect& domain,
                            int width, int height, bool include_circles) {
  WireRequest request;
  request.metric = set.metric();
  request.set_hash = set.content_hash();
  request.inline_circles = include_circles;
  if (include_circles) request.circles = set.circles();
  request.domain = domain;
  request.width = width;
  request.height = height;
  return request;
}

std::vector<uint8_t> EncodeRequest(const WireRequest& request) {
  std::vector<uint8_t> out;
  out.reserve(kRequestHeaderBytes + request.circles.size() * kCircleBytes);
  PutMagic(&out, kRequestMagic);
  PutU32(&out, kWireVersion);
  out.push_back(static_cast<uint8_t>(request.metric));
  out.push_back(request.inline_circles ? kFlagInlineCircles : 0);
  PutU16(&out, 0);  // reserved
  PutI32(&out, request.width);
  PutI32(&out, request.height);
  PutF64(&out, request.domain.lo.x);
  PutF64(&out, request.domain.lo.y);
  PutF64(&out, request.domain.hi.x);
  PutF64(&out, request.domain.hi.y);
  PutU64(&out, request.set_hash);
  PutU64(&out, request.inline_circles
                   ? static_cast<uint64_t>(request.circles.size())
                   : 0);
  if (request.inline_circles) {
    for (const NnCircle& c : request.circles) {
      PutF64(&out, c.center.x);
      PutF64(&out, c.center.y);
      PutF64(&out, c.radius);
      PutI32(&out, c.client);
    }
  }
  return out;
}

std::optional<WireRequest> DecodeRequest(std::span<const uint8_t> bytes,
                                         Status* status) {
  if (status != nullptr) *status = Status::Ok();
  WireTileRequest request;
  if (std::string error = DecodeCircleRequest(bytes, kPlainKind, &request);
      !error.empty()) {
    return Fail(status, std::move(error));
  }
  return WireRequest(std::move(request));
}

std::optional<WireRouteInfo> PeekRouteInfo(std::span<const uint8_t> bytes) {
  if (bytes.size() < kRequestSetHashOffset + sizeof(uint64_t)) {
    return std::nullopt;
  }
  const bool is_request = std::memcmp(bytes.data(), kRequestMagic, 4) == 0;
  const bool is_delta = std::memcmp(bytes.data(), kDeltaRequestMagic, 4) == 0;
  const bool is_tile = std::memcmp(bytes.data(), kTileRequestMagic, 4) == 0;
  if (!is_request && !is_delta && !is_tile) return std::nullopt;
  Reader version(bytes.data() + 4, 4);
  if (version.U32() != kWireVersion) return std::nullopt;
  WireRouteInfo info;
  info.is_delta = is_delta;
  info.is_tile = is_tile;
  Reader hash(bytes.data() + kRequestSetHashOffset, sizeof(uint64_t));
  info.route_hash = hash.U64();
  if (is_delta) {
    if (bytes.size() < kDeltaNewHashOffset + sizeof(uint64_t)) {
      return std::nullopt;
    }
    Reader derived(bytes.data() + kDeltaNewHashOffset, sizeof(uint64_t));
    info.derived_hash = derived.U64();
  }
  if (is_tile) {
    if (bytes.size() < kTileIdOffset + sizeof(uint32_t)) {
      return std::nullopt;
    }
    Reader tile(bytes.data() + kTileIdOffset, sizeof(uint32_t));
    info.tile_id = tile.U32();
  }
  return info;
}

std::vector<uint8_t> EncodeDeltaRequest(const WireDeltaRequest& request) {
  std::vector<uint8_t> out;
  out.reserve(kDeltaHeaderBytes +
              request.edits.size() * (1 + sizeof(uint32_t) + kCircleBytes));
  PutMagic(&out, kDeltaRequestMagic);
  PutU32(&out, kWireVersion);
  out.push_back(static_cast<uint8_t>(request.metric));
  out.push_back(0);  // flags (none defined for deltas)
  PutU16(&out, 0);   // reserved
  PutI32(&out, request.width);
  PutI32(&out, request.height);
  PutF64(&out, request.domain.lo.x);
  PutF64(&out, request.domain.lo.y);
  PutF64(&out, request.domain.hi.x);
  PutF64(&out, request.domain.hi.y);
  PutU64(&out, request.base_hash);
  PutU64(&out, request.new_hash);
  PutU64(&out, static_cast<uint64_t>(request.edits.size()));
  for (const CircleSetEdit& edit : request.edits) {
    out.push_back(static_cast<uint8_t>(edit.kind));
    switch (edit.kind) {
      case CircleSetEdit::Kind::kReplace:
        PutU32(&out, edit.index);
        PutF64(&out, edit.circle.center.x);
        PutF64(&out, edit.circle.center.y);
        PutF64(&out, edit.circle.radius);
        PutI32(&out, edit.circle.client);
        break;
      case CircleSetEdit::Kind::kAppend:
        PutF64(&out, edit.circle.center.x);
        PutF64(&out, edit.circle.center.y);
        PutF64(&out, edit.circle.radius);
        PutI32(&out, edit.circle.client);
        break;
      case CircleSetEdit::Kind::kSwapRemove:
        PutU32(&out, edit.index);
        break;
    }
  }
  return out;
}

bool IsDeltaRequest(std::span<const uint8_t> bytes) {
  return bytes.size() >= 4 &&
         std::memcmp(bytes.data(), kDeltaRequestMagic, 4) == 0;
}

std::optional<WireDeltaRequest> DecodeDeltaRequest(
    std::span<const uint8_t> bytes, Status* status) {
  if (status != nullptr) *status = Status::Ok();
  Reader r(bytes.data(), bytes.size());
  RequestPrefix prefix;
  if (std::string error = ReadRequestPrefix(r, kDeltaKind, &prefix);
      !error.empty()) {
    return Fail(status, std::move(error));
  }
  WireDeltaRequest request;
  request.new_hash = r.U64();
  const uint64_t count = r.U64();
  if (std::string error = CheckRequestPrefix(r, kDeltaKind, prefix);
      !error.empty()) {
    return Fail(status, std::move(error));
  }
  request.metric = static_cast<Metric>(prefix.metric);
  request.base_hash = prefix.hash;
  request.domain = prefix.domain;
  request.width = prefix.width;
  request.height = prefix.height;
  // Every edit is at least one op byte, so a count over the remaining
  // payload can never be satisfied — reject before reserving memory.
  if (count > r.remaining()) {
    return Fail(status, "delta edit count over the payload size");
  }
  request.edits.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    CircleSetEdit edit;
    const uint8_t kind = r.U8();
    if (!r.ok()) return Fail(status, "delta edit list truncated");
    if (kind > static_cast<uint8_t>(CircleSetEdit::Kind::kSwapRemove)) {
      return Fail(status, "unknown delta edit kind");
    }
    edit.kind = static_cast<CircleSetEdit::Kind>(kind);
    switch (edit.kind) {
      case CircleSetEdit::Kind::kReplace:
        edit.index = r.U32();
        edit.circle.center.x = r.F64();
        edit.circle.center.y = r.F64();
        edit.circle.radius = r.F64();
        edit.circle.client = r.I32();
        break;
      case CircleSetEdit::Kind::kAppend:
        edit.circle.center.x = r.F64();
        edit.circle.center.y = r.F64();
        edit.circle.radius = r.F64();
        edit.circle.client = r.I32();
        break;
      case CircleSetEdit::Kind::kSwapRemove:
        edit.index = r.U32();
        break;
    }
    if (!r.ok()) return Fail(status, "delta edit list truncated");
    request.edits.push_back(edit);
  }
  if (r.remaining() != 0) return Fail(status, "trailing delta request bytes");
  return request;
}

WireTileRequest MakeWireTileRequest(const CircleSetSnapshot& set,
                                    const Rect& domain, int width, int height,
                                    bool include_circles, int tile_rows,
                                    int tile_cols, int tile_id) {
  return WireTileRequest{
      MakeWireRequest(set, domain, width, height, include_circles),
      tile_rows, tile_cols, tile_id};
}

std::vector<uint8_t> EncodeTileRequest(const WireTileRequest& request) {
  std::vector<uint8_t> out;
  out.reserve(kTileHeaderBytes + request.circles.size() * kCircleBytes);
  PutMagic(&out, kTileRequestMagic);
  PutU32(&out, kWireVersion);
  out.push_back(static_cast<uint8_t>(request.metric));
  out.push_back(request.inline_circles ? kFlagInlineCircles : 0);
  PutU16(&out, 0);  // reserved
  PutI32(&out, request.width);
  PutI32(&out, request.height);
  PutF64(&out, request.domain.lo.x);
  PutF64(&out, request.domain.lo.y);
  PutF64(&out, request.domain.hi.x);
  PutF64(&out, request.domain.hi.y);
  PutU64(&out, request.set_hash);
  PutU64(&out, request.inline_circles
                   ? static_cast<uint64_t>(request.circles.size())
                   : 0);
  PutI32(&out, request.tile_rows);
  PutI32(&out, request.tile_cols);
  PutI32(&out, request.tile_id);
  if (request.inline_circles) {
    for (const NnCircle& c : request.circles) {
      PutF64(&out, c.center.x);
      PutF64(&out, c.center.y);
      PutF64(&out, c.radius);
      PutI32(&out, c.client);
    }
  }
  return out;
}

bool IsTileRequest(std::span<const uint8_t> bytes) {
  return bytes.size() >= 4 &&
         std::memcmp(bytes.data(), kTileRequestMagic, 4) == 0;
}

std::optional<WireTileRequest> DecodeTileRequest(std::span<const uint8_t> bytes,
                                                 Status* status) {
  if (status != nullptr) *status = Status::Ok();
  WireTileRequest request;
  if (std::string error = DecodeCircleRequest(bytes, kTileKind, &request);
      !error.empty()) {
    return Fail(status, std::move(error));
  }
  return request;
}

namespace {

void EncodeResponseHeader(std::vector<uint8_t>* out, WireStatus status,
                          bool from_cache, const std::string& message) {
  PutMagic(out, kResponseMagic);
  PutU32(out, kWireVersion);
  out->push_back(static_cast<uint8_t>(status));
  out->push_back(from_cache ? 1 : 0);
  PutU16(out, 0);  // reserved
  PutU32(out, static_cast<uint32_t>(message.size()));
  out->insert(out->end(), message.begin(), message.end());
}

}  // namespace

std::vector<uint8_t> EncodeResponse(const HeatmapResponse& response,
                                    bool from_cache,
                                    const SweepCacheStats& cache) {
  std::vector<uint8_t> out;
  // Room for the narrowest grid lane; EncodeHeatmap grows it on a miss.
  out.reserve(kResponseHeaderBytes +
              wire_layout::kResponseStatsWords * sizeof(uint64_t) +
              kHeatmapHeaderBytes + response.grid.values().size());
  EncodeResponseHeader(&out, WireStatus::kOk, from_cache, "");
  PutU64(&out, response.stats.num_circles);
  PutU64(&out, response.stats.num_skipped_circles);
  PutU64(&out, response.stats.num_events);
  PutU64(&out, response.stats.num_labelings);
  PutU64(&out, response.stats.num_merged_intervals);
  PutU64(&out, response.stats.num_elements_walked);
  PutU64(&out, response.l2_stats.num_circles);
  PutU64(&out, response.l2_stats.num_skipped_circles);
  PutU64(&out, response.l2_stats.num_events);
  PutU64(&out, response.l2_stats.num_cross_events);
  PutU64(&out, response.l2_stats.num_labelings);
  PutU64(&out, cache.hits);
  PutU64(&out, cache.misses);
  PutU64(&out, cache.insertions);
  PutU64(&out, cache.evictions);
  PutU64(&out, cache.entries);
  PutU64(&out, cache.bytes);
  EncodeHeatmap(response.grid, &out);
  return out;
}

std::vector<uint8_t> EncodeErrorResponse(WireStatus status,
                                         const std::string& message) {
  std::vector<uint8_t> out;
  EncodeResponseHeader(&out, status, /*from_cache=*/false, message);
  return out;
}

std::optional<WireResponse> DecodeResponse(std::span<const uint8_t> bytes,
                                           std::string* error) {
  Reader r(bytes.data(), bytes.size());
  if (!r.Magic(kResponseMagic)) return Fail(error, "bad response magic");
  if (r.U32() != kWireVersion) {
    return Fail(error, "unsupported wire version");
  }
  const uint8_t status = r.U8();
  const uint8_t from_cache = r.U8();
  const uint16_t reserved = r.U16();
  const uint32_t error_len = r.U32();
  if (!r.ok()) return Fail(error, "response header truncated");
  if (status > static_cast<uint8_t>(WireStatus::kTooLarge)) {
    return Fail(error, "unknown response status");
  }
  if (reserved != 0 || from_cache > 1) {
    return Fail(error, "reserved response bits set");
  }
  WireResponse response;
  response.status = static_cast<WireStatus>(status);
  if (error_len > 0) {
    if (r.remaining() < error_len) {
      return Fail(error, "response error message truncated");
    }
    response.error.assign(reinterpret_cast<const char*>(r.cursor()),
                          error_len);
    r.Skip(error_len);
  }
  if (response.status != WireStatus::kOk) {
    if (r.remaining() != 0) return Fail(error, "trailing response bytes");
    return response;
  }
  if (error_len != 0) {
    return Fail(error, "ok response carries an error message");
  }
  CrestStats stats;
  stats.num_circles = r.U64();
  stats.num_skipped_circles = r.U64();
  stats.num_events = r.U64();
  stats.num_labelings = r.U64();
  stats.num_merged_intervals = r.U64();
  stats.num_elements_walked = r.U64();
  CrestL2Stats l2_stats;
  l2_stats.num_circles = r.U64();
  l2_stats.num_skipped_circles = r.U64();
  l2_stats.num_events = r.U64();
  l2_stats.num_cross_events = r.U64();
  l2_stats.num_labelings = r.U64();
  SweepCacheStats cache;
  cache.hits = r.U64();
  cache.misses = r.U64();
  cache.insertions = r.U64();
  cache.evictions = r.U64();
  cache.entries = r.U64();
  cache.bytes = r.U64();
  if (!r.ok()) return Fail(error, "response counters truncated");
  size_t consumed = 0;
  std::string grid_error;
  std::optional<HeatmapGrid> grid =
      DecodeHeatmap(r.cursor(), r.remaining(), &consumed, &grid_error);
  if (!grid.has_value()) {
    if (error != nullptr) *error = "response grid: " + grid_error;
    return std::nullopt;
  }
  if (consumed != r.remaining()) {
    return Fail(error, "trailing response bytes");
  }
  response.response.emplace(HeatmapResponse{
      std::move(*grid), stats, l2_stats, from_cache != 0, cache});
  return response;
}

std::vector<uint8_t> EncodeStatsRequest() {
  std::vector<uint8_t> out;
  out.reserve(kStatsRequestBytes);
  PutMagic(&out, kStatsRequestMagic);
  PutU32(&out, kWireVersion);
  PutU32(&out, 0);  // reserved
  return out;
}

bool IsStatsRequest(std::span<const uint8_t> bytes) {
  return bytes.size() >= 4 &&
         std::memcmp(bytes.data(), kStatsRequestMagic, 4) == 0;
}

Status DecodeStatsRequest(std::span<const uint8_t> bytes) {
  Reader r(bytes.data(), bytes.size());
  if (!r.Magic(kStatsRequestMagic)) {
    return Status::InvalidArgument("bad stats request magic");
  }
  if (r.U32() != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version");
  }
  const uint32_t reserved = r.U32();
  if (!r.ok()) return Status::InvalidArgument("stats request truncated");
  if (reserved != 0) {
    return Status::InvalidArgument("reserved stats request bits set");
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("trailing stats request bytes");
  }
  return Status::Ok();
}

std::vector<uint8_t> EncodeStatsResponse(const WireStatsReply& reply) {
  std::vector<uint8_t> out;
  out.reserve(kStatsResponseBytes);
  PutMagic(&out, kStatsResponseMagic);
  PutU32(&out, kWireVersion);
  PutU32(&out, reply.shards);
  PutU64(&out, reply.requests);
  PutU64(&out, reply.ok);
  PutU64(&out, reply.errors);
  PutU64(&out, reply.sets_registered);
  PutU64(&out, reply.deltas);
  PutU64(&out, reply.delta_splices);
  PutU64(&out, reply.sets_evicted);
  PutU64(&out, reply.delta_dirty_columns);
  PutU64(&out, reply.tile_requests);
  PutU64(&out, reply.tile_fragments);
  return out;
}

std::optional<WireStatsReply> DecodeStatsResponse(
    std::span<const uint8_t> bytes, std::string* error) {
  Reader r(bytes.data(), bytes.size());
  if (!r.Magic(kStatsResponseMagic)) {
    return Fail(error, "bad stats response magic");
  }
  if (r.U32() != kWireVersion) {
    return Fail(error, "unsupported wire version");
  }
  WireStatsReply reply;
  reply.shards = r.U32();
  reply.requests = r.U64();
  reply.ok = r.U64();
  reply.errors = r.U64();
  reply.sets_registered = r.U64();
  reply.deltas = r.U64();
  reply.delta_splices = r.U64();
  reply.sets_evicted = r.U64();
  reply.delta_dirty_columns = r.U64();
  reply.tile_requests = r.U64();
  reply.tile_fragments = r.U64();
  if (!r.ok()) return Fail(error, "stats response truncated");
  if (reply.shards == 0) return Fail(error, "stats response with no shards");
  if (r.remaining() != 0) {
    return Fail(error, "trailing stats response bytes");
  }
  return reply;
}

bool WriteFrame(std::FILE* out, std::span<const uint8_t> payload) {
  if (payload.size() > kMaxFramePayloadBytes) return false;
  std::vector<uint8_t> prefix;
  PutU32(&prefix, static_cast<uint32_t>(payload.size()));
  if (std::fwrite(prefix.data(), 1, prefix.size(), out) != prefix.size()) {
    return false;
  }
  return payload.empty() ||
         std::fwrite(payload.data(), 1, payload.size(), out) ==
             payload.size();
}

std::optional<std::vector<uint8_t>> ReadFrame(std::FILE* in,
                                              std::string* error) {
  if (error != nullptr) error->clear();
  uint8_t prefix[4];
  const size_t got = std::fread(prefix, 1, sizeof(prefix), in);
  if (got == 0) {
    if (std::ferror(in) != 0) {
      Fail(error, "read error on frame stream");
    }
    return std::nullopt;  // clean EOF when no stream error
  }
  if (got != sizeof(prefix)) {
    Fail(error, "truncated frame length prefix");
    return std::nullopt;
  }
  uint32_t length = 0;
  for (int i = 3; i >= 0; --i) length = (length << 8) | prefix[i];
  if (length > kMaxFramePayloadBytes) {
    Fail(error, "frame payload over the size ceiling");
    return std::nullopt;
  }
  std::vector<uint8_t> payload(length);
  if (length > 0 &&
      std::fread(payload.data(), 1, length, in) != length) {
    Fail(error, "truncated frame payload");
    return std::nullopt;
  }
  return payload;
}

}  // namespace rnnhm
