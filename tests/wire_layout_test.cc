// The runtime half of the wire-layout lint: the static_asserts in
// wire.cc prove the layout tables agree with the codec's constants, and
// tools/check_wire_layout.py re-derives the tables from the encoder
// text; this test closes the loop by encoding real frames and checking
// that the bytes land exactly where src/query/wire_layout.h says —
// field by field, and for every published version in the history.
#include "query/wire_layout.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "heatmap/serialization.h"
#include "query/wire.h"

namespace rnnhm {
namespace {

namespace wl = wire_layout;

// Little-endian reads at table offsets — deliberately independent of the
// codec's own Reader so a codec bug cannot cancel out in this test.
uint64_t ReadLe(std::span<const uint8_t> bytes, size_t offset, size_t size) {
  uint64_t v = 0;
  for (size_t i = 0; i < size; ++i) {
    v |= static_cast<uint64_t>(bytes[offset + i]) << (8 * i);
  }
  return v;
}

double ReadF64(std::span<const uint8_t> bytes, size_t offset) {
  const uint64_t bits = ReadLe(bytes, offset, 8);
  double out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

template <size_t N>
size_t OffsetOf(const wl::WireField (&fields)[N], const std::string& name) {
  for (const wl::WireField& f : fields) {
    if (name == f.name) return f.offset;
  }
  ADD_FAILURE() << "no field named " << name;
  return 0;
}

std::string MagicAt(std::span<const uint8_t> bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()), 4);
}

NnCircle TestCircle(int client) {
  return NnCircle{{0.25 * client, -0.5 * client}, 0.125 + client, client};
}

// --- Published sizes, all versions ----------------------------------------

TEST(WireLayoutTest, VersionHistoryIsAppendOnlyAndEndsAtLiveVersion) {
  constexpr size_t n = std::size(wl::kWireVersionHistory);
  ASSERT_GE(n, 6u);  // v2..v7 at minimum
  EXPECT_EQ(wl::kWireVersionHistory[0].version, 2u);
  EXPECT_EQ(wl::kWireVersionHistory[n - 1].version, kWireVersion);
  for (size_t i = 1; i < n; ++i) {
    const auto& prev = wl::kWireVersionHistory[i - 1];
    const auto& row = wl::kWireVersionHistory[i];
    EXPECT_EQ(row.version, prev.version + 1) << "history must have no gaps";
    // A frame kind, once published, never shrinks in a later version.
    EXPECT_GE(row.request_header_bytes, prev.request_header_bytes);
    EXPECT_GE(row.response_header_bytes, prev.response_header_bytes);
    EXPECT_GE(row.stats_request_bytes, prev.stats_request_bytes);
    EXPECT_GE(row.stats_response_bytes, prev.stats_response_bytes);
    EXPECT_GE(row.delta_header_bytes, prev.delta_header_bytes);
    EXPECT_GE(row.tile_header_bytes, prev.tile_header_bytes);
  }
}

TEST(WireLayoutTest, PublishedSizesPerVersion) {
  // The exact sizes every deployed version shipped with. These rows are
  // frozen: editing an old row here (or in wire_layout.h) means the
  // protocol history was silently rewritten.
  struct Row {
    uint32_t version;
    size_t request, response, stats_req, stats_resp, delta, tile;
  };
  constexpr Row kExpected[] = {
      {2, 68, 16, 0, 0, 0, 0},    {3, 68, 16, 12, 44, 0, 0},
      {4, 68, 16, 12, 68, 76, 0}, {5, 68, 16, 12, 76, 76, 0},
      {6, 68, 16, 12, 92, 76, 80}, {7, 68, 16, 12, 92, 76, 80},
  };
  ASSERT_EQ(std::size(wl::kWireVersionHistory), std::size(kExpected));
  for (size_t i = 0; i < std::size(kExpected); ++i) {
    const auto& row = wl::kWireVersionHistory[i];
    const Row& want = kExpected[i];
    EXPECT_EQ(row.version, want.version);
    EXPECT_EQ(row.request_header_bytes, want.request);
    EXPECT_EQ(row.response_header_bytes, want.response);
    EXPECT_EQ(row.stats_request_bytes, want.stats_req);
    EXPECT_EQ(row.stats_response_bytes, want.stats_resp);
    EXPECT_EQ(row.delta_header_bytes, want.delta);
    EXPECT_EQ(row.tile_header_bytes, want.tile);
  }
}

// --- Encoded frames vs. the tables ----------------------------------------

TEST(WireLayoutTest, RequestBytesLandAtTableOffsets) {
  WireRequest request;
  request.metric = Metric::kL2;
  request.width = 640;
  request.height = 480;
  request.domain = Rect{{-1.5, -2.5}, {3.5, 4.5}};
  request.set_hash = 0x0123456789abcdefull;
  request.inline_circles = true;
  request.circles = {TestCircle(1), TestCircle(2)};

  const std::vector<uint8_t> bytes = EncodeRequest(request);
  const auto& t = wl::kRequestLayout;
  ASSERT_EQ(bytes.size(),
            wl::kRequestHeaderBytes + 2 * wl::kCircleBytes);
  EXPECT_EQ(MagicAt(bytes), "RNWQ");
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "version"), 4), kWireVersion);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "metric"), 1),
            static_cast<uint64_t>(Metric::kL2));
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "flags"), 1), 1u);  // inline
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "reserved"), 2), 0u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "width"), 4), 640u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "height"), 4), 480u);
  EXPECT_EQ(ReadF64(bytes, OffsetOf(t, "domain_lo_x")), -1.5);
  EXPECT_EQ(ReadF64(bytes, OffsetOf(t, "domain_lo_y")), -2.5);
  EXPECT_EQ(ReadF64(bytes, OffsetOf(t, "domain_hi_x")), 3.5);
  EXPECT_EQ(ReadF64(bytes, OffsetOf(t, "domain_hi_y")), 4.5);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "set_hash"), 8),
            0x0123456789abcdefull);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "circle_count"), 8), 2u);

  // The first circle record, at the table's field offsets.
  const std::span<const uint8_t> circle =
      std::span(bytes).subspan(wl::kRequestHeaderBytes, wl::kCircleBytes);
  const auto& c = wl::kCircleLayout;
  EXPECT_EQ(ReadF64(circle, OffsetOf(c, "center_x")), 0.25);
  EXPECT_EQ(ReadF64(circle, OffsetOf(c, "center_y")), -0.5);
  EXPECT_EQ(ReadF64(circle, OffsetOf(c, "radius")), 1.125);
  EXPECT_EQ(ReadLe(circle, OffsetOf(c, "client"), 4), 1u);
}

TEST(WireLayoutTest, ResponseBytesLandAtTableOffsets) {
  const std::vector<uint8_t> bytes =
      EncodeErrorResponse(WireStatus::kMalformedRequest, "nope");
  const auto& t = wl::kResponseLayout;
  ASSERT_EQ(bytes.size(), wl::kResponseHeaderBytes + 4);
  EXPECT_EQ(MagicAt(bytes), "RNWS");
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "version"), 4), kWireVersion);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "status"), 1),
            static_cast<uint64_t>(WireStatus::kMalformedRequest));
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "from_cache"), 1), 0u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "reserved"), 2), 0u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "error_len"), 4), 4u);
  EXPECT_EQ(std::string(bytes.begin() + wl::kResponseHeaderBytes,
                        bytes.end()),
            "nope");
}

TEST(WireLayoutTest, DeltaBytesLandAtTableOffsetsAndShareRequestPrefix) {
  WireDeltaRequest request;
  request.metric = Metric::kLInf;
  request.width = 32;
  request.height = 16;
  request.domain = Rect{{0.0, 0.0}, {1.0, 1.0}};
  request.base_hash = 0x1111111111111111ull;
  request.new_hash = 0x2222222222222222ull;
  request.edits = {
      CircleSetEdit{CircleSetEdit::Kind::kAppend, 0, TestCircle(3)}};

  const std::vector<uint8_t> bytes = EncodeDeltaRequest(request);
  const auto& t = wl::kDeltaLayout;
  ASSERT_GE(bytes.size(), wl::kDeltaHeaderBytes);
  EXPECT_EQ(MagicAt(bytes), "RNWD");
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "base_hash"), 8),
            0x1111111111111111ull);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "new_hash"), 8),
            0x2222222222222222ull);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "edit_count"), 8), 1u);

  // Routing contract: base_hash occupies the request set_hash slot, so
  // one peek offset serves both frame kinds.
  EXPECT_EQ(OffsetOf(t, "base_hash"),
            OffsetOf(wl::kRequestLayout, "set_hash"));
  const auto route = PeekRouteInfo(bytes);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->route_hash, request.base_hash);
  EXPECT_EQ(ReadLe(bytes, wl::kRequestSetHashOffset, 8),
            request.base_hash);
  EXPECT_EQ(ReadLe(bytes, wl::kDeltaNewHashOffset, 8), request.new_hash);
}

TEST(WireLayoutTest, TileBytesLandAtTableOffsets) {
  WireTileRequest request;
  request.metric = Metric::kL2;
  request.width = 64;
  request.height = 64;
  request.domain = Rect{{0.0, 0.0}, {2.0, 2.0}};
  request.set_hash = 0x3333333333333333ull;
  request.tile_rows = 4;
  request.tile_cols = 8;
  request.tile_id = 17;
  request.inline_circles = true;
  request.circles = {TestCircle(4)};

  const std::vector<uint8_t> bytes = EncodeTileRequest(request);
  const auto& t = wl::kTileLayout;
  ASSERT_EQ(bytes.size(), wl::kTileHeaderBytes + wl::kCircleBytes);
  EXPECT_EQ(MagicAt(bytes), "RNWL");
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "set_hash"), 8),
            0x3333333333333333ull);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "circle_count"), 8), 1u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "tile_rows"), 4), 4u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "tile_cols"), 4), 8u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "tile_id"), 4), 17u);
  // The whole plain-request header is a prefix of the tile header.
  EXPECT_EQ(OffsetOf(t, "tile_rows"), wl::kRequestHeaderBytes);
  EXPECT_EQ(OffsetOf(t, "tile_id"), wl::kTileIdOffset);
}

TEST(WireLayoutTest, StatsBytesLandAtTableOffsets) {
  const std::vector<uint8_t> req = EncodeStatsRequest();
  ASSERT_EQ(req.size(), wl::kStatsRequestBytes);
  EXPECT_EQ(MagicAt(req), "RNWT");
  EXPECT_EQ(ReadLe(req, OffsetOf(wl::kStatsRequestLayout, "version"), 4),
            kWireVersion);

  WireStatsReply reply;
  reply.shards = 3;
  reply.requests = 101;
  reply.ok = 90;
  reply.errors = 11;
  reply.sets_registered = 7;
  reply.deltas = 6;
  reply.delta_splices = 5;
  reply.sets_evicted = 4;
  reply.delta_dirty_columns = 1234;
  reply.tile_requests = 44;
  reply.tile_fragments = 55;
  const std::vector<uint8_t> bytes = EncodeStatsResponse(reply);
  const auto& t = wl::kStatsResponseLayout;
  ASSERT_EQ(bytes.size(), wl::kStatsResponseBytes);
  EXPECT_EQ(MagicAt(bytes), "RNWU");
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "shards"), 4), 3u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "requests"), 8), 101u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "ok"), 8), 90u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "errors"), 8), 11u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "sets_registered"), 8), 7u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "deltas"), 8), 6u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "delta_splices"), 8), 5u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "sets_evicted"), 8), 4u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "delta_dirty_columns"), 8), 1234u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "tile_requests"), 8), 44u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "tile_fragments"), 8), 55u);
}

TEST(WireLayoutTest, GridBytesLandAtTableOffsets) {
  HeatmapGrid grid(3, 2, Rect{{-1.5, -2.5}, {3.5, 4.5}}, 7.0);
  grid.At(2, 1) = 300.0;  // past u8: the u16 lane
  std::vector<uint8_t> bytes;
  EncodeHeatmap(grid, &bytes);
  const auto& t = wl::kGridLayout;
  ASSERT_EQ(bytes.size(), wl::kGridHeaderBytes + 6 * sizeof(uint16_t));
  EXPECT_EQ(MagicAt(bytes), "RNHM");
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "version"), 4), 2u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "width"), 4), 3u);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "height"), 4), 2u);
  EXPECT_EQ(ReadF64(bytes, OffsetOf(t, "domain_lo_x")), -1.5);
  EXPECT_EQ(ReadF64(bytes, OffsetOf(t, "domain_lo_y")), -2.5);
  EXPECT_EQ(ReadF64(bytes, OffsetOf(t, "domain_hi_x")), 3.5);
  EXPECT_EQ(ReadF64(bytes, OffsetOf(t, "domain_hi_y")), 4.5);
  EXPECT_EQ(ReadLe(bytes, OffsetOf(t, "lane"), 4), 2u);
  // The body starts right after the table: row-major u16 values.
  EXPECT_EQ(ReadLe(bytes, wl::kGridHeaderBytes, 2), 7u);
  EXPECT_EQ(ReadLe(bytes, wl::kGridHeaderBytes + 10, 2), 300u);
}

TEST(WireLayoutTest, TablesAreContiguousAndSizedAsDeclared) {
  EXPECT_TRUE(wl::Contiguous(wl::kRequestLayout));
  EXPECT_TRUE(wl::Contiguous(wl::kResponseLayout));
  EXPECT_TRUE(wl::Contiguous(wl::kDeltaLayout));
  EXPECT_TRUE(wl::Contiguous(wl::kTileLayout));
  EXPECT_TRUE(wl::Contiguous(wl::kStatsRequestLayout));
  EXPECT_TRUE(wl::Contiguous(wl::kStatsResponseLayout));
  EXPECT_TRUE(wl::Contiguous(wl::kCircleLayout));
  EXPECT_TRUE(wl::Contiguous(wl::kGridLayout));
  EXPECT_EQ(wl::TotalBytes(wl::kRequestLayout), wl::kRequestHeaderBytes);
  EXPECT_EQ(wl::TotalBytes(wl::kResponseLayout),
            wl::kResponseHeaderBytes);
  EXPECT_EQ(wl::TotalBytes(wl::kDeltaLayout), wl::kDeltaHeaderBytes);
  EXPECT_EQ(wl::TotalBytes(wl::kTileLayout), wl::kTileHeaderBytes);
  EXPECT_EQ(wl::TotalBytes(wl::kStatsRequestLayout),
            wl::kStatsRequestBytes);
  EXPECT_EQ(wl::TotalBytes(wl::kStatsResponseLayout),
            wl::kStatsResponseBytes);
  EXPECT_EQ(wl::TotalBytes(wl::kCircleLayout), wl::kCircleBytes);
  EXPECT_EQ(wl::TotalBytes(wl::kGridLayout), wl::kGridHeaderBytes);
}

}  // namespace
}  // namespace rnnhm
