#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "heatmap/heatmap.h"
#include "heatmap/raster_kernels.h"
#include "heatmap/serialization.h"

namespace rnnhm {
namespace {

TEST(SerializationTest, RoundTripPreservesEverything) {
  Rng rng(3000);
  HeatmapGrid grid(37, 21, Rect{{-2.5, 3.5}, {4.5, 9.5}});
  for (int i = 0; i < 37; ++i) {
    for (int j = 0; j < 21; ++j) grid.At(i, j) = rng.Uniform(-5, 5);
  }
  const std::string path = "/tmp/rnnhm_grid.bin";
  ASSERT_TRUE(SaveHeatmap(grid, path));
  const auto loaded = LoadHeatmap(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->width(), grid.width());
  EXPECT_EQ(loaded->height(), grid.height());
  EXPECT_EQ(loaded->domain(), grid.domain());
  for (int i = 0; i < 37; ++i) {
    for (int j = 0; j < 21; ++j) {
      ASSERT_DOUBLE_EQ(loaded->At(i, j), grid.At(i, j));
    }
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, SerializedSizeMatchesTheFileExactly) {
  for (const auto& [w, h] : {std::pair{1, 1}, {1, 64}, {64, 1}, {37, 21}}) {
    HeatmapGrid grid(w, h, Rect{{0, 0}, {1, 1}}, 0.5);
    const std::string path = "/tmp/rnnhm_size.bin";
    ASSERT_TRUE(SaveHeatmap(grid, path));
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long on_disk = std::ftell(f);
    std::fclose(f);
    EXPECT_EQ(static_cast<size_t>(on_disk), SerializedSizeBytes(grid))
        << w << "x" << h;
    std::remove(path.c_str());
  }
}

// The degenerate shapes the cache must size and round-trip correctly: the
// minimal 1x1 grid and single-row/column strips.
TEST(SerializationTest, DegenerateGridsRoundTrip) {
  Rng rng(3100);
  for (const auto& [w, h] : {std::pair{1, 1}, {1, 48}, {48, 1}}) {
    HeatmapGrid grid(w, h, Rect{{-1e6, -0.25}, {1e6, 0.75}});
    for (int i = 0; i < w; ++i) {
      for (int j = 0; j < h; ++j) grid.At(i, j) = rng.Uniform(-1e9, 1e9);
    }
    const std::string path = "/tmp/rnnhm_degenerate.bin";
    ASSERT_TRUE(SaveHeatmap(grid, path));
    const auto loaded = LoadHeatmap(path);
    ASSERT_TRUE(loaded.has_value()) << w << "x" << h;
    EXPECT_EQ(loaded->width(), w);
    EXPECT_EQ(loaded->height(), h);
    EXPECT_EQ(loaded->domain(), grid.domain());
    EXPECT_EQ(loaded->values(), grid.values());  // bit-exact payload
    std::remove(path.c_str());
  }
}

// Extreme but representable values must survive the binary round trip
// bit for bit (the cache trusts grids to be value-faithful).
TEST(SerializationTest, ExtremeValuesRoundTripBitExactly) {
  HeatmapGrid grid(3, 2, Rect{{0, 0}, {1, 1}});
  grid.At(0, 0) = 0.0;
  grid.At(1, 0) = -0.0;
  grid.At(2, 0) = 1e308;
  grid.At(0, 1) = -1e308;
  grid.At(1, 1) = 5e-324;  // smallest subnormal
  grid.At(2, 1) = 0.1;     // not exactly representable
  const std::string path = "/tmp/rnnhm_extreme.bin";
  ASSERT_TRUE(SaveHeatmap(grid, path));
  const auto loaded = LoadHeatmap(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->values(), grid.values());
  EXPECT_TRUE(std::signbit(loaded->At(1, 0)));
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsNonPositiveDimensionsAndBadDomain) {
  // Hand-craft headers with corrupted fields; every one must be refused.
  HeatmapGrid grid(4, 4, Rect{{0, 0}, {1, 1}}, 1.0);
  const std::string path = "/tmp/rnnhm_header.bin";
  ASSERT_TRUE(SaveHeatmap(grid, path));
  // Header layout: magic[4], version u32, width i32, height i32, domain.
  struct Patch {
    long offset;
    int32_t value;
  };
  for (const Patch& patch :
       {Patch{8, 0}, Patch{8, -4}, Patch{12, 0}, Patch{12, -4}}) {
    HeatmapGrid fresh(4, 4, Rect{{0, 0}, {1, 1}}, 1.0);
    ASSERT_TRUE(SaveHeatmap(fresh, path));
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, patch.offset, SEEK_SET);
    std::fwrite(&patch.value, sizeof(patch.value), 1, f);
    std::fclose(f);
    EXPECT_FALSE(LoadHeatmap(path).has_value())
        << "offset " << patch.offset << " value " << patch.value;
  }
  // Inverted domain (lo.x >= hi.x): patch the four domain doubles.
  HeatmapGrid fresh(4, 4, Rect{{0, 0}, {1, 1}}, 1.0);
  ASSERT_TRUE(SaveHeatmap(fresh, path));
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const double bad_lo_x = 2.0;  // domain.lo.x at offset 16
  std::fseek(f, 16, SEEK_SET);
  std::fwrite(&bad_lo_x, sizeof(bad_lo_x), 1, f);
  std::fclose(f);
  EXPECT_FALSE(LoadHeatmap(path).has_value());
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingFileFails) {
  EXPECT_FALSE(LoadHeatmap("/nonexistent/grid.bin").has_value());
  HeatmapGrid grid(2, 2, Rect{{0, 0}, {1, 1}});
  EXPECT_FALSE(SaveHeatmap(grid, "/nonexistent_dir/grid.bin"));
}

TEST(SerializationTest, RejectsBadMagicAndTruncation) {
  const std::string path = "/tmp/rnnhm_bad.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a heatmap at all", f);
  std::fclose(f);
  EXPECT_FALSE(LoadHeatmap(path).has_value());

  // Valid header, truncated payload.
  HeatmapGrid grid(64, 64, Rect{{0, 0}, {1, 1}}, 1.0);
  ASSERT_TRUE(SaveHeatmap(grid, path));
  f = std::fopen(path.c_str(), "r+b");
  std::fseek(f, 0, SEEK_END);
  const long full = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), full / 2), 0);
  EXPECT_FALSE(LoadHeatmap(path).has_value());
  std::remove(path.c_str());
}

// --- Lanes ----------------------------------------------------------------

std::vector<uint8_t> Encode(const HeatmapGrid& grid) {
  std::vector<uint8_t> bytes;
  EncodeHeatmap(grid, &bytes);
  return bytes;
}

uint32_t LaneOf(const std::vector<uint8_t>& blob) {
  uint32_t lane = 0;
  for (int i = 3; i >= 0; --i) lane = (lane << 8) | blob[48 + i];
  return lane;
}

std::vector<uint64_t> Bits(const HeatmapGrid& grid) {
  std::vector<uint64_t> bits(grid.values().size());
  std::memcpy(bits.data(), grid.data(), bits.size() * sizeof(uint64_t));
  return bits;
}

// A 40 x 20 grid (several narrowing blocks) of integers in [0, 200] with
// `value` at pixel `at`, so a miss can land after a block that narrowed.
HeatmapGrid GridWith(double value, int at) {
  HeatmapGrid grid(40, 20, Rect{{-1, -2}, {3, 4}});
  for (int j = 0; j < 20; ++j) {
    for (int i = 0; i < 40; ++i) grid.At(i, j) = (i * 7 + j * 13) % 201;
  }
  grid.At(at % 40, at / 40) = value;
  return grid;
}

TEST(SerializationLaneTest, PicksTheNarrowestExactLaneAndRoundTripsBits) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    double value;
    uint32_t lane;
  };
  const Case cases[] = {
      {0.0, 1},    {255.0, 1},   {256.0, 2},        {65535.0, 2},
      {65536.0, 8}, {-0.0, 8},   {nan, 8},          {0.5, 8},
      {-1.0, 8},   {5e-324, 8},  {1e308, 8},        {inf, 8},
      {-inf, 8},   {4503599627370496.0, 8},  // 2^52: exact, but too wide
  };
  for (const Case& c : cases) {
    for (const int at : {0, 300, 799}) {
      const HeatmapGrid grid = GridWith(c.value, at);
      const std::vector<uint8_t> blob = Encode(grid);
      EXPECT_EQ(LaneOf(blob), c.lane) << c.value << " at " << at;
      EXPECT_EQ(blob.size(), kHeatmapHeaderBytes + 800 * c.lane);
      EXPECT_EQ(SerializedSizeBytes(grid), blob.size());
      size_t consumed = 0;
      std::string error;
      const auto decoded =
          DecodeHeatmap(blob.data(), blob.size(), &consumed, &error);
      ASSERT_TRUE(decoded.has_value()) << error;
      EXPECT_EQ(consumed, blob.size());
      EXPECT_EQ(decoded->domain(), grid.domain());
      EXPECT_EQ(Bits(*decoded), Bits(grid)) << c.value << " at " << at;
    }
  }
}

// The narrowing loop is compiled once per vector ISA; every backend this
// CPU runs must produce the same bytes and decode to the same values.
TEST(SerializationLaneTest, EveryBackendEncodesAndDecodesTheSameBytes) {
  const HeatmapGrid grids[] = {GridWith(17.0, 500), GridWith(4000.0, 700),
                               GridWith(0.5, 260)};
  std::vector<std::vector<uint8_t>> reference;
  for (const HeatmapGrid& grid : grids) reference.push_back(Encode(grid));
  for (int b = 0; b <= static_cast<int>(DetectedRasterBackend()); ++b) {
    SetRasterBackendForTesting(static_cast<RasterBackend>(b));
    for (size_t g = 0; g < std::size(grids); ++g) {
      EXPECT_EQ(Encode(grids[g]), reference[g]) << "backend " << b;
      const auto decoded = DecodeHeatmap(reference[g].data(),
                                         reference[g].size(), nullptr);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(Bits(*decoded), Bits(grids[g])) << "backend " << b;
    }
  }
  ResetRasterBackendForTesting();
}

TEST(SerializationLaneTest, GoldenBytesForEachLane) {
  // A 2 x 2 grid over the unit square: the header is fixed, then the
  // lane word and the row-major body.
  const std::vector<uint8_t> header = {
      'R', 'N', 'H', 'M', 2, 0, 0, 0,          // magic, version 2
      2,   0,   0,   0,   2, 0, 0, 0,          // width, height
      0,   0,   0,   0,   0, 0, 0, 0,          // lo.x = 0.0
      0,   0,   0,   0,   0, 0, 0, 0,          // lo.y = 0.0
      0,   0,   0,   0,   0, 0, 0xF0, 0x3F,    // hi.x = 1.0
      0,   0,   0,   0,   0, 0, 0xF0, 0x3F};   // hi.y = 1.0
  struct Case {
    double values[4];
    std::vector<uint8_t> tail;  // lane word + body
  };
  const Case cases[] = {
      {{0, 1, 2, 255}, {1, 0, 0, 0, 0, 1, 2, 255}},
      {{0, 256, 65535, 1}, {2, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 1, 0}},
      {{0.5, -1, 0, 2},
       {8, 0, 0, 0,                    // lane 8
        0, 0, 0, 0, 0, 0, 0xE0, 0x3F,  // 0.5
        0, 0, 0, 0, 0, 0, 0xF0, 0xBF,  // -1.0
        0, 0, 0, 0, 0, 0, 0, 0,        // 0.0
        0, 0, 0, 0, 0, 0, 0, 0x40}},   // 2.0
  };
  for (const Case& c : cases) {
    HeatmapGrid grid(2, 2, Rect{{0, 0}, {1, 1}});
    grid.At(0, 0) = c.values[0];
    grid.At(1, 0) = c.values[1];
    grid.At(0, 1) = c.values[2];
    grid.At(1, 1) = c.values[3];
    std::vector<uint8_t> want = header;
    want.insert(want.end(), c.tail.begin(), c.tail.end());
    EXPECT_EQ(Encode(grid), want) << "lane " << static_cast<int>(c.tail[0]);
    const auto decoded = DecodeHeatmap(want.data(), want.size(), nullptr);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->values(), grid.values());
  }
}

TEST(SerializationLaneTest, HostileBlobsGetAnErrorNeverACheck) {
  std::string error;
  HeatmapGrid grid(4, 3, Rect{{0, 0}, {1, 1}});
  for (const double value : {200.0, 60000.0, 0.25}) {  // u8, u16, f64
    grid.At(2, 1) = value;
    const std::vector<uint8_t> blob = Encode(grid);
    // A body one byte short, in every lane.
    EXPECT_FALSE(
        DecodeHeatmap(blob.data(), blob.size() - 1, nullptr, &error));
    EXPECT_EQ(error, "truncated heatmap payload");
    // Every shorter prefix fails too.
    for (size_t len = 0; len < blob.size(); ++len) {
      EXPECT_FALSE(DecodeHeatmap(blob.data(), len, nullptr).has_value());
    }
  }
  std::vector<uint8_t> blob = Encode(grid);
  for (const uint8_t lane : {0, 3, 4, 16, 255}) {
    blob[48] = lane;
    EXPECT_FALSE(DecodeHeatmap(blob.data(), blob.size(), nullptr, &error));
    EXPECT_EQ(error, "unknown heatmap lane");
  }
  blob[48] = 8;
  blob[49] = 1;  // lane 264: the whole word is the lane
  EXPECT_FALSE(DecodeHeatmap(blob.data(), blob.size(), nullptr, &error));
  // width * height far past the body (and past 2^32): refused before any
  // allocation.
  blob = Encode(grid);
  const int32_t huge = std::numeric_limits<int32_t>::max();
  std::memcpy(blob.data() + 8, &huge, sizeof(huge));
  std::memcpy(blob.data() + 12, &huge, sizeof(huge));
  EXPECT_FALSE(DecodeHeatmap(blob.data(), blob.size(), nullptr, &error));
  EXPECT_EQ(error, "truncated heatmap payload");
  // Unknown versions.
  blob = Encode(grid);
  for (const uint8_t version : {0, 3, 200}) {
    blob[4] = version;
    EXPECT_FALSE(DecodeHeatmap(blob.data(), blob.size(), nullptr, &error));
    EXPECT_EQ(error, "unsupported heatmap version");
  }
}

TEST(SerializationLaneTest, VersionOneBlobsStillLoad) {
  // v1: the v2 header without the lane word, body always f64.
  HeatmapGrid grid(3, 2, Rect{{-1, 0}, {2, 5}});
  const double values[6] = {1, 2.5, -0.0, 7, 1e300, 3};
  for (int k = 0; k < 6; ++k) grid.At(k % 3, k / 3) = values[k];
  std::vector<uint8_t> v1 = Encode(grid);  // fractions: the f64 lane
  ASSERT_EQ(LaneOf(v1), 8u);
  v1[4] = 1;                                   // version 1
  v1.erase(v1.begin() + 48, v1.begin() + 52);  // no lane word
  size_t consumed = 0;
  const auto decoded = DecodeHeatmap(v1.data(), v1.size(), &consumed);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(consumed, v1.size());
  EXPECT_EQ(Bits(*decoded), Bits(grid));

  const std::string path = "/tmp/rnnhm_v1.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(v1.data(), 1, v1.size(), f), v1.size());
  std::fclose(f);
  const auto loaded = LoadHeatmap(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(Bits(*loaded), Bits(grid));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rnnhm
