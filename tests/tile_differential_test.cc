// Tile differential harness: the acceptance gate for domain tiling
// (src/tile/tile_plan.h). For every tested tile grid, metric, and slab
// count, the tiled sweep's stitched raster must be *bit-identical* to the
// untiled slab-parallel builder's — including workloads with circles
// spanning four or more tiles, circles larger than a tile, entirely empty
// tiles, tile boundaries landing exactly on pixel centers, and a domain
// whose extent is not exactly representable (the seam-risk regression:
// boundaries must come from PixelAxis::LowerBound, never independent float
// math). Runs under the `differential` CTest label, so the whole file is
// re-run with RNNHM_DISABLE_SIMD=1.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"
#include "query/heatmap_engine.h"
#include "tile/tile_plan.h"

namespace rnnhm {
namespace {

constexpr int kSlabCounts[] = {1, 2, 4, 8};
struct TileGrid {
  int rows;
  int cols;
};
constexpr TileGrid kTileGrids[] = {{1, 1}, {1, 4}, {4, 1}, {3, 3}, {5, 2}};
const Metric kMetrics[] = {Metric::kLInf, Metric::kL1, Metric::kL2};

std::string CaseName(Metric metric, const TileGrid& g, int slabs) {
  return MetricName(metric) + " " + std::to_string(g.rows) + "x" +
         std::to_string(g.cols) + " slabs=" + std::to_string(slabs);
}

std::vector<NnCircle> MakeCircles(uint64_t seed, int n, double r_lo,
                                  double r_hi) {
  Rng rng(seed);
  std::vector<NnCircle> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                           rng.Uniform(r_lo, r_hi), i});
  }
  return out;
}

HeatmapGrid Untiled(Metric metric, const std::vector<NnCircle>& circles,
                    const InfluenceMeasure& measure, const Rect& domain,
                    int width, int height, int num_slabs) {
  switch (metric) {
    case Metric::kLInf:
      return BuildHeatmapLInfParallel(circles, measure, domain, width, height,
                                      num_slabs);
    case Metric::kL1:
      return BuildHeatmapL1Parallel(circles, measure, domain, width, height,
                                    num_slabs);
    case Metric::kL2:
    default:
      return BuildHeatmapL2Parallel(circles, measure, domain, width, height,
                                    num_slabs);
  }
}

void ExpectTiledMatchesUntiled(const std::vector<NnCircle>& circles,
                               const Rect& domain, int width, int height) {
  SizeInfluence measure;
  for (const Metric metric : kMetrics) {
    const HeatmapGrid reference =
        Untiled(metric, circles, measure, domain, width, height, 1);
    for (const TileGrid& g : kTileGrids) {
      const TilePlan plan(metric, circles, domain, width, height,
                          TilePlanOptions{g.rows, g.cols});
      for (const int slabs : kSlabCounts) {
        const HeatmapGrid tiled = plan.Run(measure, slabs);
        EXPECT_EQ(reference.values(), tiled.values())
            << CaseName(metric, g, slabs);
      }
    }
  }
}

TEST(TileDifferentialTest, RandomWorkloadAllGridsMetricsSlabs) {
  const Rect domain{{-0.05, -0.05}, {1.05, 1.05}};
  ExpectTiledMatchesUntiled(MakeCircles(101, 60, 0.02, 0.2), domain, 48, 48);
}

TEST(TileDifferentialTest, NonSquareRasterAndDomain) {
  const Rect domain{{-0.31250731, -0.27103343}, {1.29310917, 1.31071529}};
  ExpectTiledMatchesUntiled(MakeCircles(202, 50, 0.02, 0.25), domain, 52, 36);
}

// Circles whose influence region overlaps four or more tiles of the 3x3
// grid, verified structurally before the bit-compare.
TEST(TileDifferentialTest, CirclesSpanningManyTiles) {
  std::vector<NnCircle> circles = MakeCircles(303, 30, 0.02, 0.1);
  // Centered giants: radius 0.45 over a unit domain covers every tile of a
  // 3x3 split (tile extent ~0.37), and is also "larger than a tile".
  circles.push_back(NnCircle{{0.5, 0.5}, 0.45, 30});
  circles.push_back(NnCircle{{0.34, 0.61}, 0.4, 31});
  const Rect domain{{0.0, 0.0}, {1.1, 1.1}};
  const TilePlan plan(Metric::kLInf, circles, domain, 48, 48,
                      TilePlanOptions{3, 3});
  int tiles_with_giant = 0;
  for (const Tile& t : plan.tiles()) {
    for (const int32_t id : t.circles) {
      if (id == 30) {
        ++tiles_with_giant;
        break;
      }
    }
  }
  EXPECT_GE(tiles_with_giant, 4);
  ExpectTiledMatchesUntiled(circles, domain, 48, 48);
}

// All circles clustered in one corner: far tiles get no circles at all and
// must come out as pure background, matching the untiled raster.
TEST(TileDifferentialTest, EmptyTiles) {
  Rng rng(404);
  std::vector<NnCircle> circles;
  for (int i = 0; i < 40; ++i) {
    circles.push_back(NnCircle{{rng.Uniform(0.0, 0.2), rng.Uniform(0.0, 0.2)},
                               rng.Uniform(0.01, 0.05), i});
  }
  const Rect domain{{0.0, 0.0}, {1.0, 1.0}};
  const TilePlan plan(Metric::kL2, circles, domain, 48, 48,
                      TilePlanOptions{3, 3});
  int empty_tiles = 0;
  for (const Tile& t : plan.tiles()) {
    if (t.circles.empty()) ++empty_tiles;
  }
  EXPECT_GT(empty_tiles, 0);
  ExpectTiledMatchesUntiled(circles, domain, 48, 48);
}

// Domain [0, 45] at width 45 makes the pixel pitch exactly 1.0, so pixel
// centers (i + 0.5) and the 2x2 cut coordinate 22.5 are all exact doubles:
// the cut lands exactly on the center of pixel 22. The boundary pixel must
// belong to exactly one tile (the right one, by LowerBound's >= convention)
// and the stitch must stay bit-identical.
TEST(TileDifferentialTest, TileBoundaryOnPixelCenter) {
  const Rect domain{{0.0, 0.0}, {45.0, 45.0}};
  const int res = 45;
  const std::vector<TileWindow> windows = TileWindows(domain, res, res, 2, 2);
  EXPECT_EQ(windows[0].col_hi, 22);
  EXPECT_EQ(windows[1].col_lo, 22);
  EXPECT_EQ(windows[0].row_hi, 22);
  Rng rng(505);
  std::vector<NnCircle> circles;
  for (int i = 0; i < 50; ++i) {
    circles.push_back(NnCircle{{rng.Uniform(0, 45), rng.Uniform(0, 45)},
                               rng.Uniform(0.5, 9.0), i});
  }
  ExpectTiledMatchesUntiled(circles, domain, res, res);
}

// Seam-risk regression: a domain whose extents are not exactly
// representable (1/3 and 0.7) over prime resolutions. Tile boundaries are
// derived from PixelAxis::LowerBound over the global center table; if a
// tile edge ever came from independent float math it could disagree with
// the sweeps' span edges on exactly this kind of domain.
TEST(TileDifferentialTest, NonRepresentableDomainWidth) {
  const Rect domain{{0.1, 0.2}, {0.1 + 1.0 / 3.0, 0.9}};
  Rng rng(606);
  std::vector<NnCircle> circles;
  for (int i = 0; i < 45; ++i) {
    circles.push_back(NnCircle{{rng.Uniform(0.1, 0.44), rng.Uniform(0.2, 0.9)},
                               rng.Uniform(0.005, 0.08), i});
  }
  ExpectTiledMatchesUntiled(circles, domain, 37, 29);
}

// Degenerate radii ride along with regular circles: zero-radius circles
// are skipped by every sweep, giants cover the whole domain.
TEST(TileDifferentialTest, DegenerateRadii) {
  std::vector<NnCircle> circles = MakeCircles(707, 30, 0.02, 0.15);
  circles.push_back(NnCircle{{0.3, 0.4}, 0.0, 30});
  circles.push_back(NnCircle{{0.6, 0.1}, 0.0, 31});
  circles.push_back(NnCircle{{0.5, 0.5}, 1.0e9, 32});
  const Rect domain{{0.0, 0.0}, {1.0, 1.0}};
  ExpectTiledMatchesUntiled(circles, domain, 40, 40);
}

// Fragment sweeps + stitching (the shard path) are the same bits as the
// in-place tile sweep and the untiled sweep.
TEST(TileDifferentialTest, FragmentStitchMatches) {
  const std::vector<NnCircle> circles = MakeCircles(808, 45, 0.02, 0.2);
  const Rect domain{{-0.02, -0.02}, {1.02, 1.02}};
  SizeInfluence measure;
  for (const Metric metric : kMetrics) {
    const HeatmapGrid reference =
        Untiled(metric, circles, measure, domain, 44, 44, 1);
    const TilePlan plan(metric, circles, domain, 44, 44,
                        TilePlanOptions{2, 3});
    HeatmapGrid stitched(44, 44, domain, measure.Evaluate({}));
    for (const Tile& t : plan.tiles()) {
      if (t.window.empty()) continue;
      const HeatmapGrid fragment = plan.SweepTileFragment(t, measure, 2);
      TilePlan::StitchFragment(t.window, fragment, &stitched);
    }
    EXPECT_EQ(reference.values(), stitched.values()) << MetricName(metric);
  }
}

// HeatmapEngine::ExecuteTiledChecked, which must succeed here.
HeatmapResponse Tiled(const HeatmapEngine& engine,
                      const HeatmapRequestV2& request, int rows, int cols,
                      TiledServeStats* stats) {
  std::optional<HeatmapResponse> response;
  const Status status =
      engine.ExecuteTiledChecked(request, rows, cols, &response, stats);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return std::move(response.value());
}

// HeatmapEngine::ExecuteTiledChecked serves the same bits as the untiled
// engine path for every metric and tile grid, and a repeat request
// restitches entirely from the per-tile fragment cache.
TEST(TileDifferentialTest, EngineTiledMatchesExecute) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  options.slabs_per_request = 2;
  options.cache_bytes = 16ull << 20;
  HeatmapEngine engine(measure, options);
  const Rect domain{{-0.05, -0.05}, {1.05, 1.05}};
  for (const Metric metric : kMetrics) {
    const CircleSetHandle handle = engine.registry().Register(
        MakeCircles(909 + static_cast<int>(metric), 40, 0.02, 0.15), metric);
    const HeatmapRequestV2 request{handle, domain, 40, 40};
    const HeatmapResponse reference = engine.Submit(request).get();
    for (const TileGrid& g : kTileGrids) {
      TiledServeStats first_stats;
      const HeatmapResponse tiled =
          Tiled(engine, request, g.rows, g.cols, &first_stats);
      EXPECT_EQ(reference.grid.values(), tiled.grid.values())
          << CaseName(metric, g, 2);
      EXPECT_EQ(first_stats.tiles, g.rows * g.cols);
      // Same request again: every fragment must come back from the cache.
      TiledServeStats repeat_stats;
      const HeatmapResponse repeat =
          Tiled(engine, request, g.rows, g.cols, &repeat_stats);
      EXPECT_EQ(reference.grid.values(), repeat.grid.values());
      EXPECT_TRUE(repeat.from_cache) << CaseName(metric, g, 2);
      EXPECT_EQ(repeat_stats.swept_tiles, 0) << CaseName(metric, g, 2);
      EXPECT_EQ(repeat_stats.cached_tiles, first_stats.swept_tiles);
    }
  }
}

// The tile-granular cache keys: editing one corner circle only invalidates
// the tiles its influence region overlaps — every other tile's fragment is
// served from the cache, and the stitched result still matches a fresh
// untiled response for the edited set.
TEST(TileDifferentialTest, EngineTiledEditInvalidatesOnlyOverlappedTiles) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  options.cache_bytes = 16ull << 20;
  HeatmapEngine engine(measure, options);
  const Rect domain{{0.0, 0.0}, {1.0, 1.0}};
  // Small radii spread across the whole domain: most 4x4 tiles have
  // circles, and a corner circle's influence stays inside a few tiles.
  std::vector<NnCircle> circles = MakeCircles(1010, 64, 0.01, 0.05);
  circles.push_back(NnCircle{{0.04, 0.05}, 0.03, 64});
  const CircleSetHandle base =
      engine.registry().Register(circles, Metric::kLInf);
  const HeatmapRequestV2 request{base, domain, 48, 48};
  TiledServeStats cold;
  const HeatmapResponse tiled_base = Tiled(engine, request, 4, 4, &cold);
  EXPECT_EQ(engine.Submit(request).get().grid.values(),
            tiled_base.grid.values());
  ASSERT_GT(cold.swept_tiles, 8);  // the population reaches most tiles

  // Nudge the corner circle: only tile (0, 0) (and at most its immediate
  // neighbors) see a different circle subset.
  circles.back().center = {0.06, 0.04};
  const CircleSetHandle edited =
      engine.registry().Register(circles, Metric::kLInf);
  const HeatmapRequestV2 edited_request{edited, domain, 48, 48};
  TiledServeStats warm;
  const HeatmapResponse tiled_edited =
      Tiled(engine, edited_request, 4, 4, &warm);
  EXPECT_EQ(engine.Submit(edited_request).get().grid.values(),
            tiled_edited.grid.values());
  EXPECT_GE(warm.swept_tiles, 1);  // the overlapped corner tile resweeps
  EXPECT_LE(warm.swept_tiles, 4);  // ... and only its immediate neighborhood
  EXPECT_EQ(warm.cached_tiles + warm.swept_tiles + warm.background_tiles, 16);
  EXPECT_GT(warm.cached_tiles, warm.swept_tiles);
}

// Every bad tiled request is a Status, never a CHECK.
TEST(TileDifferentialTest, EngineTiledRejectsBadRequestsWithAStatus) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  HeatmapEngine engine(measure, options);
  const Rect domain{{0.0, 0.0}, {1.0, 1.0}};
  const CircleSetHandle handle = engine.registry().Register(
      MakeCircles(1212, 10, 0.02, 0.1), Metric::kLInf);
  std::optional<HeatmapResponse> response;
  const auto code = [&](const HeatmapRequestV2& request, int rows, int cols) {
    return engine.ExecuteTiledChecked(request, rows, cols, &response).code;
  };
  EXPECT_EQ(code({handle, domain, 16, 16}, 0, 2),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code({handle, domain, 16, 16}, 2, kMaxTileGridSide + 1),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code({handle, domain, 0, 16}, 2, 2),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code({handle, Rect{{1, 0}, {1, 1}}, 16, 16}, 2, 2),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code({CircleSetHandle{999, 1}, domain, 16, 16}, 2, 2),
            StatusCode::kNotFound);
  EXPECT_FALSE(response.has_value());
  EXPECT_EQ(code({handle, domain, 16, 16}, 2, 2), StatusCode::kOk);
  EXPECT_TRUE(response.has_value());
}

// The shard-facing fragment path: ExecuteTileFragmentChecked returns
// window-sized fragments that stitch into the untiled raster, and rejects
// bad tile ids and empty windows with a Status instead of a crash.
TEST(TileDifferentialTest, EngineTileFragmentsStitch) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  options.cache_bytes = 8ull << 20;
  HeatmapEngine engine(measure, options);
  const Rect domain{{-0.02, -0.02}, {1.02, 1.02}};
  const CircleSetHandle handle = engine.registry().Register(
      MakeCircles(1111, 45, 0.02, 0.2), Metric::kL2);
  const HeatmapRequestV2 request{handle, domain, 44, 44};
  const HeatmapResponse reference = engine.Submit(request).get();
  const PinnedHeatmapRequest pinned{engine.registry().Resolve(handle), domain,
                                    44, 44};
  const std::vector<TileWindow> windows = TileWindows(domain, 44, 44, 2, 3);
  HeatmapGrid stitched(44, 44, domain, measure.Evaluate({}));
  for (int tile_id = 0; tile_id < 6; ++tile_id) {
    std::optional<HeatmapResponse> fragment;
    ASSERT_TRUE(
        engine.ExecuteTileFragmentChecked(pinned, 2, 3, tile_id, &fragment)
            .ok());
    ASSERT_TRUE(fragment.has_value());
    EXPECT_EQ(fragment->grid.width(), windows[tile_id].width());
    EXPECT_EQ(fragment->grid.height(), windows[tile_id].height());
    TilePlan::StitchFragment(windows[tile_id], fragment->grid, &stitched);
  }
  EXPECT_EQ(reference.grid.values(), stitched.values());

  std::optional<HeatmapResponse> fragment;
  EXPECT_FALSE(
      engine.ExecuteTileFragmentChecked(pinned, 2, 3, 6, &fragment).ok());
  EXPECT_FALSE(
      engine.ExecuteTileFragmentChecked(pinned, 0, 3, 0, &fragment).ok());
  // A tile grid finer than the raster leaves some windows empty; asking
  // for one is a client error, not a crash.
  EXPECT_FALSE(
      engine
          .ExecuteTileFragmentChecked(
              PinnedHeatmapRequest{pinned.set, domain, 2, 2}, 4, 4, 1,
              &fragment)
          .ok());
  // A null snapshot (an unresolved handle) is kNotFound.
  EXPECT_EQ(engine
                .ExecuteTileFragmentChecked(
                    PinnedHeatmapRequest{nullptr, domain, 44, 44}, 2, 3, 0,
                    &fragment)
                .code,
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace rnnhm
