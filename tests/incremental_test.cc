#include "heatmap/incremental.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/dirty_interval.h"
#include "core/label_sink.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"
#include "heatmap/raster_sink.h"
#include "query/heatmap_session.h"

namespace rnnhm {
namespace {

TEST(DirtyRegionSetTest, MergesByXOverlapAndUnionsY) {
  DirtyRegionSet set;
  EXPECT_TRUE(set.empty());
  set.Add(0.4, 0.6, 0.1, 0.2);
  set.Add(0.1, 0.2, 0.5, 0.6);
  set.Add(0.55, 0.7, 0.8, 0.9);  // x overlaps [0.4, 0.6]; y disjoint
  set.Add(0.2, 0.25, 0.4, 0.7);  // x touches [0.1, 0.2]
  const auto& merged = set.Merged();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0], (DirtyRect{{0.1, 0.25}, {0.4, 0.7}}));
  EXPECT_EQ(merged[1], (DirtyRect{{0.4, 0.7}, {0.1, 0.9}}));
}

TEST(DirtyRegionSetTest, PointRectsAndClearWork) {
  DirtyRegionSet set;
  set.Add(0.5, 0.5, 0.5, 0.5);  // zero-radius circle footprint
  EXPECT_FALSE(set.empty());
  ASSERT_EQ(set.Merged().size(), 1u);
  EXPECT_EQ(set.Merged()[0], (DirtyRect{{0.5, 0.5}, {0.5, 0.5}}));
  set.Clear();
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.Merged().empty());
}

TEST(DirtyRegionSetTest, RepeatedLocalEditsStayCompact) {
  DirtyRegionSet set;
  for (int i = 0; i < 1000; ++i) {
    set.Add(0.3, 0.4, 0.2, 0.5);  // same neighborhood over and over
  }
  EXPECT_EQ(set.num_pending(), 1u);  // absorbed, not accumulated
}

TEST(DirtyRegionSetTest, AddRectTakesCircleBounds) {
  DirtyRegionSet set;
  set.AddRect(NnCircle{{0.5, 0.4}, 0.1, 0}.Bounds());
  ASSERT_EQ(set.Merged().size(), 1u);
  const DirtyRect& rect = set.Merged()[0];
  EXPECT_NEAR(rect.x.lo, 0.4, 1e-12);
  EXPECT_NEAR(rect.x.hi, 0.6, 1e-12);
  EXPECT_NEAR(rect.y.lo, 0.3, 1e-12);
  EXPECT_NEAR(rect.y.hi, 0.5, 1e-12);
}

std::vector<NnCircle> RandomCircles(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<NnCircle> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                           rng.Uniform(0.02, 0.2), i});
  }
  return out;
}

// RunCrestSlab must label the slab's regions exactly like the regions a
// full sweep labels there (modulo clipping of representative boxes).
TEST(RunCrestSlabTest, SlabLabelsMatchFullSweepWithinTheSlab) {
  const auto circles = RandomCircles(90, 60);
  SizeInfluence measure;
  for (const Metric metric : {Metric::kLInf, Metric::kL2}) {
    DistinctSetSink full;
    std::vector<RegionLabelSink*> full_sinks{&full};
    RunCrestParallelMetric(metric, circles, measure, full_sinks);
    DistinctSetSink slab;
    RunCrestSlabMetric(metric, circles, measure, &slab, 0.3, 0.7);
    auto slab_sets = slab.sets();
    slab_sets.erase(std::vector<int32_t>{});
    auto full_sets = full.sets();
    full_sets.erase(std::vector<int32_t>{});
    EXPECT_FALSE(slab_sets.empty());
    for (const auto& [set, influence] : slab_sets) {
      const auto it = full_sets.find(set);
      ASSERT_NE(it, full_sets.end()) << MetricName(metric);
      EXPECT_EQ(it->second, influence);
    }
  }
}

// Painting only the dirty slab of a grid whose other columns hold the
// old raster must reproduce the new full raster bit for bit.
TEST(RecomputeDirtyColumnsTest, SpliceEqualsFullRebuild) {
  SizeInfluence measure;
  const Rect domain{{-0.05, -0.05}, {1.05, 1.05}};
  constexpr int kRes = 40;
  for (const Metric metric : {Metric::kLInf, Metric::kL2}) {
    auto circles = RandomCircles(91, 50);
    HeatmapGrid grid =
        metric == Metric::kL2
            ? BuildHeatmapL2(circles, measure, domain, kRes, kRes)
            : BuildHeatmapLInf(circles, measure, domain, kRes, kRes);

    // Perturb one circle; its old+new footprints' x-extents bound the
    // change (full-height columns: y is unbounded).
    const double inf = std::numeric_limits<double>::infinity();
    DirtyRegionSet dirty;
    const Rect old_box = circles[17].Bounds();
    dirty.Add(old_box.lo.x, old_box.hi.x, -inf, inf);
    circles[17].center = {0.31, 0.62};
    circles[17].radius = 0.17;
    const Rect new_box = circles[17].Bounds();
    dirty.Add(new_box.lo.x, new_box.hi.x, -inf, inf);

    const IncrementalRasterStats stats =
        RecomputeDirtyColumns(&grid, metric, circles, measure, dirty);
    EXPECT_GT(stats.dirty_columns, 0);
    EXPECT_LT(stats.dirty_columns, kRes);  // strictly partial recompute
    EXPECT_EQ(stats.total_columns, kRes);

    const HeatmapGrid reference =
        metric == Metric::kL2
            ? BuildHeatmapL2(circles, measure, domain, kRes, kRes)
            : BuildHeatmapLInf(circles, measure, domain, kRes, kRes);
    EXPECT_EQ(grid.values(), reference.values()) << MetricName(metric);
  }
}

// The 2D dirty-rect splice: restricting reset + repaint to the dirty row
// window must still reproduce the new full raster bit for bit, while
// touching only the dirty area's pixels.
TEST(RecomputeDirtyColumnsTest, DirtyRectSpliceIsBitIdenticalAndAreaBound) {
  SizeInfluence measure;
  const Rect domain{{-0.05, -0.05}, {1.05, 1.05}};
  constexpr int kRes = 40;
  for (const Metric metric : {Metric::kLInf, Metric::kL2}) {
    auto circles = RandomCircles(96, 50);
    HeatmapGrid grid =
        metric == Metric::kL2
            ? BuildHeatmapL2(circles, measure, domain, kRes, kRes)
            : BuildHeatmapLInf(circles, measure, domain, kRes, kRes);

    // Perturb one circle; its old+new footprint boxes bound the change in
    // both axes.
    DirtyRegionSet dirty;
    dirty.AddRect(circles[23].Bounds());
    circles[23].center = {0.62, 0.33};
    circles[23].radius = 0.09;
    dirty.AddRect(circles[23].Bounds());

    const IncrementalRasterStats stats =
        RecomputeDirtyColumns(&grid, metric, circles, measure, dirty);
    EXPECT_GT(stats.dirty_columns, 0);
    EXPECT_LT(stats.dirty_columns, kRes);
    EXPECT_EQ(stats.total_rows, kRes);
    // The row window clipped the recompute: strictly fewer pixels than
    // full-height columns.
    EXPECT_GT(stats.dirty_pixels, 0);
    EXPECT_LT(stats.dirty_pixels,
              static_cast<int64_t>(stats.dirty_columns) * kRes);

    const HeatmapGrid reference =
        metric == Metric::kL2
            ? BuildHeatmapL2(circles, measure, domain, kRes, kRes)
            : BuildHeatmapLInf(circles, measure, domain, kRes, kRes);
    EXPECT_EQ(grid.values(), reference.values()) << MetricName(metric);
  }
}

// A rect entirely above/below the domain is skipped even when its
// x-interval crosses the grid.
TEST(RecomputeDirtyColumnsTest, OffScreenDirtyRowsAreSkipped) {
  SizeInfluence measure;
  const auto circles = RandomCircles(97, 30);
  const Rect domain{{0, 0}, {1, 1}};
  HeatmapGrid grid = BuildHeatmapLInf(circles, measure, domain, 16, 16);
  const std::vector<double> before = grid.values();
  // x-disjoint rects (overlapping ones would merge and y-union on-screen).
  DirtyRegionSet dirty;
  dirty.Add(0.1, 0.4, 5.0, 6.0);      // above the whole domain
  dirty.Add(0.6, 0.9, -1e13, -1e12);  // row ordinals beyond int range
  const IncrementalRasterStats stats =
      RecomputeDirtyColumns(&grid, Metric::kLInf, circles, measure, dirty);
  EXPECT_EQ(stats.dirty_slabs, 0);
  EXPECT_EQ(stats.dirty_pixels, 0);
  EXPECT_EQ(grid.values(), before);
}

TEST(RecomputeDirtyColumnsTest, EmptyDirtySetLeavesTheGridUntouched) {
  SizeInfluence measure;
  const auto circles = RandomCircles(92, 30);
  const Rect domain{{0, 0}, {1, 1}};
  HeatmapGrid grid = BuildHeatmapLInf(circles, measure, domain, 16, 16);
  const std::vector<double> before = grid.values();
  DirtyRegionSet dirty;
  const IncrementalRasterStats stats =
      RecomputeDirtyColumns(&grid, Metric::kLInf, circles, measure, dirty);
  EXPECT_EQ(stats.dirty_slabs, 0);
  EXPECT_EQ(grid.values(), before);
}

TEST(RecomputeDirtyColumnsTest, OffScreenDirtyIntervalIsSkipped) {
  SizeInfluence measure;
  const auto circles = RandomCircles(93, 30);
  const Rect domain{{0, 0}, {1, 1}};
  HeatmapGrid grid = BuildHeatmapLInf(circles, measure, domain, 16, 16);
  const std::vector<double> before = grid.values();
  const double inf = std::numeric_limits<double>::infinity();
  DirtyRegionSet dirty;
  dirty.Add(5.0, 6.0, -inf, inf);      // right of the whole domain
  dirty.Add(1e12, 1e13, -inf, inf);    // column ordinals beyond int range
  dirty.Add(-1e13, -1e12, -inf, inf);  // and far left of it
  const IncrementalRasterStats stats =
      RecomputeDirtyColumns(&grid, Metric::kLInf, circles, measure, dirty);
  EXPECT_EQ(stats.dirty_slabs, 0);
  EXPECT_EQ(stats.dirty_columns, 0);
  EXPECT_EQ(grid.values(), before);
}

// One dirty rect runs exactly one clipped sweep, so the pass counters are
// that sweep's counters: RunCrestSlabMetric over the rect's pixel-aligned
// slab, with the same raster sink attached.
TEST(RecomputeDirtyColumnsTest, SingleRectStatsEqualOneSlabSweep) {
  SizeInfluence measure;
  const Rect domain{{0, 0}, {1, 1}};
  constexpr int kRes = 20;
  const double dx = (domain.hi.x - domain.lo.x) / kRes;
  for (const Metric metric : {Metric::kLInf, Metric::kL2}) {
    const auto circles = RandomCircles(98, 40);
    HeatmapGrid grid(kRes, kRes, domain);
    DirtyRegionSet dirty;
    dirty.Add(0.31, 0.52, 0.2, 0.7);  // column centers 6..9
    const IncrementalRasterStats stats =
        RecomputeDirtyColumns(&grid, metric, circles, measure, dirty);
    ASSERT_EQ(stats.dirty_slabs, 1);
    ASSERT_EQ(stats.dirty_columns, 4);

    HeatmapGrid direct_grid(kRes, kRes, domain);
    RasterStripSink strip_raster(&direct_grid);
    RasterArcSink arc_raster(&direct_grid);
    CrestOptions crest_options;
    crest_options.strip_sink = &strip_raster;
    CrestL2Options l2_options;
    l2_options.arc_sink = &arc_raster;
    CountingSink labels;
    const MetricSweepStats direct = RunCrestSlabMetric(
        metric, circles, measure, &labels, domain.lo.x + 6 * dx,
        domain.lo.x + 10 * dx, crest_options, l2_options);
    EXPECT_GT(direct.num_events(), 0u) << MetricName(metric);

    const CrestStats& a = stats.sweep.crest;
    const CrestStats& b = direct.crest;
    EXPECT_EQ(a.num_circles, b.num_circles);
    EXPECT_EQ(a.num_skipped_circles, b.num_skipped_circles);
    EXPECT_EQ(a.num_events, b.num_events);
    EXPECT_EQ(a.num_labelings, b.num_labelings);
    EXPECT_EQ(a.num_merged_intervals, b.num_merged_intervals);
    EXPECT_EQ(a.num_elements_walked, b.num_elements_walked);
    const CrestL2Stats& c = stats.sweep.l2;
    const CrestL2Stats& d = direct.l2;
    EXPECT_EQ(c.num_circles, d.num_circles);
    EXPECT_EQ(c.num_skipped_circles, d.num_skipped_circles);
    EXPECT_EQ(c.num_events, d.num_events);
    EXPECT_EQ(c.num_cross_events, d.num_cross_events);
    EXPECT_EQ(c.num_labelings, d.num_labelings);
  }
}

// --- Session-level tracking ----------------------------------------------

TEST(SessionIncrementalTest, EditsAccumulateDirtyRects) {
  HeatmapSession session({{0.2, 0.5}, {0.8, 0.5}}, {{0.5, 0.5}},
                         Metric::kL2);
  EXPECT_TRUE(session.dirty_regions().empty());  // fresh session
  session.MoveClient(0, {0.25, 0.5});
  EXPECT_FALSE(session.dirty_regions().empty());
  // Old circle [0.2 +- 0.3] and new circle [0.25 +- 0.25] merge into one
  // rect whose y-extent is the union of both footprints.
  const auto& merged = session.dirty_regions().Merged();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_NEAR(merged[0].x.lo, -0.1, 1e-12);
  EXPECT_NEAR(merged[0].x.hi, 0.5, 1e-12);
  EXPECT_NEAR(merged[0].y.lo, 0.2, 1e-12);
  EXPECT_NEAR(merged[0].y.hi, 0.8, 1e-12);
}

TEST(SessionIncrementalTest, FirstCallIsFullThenSplices) {
  Rng rng(94);
  std::vector<Point> clients, facilities;
  for (int i = 0; i < 80; ++i) {
    clients.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  for (int i = 0; i < 8; ++i) {
    facilities.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  SizeInfluence measure;
  const Rect domain{{0, 0}, {1, 1}};
  HeatmapSession session(clients, facilities, Metric::kLInf);

  IncrementalRebuildStats stats;
  session.RasterIncremental(measure, domain, 32, 32, &stats);
  EXPECT_TRUE(stats.full_rebuild);

  session.MoveClient(3, {0.4, 0.4});
  session.RasterIncremental(measure, domain, 32, 32, &stats);
  EXPECT_FALSE(stats.full_rebuild);
  EXPECT_GT(stats.raster.dirty_columns, 0);
  // A local edit's dirty rect is y-clipped too: the splice touched fewer
  // pixels than full-height columns would.
  EXPECT_LT(stats.raster.dirty_pixels,
            static_cast<int64_t>(stats.raster.dirty_columns) * 32);
  EXPECT_TRUE(session.dirty_regions().empty());  // consumed

  // No edits since: nothing to recompute.
  session.RasterIncremental(measure, domain, 32, 32, &stats);
  EXPECT_FALSE(stats.full_rebuild);
  EXPECT_EQ(stats.raster.dirty_columns, 0);
}

TEST(SessionIncrementalTest, ShapeMeasureOrInvalidateForcesFullRebuild) {
  Rng rng(95);
  std::vector<Point> clients, facilities;
  for (int i = 0; i < 40; ++i) {
    clients.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  for (int i = 0; i < 5; ++i) {
    facilities.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  SizeInfluence measure;
  const Rect domain{{0, 0}, {1, 1}};
  HeatmapSession session(clients, facilities, Metric::kL2);
  IncrementalRebuildStats stats;
  session.RasterIncremental(measure, domain, 16, 16, &stats);
  ASSERT_TRUE(stats.full_rebuild);

  session.RasterIncremental(measure, domain, 24, 24, &stats);
  EXPECT_TRUE(stats.full_rebuild) << "resolution change";

  const Rect wider{{-0.5, 0}, {1.5, 1}};
  session.RasterIncremental(measure, wider, 24, 24, &stats);
  EXPECT_TRUE(stats.full_rebuild) << "domain change";

  SizeInfluence other_measure;
  session.RasterIncremental(other_measure, wider, 24, 24, &stats);
  EXPECT_TRUE(stats.full_rebuild) << "measure identity change";

  session.InvalidateRaster();
  session.RasterIncremental(other_measure, wider, 24, 24, &stats);
  EXPECT_TRUE(stats.full_rebuild) << "explicit invalidation";

  session.RasterIncremental(other_measure, wider, 24, 24, &stats);
  EXPECT_FALSE(stats.full_rebuild) << "steady state splices again";
}

TEST(SessionIncrementalTest, L1SessionsAlwaysRebuildFully) {
  HeatmapSession session({{0.3, 0.3}, {0.7, 0.7}}, {{0.5, 0.5}},
                         Metric::kL1);
  SizeInfluence measure;
  const Rect domain{{0, 0}, {1, 1}};
  IncrementalRebuildStats stats;
  session.RasterIncremental(measure, domain, 16, 16, &stats);
  EXPECT_TRUE(stats.full_rebuild);
  session.MoveClient(0, {0.4, 0.4});
  const HeatmapGrid& grid =
      session.RasterIncremental(measure, domain, 16, 16, &stats);
  EXPECT_TRUE(stats.full_rebuild);
  const HeatmapGrid reference = BuildHeatmapL1Parallel(
      session.circles(), measure, domain, 16, 16, /*num_slabs=*/1);
  EXPECT_EQ(grid.values(), reference.values());
}

}  // namespace
}  // namespace rnnhm
