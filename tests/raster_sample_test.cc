// Sample-aware strip emission: the raster sinks tell the sweeps which strips
// they sample (a window column center lies inside), and the sweeps walk the
// line status only for those. These tests pin that skipping the rest changes
// nothing: an oracle subclass whose Samples always returns true reproduces
// walking every strip, and its grids must match the real sinks'
// bit for bit — for L-inf, L1 and L2, slabs 1/2/4/8, a tile fragment window
// and a splice row window — with every sweep counter equal. A recording
// wrapper checks that every strip a raster sink is handed really contains a
// window column center.
#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/crest.h"
#include "core/crest_l2.h"
#include "core/crest_parallel.h"
#include "data/generators.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"
#include "heatmap/raster_sink.h"
#include "nn/nn_circle_builder.h"

namespace rnnhm {
namespace {

// Oracles: they ask for every strip, so the sweep walks the line status
// at every event.
class WalkAllStripSink : public RasterStripSink {
 public:
  using RasterStripSink::RasterStripSink;
  bool Samples(double, double) const override { return true; }
};

class WalkAllArcSink : public RasterArcSink {
 public:
  using RasterArcSink::RasterArcSink;
  bool Samples(double, double) const override { return true; }
};

// Records the x-range of every strip handed to the wrapped sink, then
// paints as the wrapped sink would. Slab shards call it concurrently.
class StripLog {
 public:
  void Add(double x0, double x1) {
    std::lock_guard<std::mutex> lock(mu_);
    strips_.emplace_back(x0, x1);
  }
  // Strips (counted once per call) containing no center of columns
  // [col_lo, col_hi) of `cols`, checked by a plain scan of the table.
  size_t CountUnsampled(const PixelAxis& cols, int col_lo, int col_hi) const {
    size_t bad = 0;
    for (const auto& [x0, x1] : strips_) {
      bool hit = false;
      for (int i = col_lo; i < col_hi && !hit; ++i) {
        hit = x0 <= cols.centers()[i] && cols.centers()[i] < x1;
      }
      if (!hit) ++bad;
    }
    return bad;
  }
  size_t size() const { return strips_.size(); }

 private:
  std::mutex mu_;
  std::vector<std::pair<double, double>> strips_;
};

template <typename Base>
class RecordingStripSink : public Base {
 public:
  template <typename... Args>
  explicit RecordingStripSink(StripLog* log, Args&&... args)
      : Base(std::forward<Args>(args)...), log_(log) {}
  void OnSpan(double x0, double x1, double y0, double y1,
              double influence) override {
    log_->Add(x0, x1);
    Base::OnSpan(x0, x1, y0, y1, influence);
  }

 private:
  StripLog* log_;
};

template <typename Base>
class RecordingArcSink : public Base {
 public:
  template <typename... Args>
  explicit RecordingArcSink(StripLog* log, Args&&... args)
      : Base(std::forward<Args>(args)...), log_(log) {}
  void OnArcStrip(double x0, double x1, const ArcStripSink::ArcGeom& lower,
                  const ArcStripSink::ArcGeom& upper,
                  double influence) override {
    log_->Add(x0, x1);
    Base::OnArcStrip(x0, x1, lower, upper, influence);
  }

 private:
  StripLog* log_;
};

bool SameBits(const HeatmapGrid& a, const HeatmapGrid& b) {
  return a.values().size() == b.values().size() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * a.values().size()) == 0;
}

void ExpectSameStats(const CrestStats& a, const CrestStats& b) {
  EXPECT_EQ(a.num_circles, b.num_circles);
  EXPECT_EQ(a.num_skipped_circles, b.num_skipped_circles);
  EXPECT_EQ(a.num_events, b.num_events);
  EXPECT_EQ(a.num_labelings, b.num_labelings);
  EXPECT_EQ(a.num_merged_intervals, b.num_merged_intervals);
  EXPECT_EQ(a.num_elements_walked, b.num_elements_walked);
}

void ExpectSameStats(const CrestL2Stats& a, const CrestL2Stats& b) {
  EXPECT_EQ(a.num_circles, b.num_circles);
  EXPECT_EQ(a.num_skipped_circles, b.num_skipped_circles);
  EXPECT_EQ(a.num_events, b.num_events);
  EXPECT_EQ(a.num_cross_events, b.num_cross_events);
  EXPECT_EQ(a.num_labelings, b.num_labelings);
}

const Rect kDomain{{0, 0}, {1, 1}};
constexpr int kRes = 48;

// Uniform clients and facilities; L2 keeps |F| >= |O| / 25 so disks stay
// sparse enough to sweep quickly.
std::vector<NnCircle> MakeCircles(Metric metric, uint64_t seed) {
  Rng rng(seed);
  const size_t clients = metric == Metric::kL2 ? 150 : 400;
  const size_t facilities = metric == Metric::kL2 ? 10 : 16;
  return BuildNnCircles(GenerateUniform(clients, kDomain, rng),
                        GenerateUniform(facilities, kDomain, rng), metric);
}

// The frame the rectilinear sweep runs in: L1 is swept as L-inf over the
// pi/4-rotated circles and rasterized over their bounding box.
std::vector<NnCircle> SweepFrameCircles(Metric metric,
                                        const std::vector<NnCircle>& c) {
  return metric == Metric::kL1 ? RotateCirclesToLInf(c) : c;
}

Rect SweepFrameDomain(const std::vector<NnCircle>& circles) {
  Rect box = EmptyRect();
  for (const NnCircle& c : circles) box = box.Union(c.Bounds());
  return box;
}

// Full-grid raster of `circles` through sink type S, swept with `slabs`
// shards; returns the sweep counters through `stats`.
template <typename S>
HeatmapGrid RectilinearRaster(const std::vector<NnCircle>& circles,
                              const Rect& domain, int slabs, StripLog* log,
                              CrestStats* stats) {
  SizeInfluence measure;
  HeatmapGrid grid(kRes, kRes, domain);
  RecordingStripSink<S> sink(log, &grid);
  CrestOptions options;
  options.strip_sink = &sink;
  *stats = RunCrestParallelStrips(circles, measure, slabs, options);
  return grid;
}

template <typename S>
HeatmapGrid ArcRaster(const std::vector<NnCircle>& circles, int slabs,
                      StripLog* log, CrestL2Stats* stats) {
  SizeInfluence measure;
  HeatmapGrid grid(kRes, kRes, kDomain);
  RecordingArcSink<S> sink(log, &grid);
  CrestL2Options options;
  options.arc_sink = &sink;
  *stats = RunCrestL2ParallelStrips(circles, measure, slabs, options);
  return grid;
}

PixelAxis Cols(const Rect& domain) {
  return PixelAxis(domain.lo.x, (domain.hi.x - domain.lo.x) / kRes, kRes);
}

PixelAxis Rows(const Rect& domain) {
  return PixelAxis(domain.lo.y, (domain.hi.y - domain.lo.y) / kRes, kRes);
}

struct Case {
  Metric metric;
  int slabs;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  return MetricName(info.param.metric) + "_slabs" +
         std::to_string(info.param.slabs);
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (const Metric m : {Metric::kLInf, Metric::kL1, Metric::kL2}) {
    for (const int slabs : {1, 2, 4, 8}) cases.push_back(Case{m, slabs});
  }
  return cases;
}

class RasterSampleTable : public ::testing::TestWithParam<Case> {};

TEST_P(RasterSampleTable, SampledSinkMatchesWalkAllOracle) {
  const Case& c = GetParam();
  const std::vector<NnCircle> circles =
      MakeCircles(c.metric, 1000 + static_cast<int>(c.metric));
  StripLog sampled_log, oracle_log;
  if (c.metric == Metric::kL2) {
    CrestL2Stats sampled_stats, oracle_stats;
    const HeatmapGrid sampled = ArcRaster<RasterArcSink>(
        circles, c.slabs, &sampled_log, &sampled_stats);
    const HeatmapGrid oracle = ArcRaster<WalkAllArcSink>(
        circles, c.slabs, &oracle_log, &oracle_stats);
    EXPECT_TRUE(SameBits(sampled, oracle));
    ExpectSameStats(sampled_stats, oracle_stats);
    EXPECT_EQ(sampled_log.CountUnsampled(Cols(kDomain), 0, kRes), 0u);
  } else {
    const std::vector<NnCircle> swept = SweepFrameCircles(c.metric, circles);
    const Rect domain = SweepFrameDomain(swept);
    CrestStats sampled_stats, oracle_stats;
    const HeatmapGrid sampled = RectilinearRaster<RasterStripSink>(
        swept, domain, c.slabs, &sampled_log, &sampled_stats);
    const HeatmapGrid oracle = RectilinearRaster<WalkAllStripSink>(
        swept, domain, c.slabs, &oracle_log, &oracle_stats);
    EXPECT_TRUE(SameBits(sampled, oracle));
    ExpectSameStats(sampled_stats, oracle_stats);
    EXPECT_EQ(sampled_log.CountUnsampled(Cols(domain), 0, kRes), 0u);
  }
  // The arrangement has more strips than the grid has columns, so the
  // sampled sweep really skipped strips and the oracle really walked them.
  EXPECT_GT(sampled_log.size(), 0u);
  EXPECT_LT(sampled_log.size(), oracle_log.size());
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, RasterSampleTable,
                         ::testing::ValuesIn(AllCases()), CaseName);

// A tile fragment: global axes, a column/row window strictly inside the
// grid and a non-zero origin, swept over every circle (a tile sweep's
// circles reach past its window the same way).
TEST(RasterSampleTest, FragmentWindowMatchesOracle) {
  constexpr int kColLo = 13, kColHi = 29, kRowLo = 7, kRowHi = 40;
  const PixelAxis cols = Cols(kDomain);
  const PixelAxis rows = Rows(kDomain);
  SizeInfluence measure;
  for (const Metric metric : {Metric::kLInf, Metric::kL2}) {
    const std::vector<NnCircle> circles = MakeCircles(metric, 2000);
    StripLog sampled_log, oracle_log;
    HeatmapGrid sampled(kColHi - kColLo, kRowHi - kRowLo, kDomain);
    HeatmapGrid oracle(kColHi - kColLo, kRowHi - kRowLo, kDomain);
    if (metric == Metric::kL2) {
      RecordingArcSink<RasterArcSink> real(&sampled_log, &sampled, cols, rows,
                                           kColLo, kColHi, kRowLo, kRowHi,
                                           kColLo, kRowLo);
      RecordingArcSink<WalkAllArcSink> walk(&oracle_log, &oracle, cols, rows,
                                            kColLo, kColHi, kRowLo, kRowHi,
                                            kColLo, kRowLo);
      CrestL2Options a, b;
      a.arc_sink = &real;
      b.arc_sink = &walk;
      ExpectSameStats(RunCrestL2ParallelStrips(circles, measure, 1, a),
                      RunCrestL2ParallelStrips(circles, measure, 1, b));
    } else {
      RecordingStripSink<RasterStripSink> real(
          &sampled_log, &sampled, cols, rows, kColLo, kColHi, kRowLo, kRowHi,
          kColLo, kRowLo);
      RecordingStripSink<WalkAllStripSink> walk(
          &oracle_log, &oracle, cols, rows, kColLo, kColHi, kRowLo, kRowHi,
          kColLo, kRowLo);
      CrestOptions a, b;
      a.strip_sink = &real;
      b.strip_sink = &walk;
      ExpectSameStats(RunCrestParallelStrips(circles, measure, 1, a),
                      RunCrestParallelStrips(circles, measure, 1, b));
    }
    EXPECT_TRUE(SameBits(sampled, oracle)) << MetricName(metric);
    EXPECT_GT(sampled.MaxValue(), 0.0);
    // The window clamp: strips that sample only columns outside
    // [kColLo, kColHi) are skipped too.
    EXPECT_EQ(sampled_log.CountUnsampled(cols, kColLo, kColHi), 0u)
        << MetricName(metric);
    EXPECT_GT(oracle_log.CountUnsampled(cols, kColLo, kColHi), 0u);
  }
}

// The dirty-rect splice: a slab-clipped sweep painting through a full-grid
// sink narrowed to a row window, over a grid that already holds values the
// window must leave alone.
TEST(RasterSampleTest, SpliceRowWindowMatchesOracle) {
  constexpr int kI0 = 9, kI1 = 22, kJ0 = 11, kJ1 = 35;  // columns, rows
  const double dx = (kDomain.hi.x - kDomain.lo.x) / kRes;
  const double clip_lo = kDomain.lo.x + kI0 * dx;
  const double clip_hi = kDomain.lo.x + kI1 * dx;
  SizeInfluence measure;
  for (const Metric metric : {Metric::kLInf, Metric::kL2}) {
    const std::vector<NnCircle> circles = MakeCircles(metric, 3000);
    StripLog sampled_log, oracle_log;
    HeatmapGrid sampled(kRes, kRes, kDomain, -1.0);
    HeatmapGrid oracle(kRes, kRes, kDomain, -1.0);
    RecordingStripSink<RasterStripSink> strip_real(&sampled_log, &sampled);
    RecordingStripSink<WalkAllStripSink> strip_walk(&oracle_log, &oracle);
    RecordingArcSink<RasterArcSink> arc_real(&sampled_log, &sampled);
    RecordingArcSink<WalkAllArcSink> arc_walk(&oracle_log, &oracle);
    strip_real.SetRowWindow(kJ0, kJ1);
    strip_walk.SetRowWindow(kJ0, kJ1);
    arc_real.SetRowWindow(kJ0, kJ1);
    arc_walk.SetRowWindow(kJ0, kJ1);
    CrestOptions crest_real, crest_walk;
    crest_real.strip_sink = &strip_real;
    crest_walk.strip_sink = &strip_walk;
    CrestL2Options l2_real, l2_walk;
    l2_real.arc_sink = &arc_real;
    l2_walk.arc_sink = &arc_walk;
    CountingSink labels;
    const MetricSweepStats real =
        RunCrestSlabMetric(metric, circles, measure, &labels, clip_lo,
                           clip_hi, crest_real, l2_real);
    const MetricSweepStats walk =
        RunCrestSlabMetric(metric, circles, measure, &labels, clip_lo,
                           clip_hi, crest_walk, l2_walk);
    ExpectSameStats(real.crest, walk.crest);
    ExpectSameStats(real.l2, walk.l2);
    EXPECT_TRUE(SameBits(sampled, oracle)) << MetricName(metric);
    EXPECT_EQ(sampled_log.CountUnsampled(Cols(kDomain), kI0, kI1), 0u)
        << MetricName(metric);
    EXPECT_GT(sampled_log.size(), 0u);
    EXPECT_LT(sampled_log.size(), oracle_log.size());
    // Pixels outside the slab and the row window kept their old value.
    EXPECT_EQ(sampled.At(kI0 - 1, 20), -1.0);
    EXPECT_EQ(sampled.At(15, kJ1), -1.0);
  }
}

TEST(RasterSampleTest, SamplesIsTheColumnCenterTest) {
  HeatmapGrid grid(4, 2, Rect{{0, 0}, {4, 2}});  // column centers .5 .. 3.5
  const RasterStripSink strip(&grid);
  const RasterArcSink arc(&grid);
  for (const auto& [x0, x1, expected] :
       std::vector<std::tuple<double, double, bool>>{
           {0.0, 0.5, false},  // half-open: the center at x1 is outside
           {0.5, 0.6, true},   // the center at x0 is inside
           {0.6, 1.4, false},  // between two centers
           {3.6, 9.0, false},  // right of the last center
           {-9.0, 0.4, false},
           {-1e300, 1e300, true}}) {
    EXPECT_EQ(strip.Samples(x0, x1), expected) << x0 << " " << x1;
    EXPECT_EQ(arc.Samples(x0, x1), expected) << x0 << " " << x1;
  }
  // A fragment window samples only its own columns.
  HeatmapGrid fragment(2, 2, Rect{{0, 0}, {4, 2}});
  const PixelAxis cols(0.0, 1.0, 4);
  const PixelAxis rows(0.0, 1.0, 2);
  const RasterStripSink window(&fragment, cols, rows, 1, 3, 0, 2, 1, 0);
  EXPECT_FALSE(window.Samples(0.0, 1.0));  // column 0 only
  EXPECT_TRUE(window.Samples(1.0, 2.0));
  EXPECT_FALSE(window.Samples(3.0, 4.0));  // column 3 only
}

}  // namespace
}  // namespace rnnhm
