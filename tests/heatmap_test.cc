#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/brute_force.h"
#include "heatmap/heatmap.h"
#include "heatmap/image.h"
#include "heatmap/influence.h"
#include "heatmap/superimposition.h"
#include "nn/nn_circle_builder.h"

namespace rnnhm {
namespace {

TEST(HeatmapGridTest, GeometryAccessors) {
  HeatmapGrid grid(4, 2, Rect{{0, 0}, {4, 2}}, 0.5);
  EXPECT_EQ(grid.width(), 4);
  EXPECT_EQ(grid.height(), 2);
  EXPECT_DOUBLE_EQ(grid.At(0, 0), 0.5);
  const Point c = grid.PixelCenter(1, 0);
  EXPECT_DOUBLE_EQ(c.x, 1.5);
  EXPECT_DOUBLE_EQ(c.y, 0.5);
  grid.At(3, 1) = 9.0;
  EXPECT_DOUBLE_EQ(grid.MaxValue(), 9.0);
  EXPECT_DOUBLE_EQ(grid.Sample({3.9, 1.9}), 9.0);
  EXPECT_DOUBLE_EQ(grid.Sample({100, 100}), 9.0);  // clamped
  EXPECT_DOUBLE_EQ(grid.Sample({-100, -100}), 0.5);
}

TEST(HeatmapGridTest, SampleClampsFarOffAndNaNPoints) {
  // Cell offsets beyond int range must clamp like near ones, never wrap
  // through an out-of-range cast.
  HeatmapGrid grid(4, 2, Rect{{0, 0}, {4, 2}}, 0.5);
  grid.At(3, 1) = 9.0;
  grid.At(3, 0) = 7.0;
  grid.At(0, 1) = 3.0;
  EXPECT_DOUBLE_EQ(grid.Sample({3e9, 3e9}), 9.0);
  EXPECT_DOUBLE_EQ(grid.Sample({1e300, 1e300}), 9.0);
  EXPECT_DOUBLE_EQ(grid.Sample({1e300, -1e300}), 7.0);
  EXPECT_DOUBLE_EQ(grid.Sample({-3e9, 3e9}), 3.0);
  EXPECT_DOUBLE_EQ(grid.Sample({-1e300, -1e300}), 0.5);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(grid.Sample({inf, inf}), 9.0);
  EXPECT_DOUBLE_EQ(grid.Sample({-inf, inf}), 3.0);
  // A NaN coordinate reads index 0 on its axis.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(grid.Sample({nan, nan}), 0.5);
  EXPECT_DOUBLE_EQ(grid.Sample({nan, 1.5}), 3.0);
  EXPECT_DOUBLE_EQ(grid.Sample({3.5, nan}), 7.0);
  int i = -1, j = -1;
  GridCellOf(grid.domain(), grid.width(), grid.height(), {2.5, 0.5}, &i, &j);
  EXPECT_EQ(i, 2);
  EXPECT_EQ(j, 0);
}

TEST(HeatmapBuilderTest, LInfExactVsBruteForce) {
  Rng rng(140);
  std::vector<NnCircle> circles;
  for (int i = 0; i < 50; ++i) {
    circles.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                               rng.Uniform(0.02, 0.2), i});
  }
  SizeInfluence measure;
  const Rect domain{{-0.1, -0.1}, {1.1, 1.1}};
  const HeatmapGrid fast =
      BuildHeatmapLInf(circles, measure, domain, 120, 120);
  const HeatmapGrid slow =
      BuildHeatmapBruteForce(circles, Metric::kLInf, measure, domain, 120, 120);
  for (int i = 0; i < 120; ++i) {
    for (int j = 0; j < 120; ++j) {
      ASSERT_DOUBLE_EQ(fast.At(i, j), slow.At(i, j))
          << "pixel " << i << "," << j;
    }
  }
}

TEST(HeatmapBuilderTest, NonSquareGridAndDomain) {
  Rng rng(141);
  std::vector<NnCircle> circles;
  for (int i = 0; i < 25; ++i) {
    circles.push_back(NnCircle{{rng.Uniform(0, 2), rng.Uniform(0, 1)},
                               rng.Uniform(0.05, 0.3), i});
  }
  SizeInfluence measure;
  const Rect domain{{0, 0}, {2, 1}};
  const HeatmapGrid fast = BuildHeatmapLInf(circles, measure, domain, 160, 60);
  const HeatmapGrid slow =
      BuildHeatmapBruteForce(circles, Metric::kLInf, measure, domain, 160, 60);
  for (int i = 0; i < 160; i += 2) {
    for (int j = 0; j < 60; j += 2) {
      ASSERT_DOUBLE_EQ(fast.At(i, j), slow.At(i, j));
    }
  }
}

TEST(HeatmapBuilderTest, BackgroundIsEmptySetInfluence) {
  // With a measure that maps the empty set to a nonzero value, uncovered
  // pixels must carry that value.
  class OffsetMeasure : public InfluenceMeasure {
   public:
    double Evaluate(std::span<const int32_t> clients) const override {
      return 10.0 + static_cast<double>(clients.size());
    }
  };
  const std::vector<NnCircle> circles{{{0.5, 0.5}, 0.1, 0}};
  OffsetMeasure measure;
  const Rect domain{{0, 0}, {1, 1}};
  const HeatmapGrid grid = BuildHeatmapLInf(circles, measure, domain, 50, 50);
  EXPECT_DOUBLE_EQ(grid.At(0, 0), 10.0);           // far corner
  EXPECT_DOUBLE_EQ(grid.Sample({0.5, 0.5}), 11.0); // inside the square
}

TEST(SuperimpositionTest, EqualsSizeHeatmapForSizeMeasure) {
  // Fig. 3(b): overlay counts equal the size-measure heat map.
  Rng rng(142);
  std::vector<NnCircle> circles;
  for (int i = 0; i < 30; ++i) {
    circles.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                               rng.Uniform(0.05, 0.25), i});
  }
  SizeInfluence measure;
  const Rect domain{{-0.2, -0.2}, {1.2, 1.2}};
  const HeatmapGrid heat = BuildHeatmapLInf(circles, measure, domain, 90, 90);
  const HeatmapGrid overlay =
      BuildSuperimposition(circles, Metric::kLInf, domain, 90, 90);
  for (int i = 0; i < 90; ++i) {
    for (int j = 0; j < 90; ++j) {
      ASSERT_DOUBLE_EQ(heat.At(i, j), overlay.At(i, j));
    }
  }
}

TEST(SuperimpositionTest, DisagreesForGenericMeasures) {
  // The paper's Fig. 3 argument, rebuilt with L-infinity squares so the
  // region layout is exact: regions {o1,o2,o4} and {o1,o3,o4} both have
  // superimposition depth 3 (the overlay's joint maximum), but under the
  // connectivity measure the first has heat 3 and the second only 1 —
  // the overlay cannot tell them apart.
  const std::vector<NnCircle> circles{
      {{2.0, 2.0}, 2.0, 0},   // o1: [0,4]x[0,4]
      {{5.0, 2.0}, 2.0, 1},   // o2: [3,7]x[0,4]
      {{0.0, 4.0}, 2.0, 2},   // o3: [-2,2]x[2,6]
      {{3.5, 5.0}, 2.0, 3}};  // o4: [1.5,5.5]x[3,7]
  ConnectivityInfluence connected(4, {{0, 1}, {0, 3}, {1, 3}});
  const Point in_124{3.5, 3.5};   // inside o1, o2, o4
  const Point in_134{1.75, 3.5};  // inside o1, o3, o4
  // Overlay depth is 3 at both points and nowhere higher.
  const Rect domain{{-2.5, -0.5}, {7.5, 7.5}};
  const HeatmapGrid overlay =
      BuildSuperimposition(circles, Metric::kLInf, domain, 100, 100);
  EXPECT_DOUBLE_EQ(overlay.Sample(in_124), 3.0);
  EXPECT_DOUBLE_EQ(overlay.Sample(in_134), 3.0);
  EXPECT_DOUBLE_EQ(overlay.MaxValue(), 3.0);
  // The true heat map separates them: 3 connected pairs vs 1.
  const HeatmapGrid heat = BuildHeatmapBruteForce(
      circles, Metric::kLInf, connected, domain, 100, 100);
  EXPECT_DOUBLE_EQ(heat.Sample(in_124), 3.0);
  EXPECT_DOUBLE_EQ(heat.Sample(in_134), 1.0);
  EXPECT_DOUBLE_EQ(heat.MaxValue(), 3.0);
}

TEST(ImageTest, WritesValidPgmAndPpm) {
  HeatmapGrid grid(8, 4, Rect{{0, 0}, {8, 4}});
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) grid.At(i, j) = i + j;
  }
  const std::string pgm = "/tmp/rnnhm_test.pgm";
  const std::string ppm = "/tmp/rnnhm_test.ppm";
  ASSERT_TRUE(WritePgm(grid, pgm));
  ASSERT_TRUE(WritePpm(grid, ppm));
  // Check headers and sizes.
  std::FILE* f = std::fopen(pgm.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[3] = {};
  ASSERT_EQ(std::fscanf(f, "%2s", magic), 1);
  EXPECT_STREQ(magic, "P5");
  std::fseek(f, 0, SEEK_END);
  EXPECT_GE(std::ftell(f), 8 * 4);
  std::fclose(f);
  f = std::fopen(ppm.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fscanf(f, "%2s", magic), 1);
  EXPECT_STREQ(magic, "P6");
  std::fseek(f, 0, SEEK_END);
  EXPECT_GE(std::ftell(f), 8 * 4 * 3);
  std::fclose(f);
  std::remove(pgm.c_str());
  std::remove(ppm.c_str());
}

TEST(ImageTest, FailsOnUnwritablePath) {
  HeatmapGrid grid(2, 2, Rect{{0, 0}, {1, 1}});
  EXPECT_FALSE(WritePgm(grid, "/nonexistent_dir/x.pgm"));
  EXPECT_FALSE(WritePpm(grid, "/nonexistent_dir/x.ppm"));
}

TEST(HeatmapBuilderTest, ParallelLInfBuilderIsBitIdenticalToSequential) {
  Rng rng(90);
  std::vector<NnCircle> circles;
  for (int i = 0; i < 150; ++i) {
    circles.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                               rng.Uniform(0.01, 0.15), i});
  }
  SizeInfluence measure;
  const Rect domain{{-0.1, -0.1}, {1.1, 1.1}};
  const HeatmapGrid want =
      BuildHeatmapLInf(circles, measure, domain, 80, 80);
  for (const int slabs : {1, 3, 8}) {
    const HeatmapGrid got =
        BuildHeatmapLInfParallel(circles, measure, domain, 80, 80, slabs);
    ASSERT_EQ(got.values().size(), want.values().size());
    for (size_t i = 0; i < want.values().size(); ++i) {
      ASSERT_EQ(got.values()[i], want.values()[i])
          << "slabs " << slabs << ", flat index " << i;
    }
  }
}

TEST(BoundingBoxTest, ComputesAndPads) {
  const std::vector<Point> pts{{0, 0}, {2, 1}, {-1, 3}};
  const Rect box = BoundingBox(pts);
  EXPECT_EQ(box, Rect({{-1, 0}, {2, 3}}));
  const Rect padded = BoundingBox(pts, 0.1);
  EXPECT_DOUBLE_EQ(padded.lo.x, -1.3);  // pad = 0.1 * max extent (3)
  EXPECT_DOUBLE_EQ(padded.hi.y, 3.3);
}

}  // namespace
}  // namespace rnnhm
