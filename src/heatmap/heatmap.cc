#include "heatmap/heatmap.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/brute_force.h"
#include "core/crest_l2.h"
#include "core/crest_parallel.h"
#include "heatmap/raster_sink.h"
#include "nn/nn_circle_builder.h"

namespace rnnhm {

HeatmapGrid::HeatmapGrid(int width, int height, const Rect& domain,
                         double background)
    : width_(width), height_(height), domain_(domain) {
  RNNHM_CHECK(width > 0 && height > 0);
  RNNHM_CHECK(domain.lo.x < domain.hi.x && domain.lo.y < domain.hi.y);
  values_.assign(static_cast<size_t>(width) * height, background);
}

Point HeatmapGrid::PixelCenter(int i, int j) const {
  const double dx = (domain_.hi.x - domain_.lo.x) / width_;
  const double dy = (domain_.hi.y - domain_.lo.y) / height_;
  return Point{domain_.lo.x + (i + 0.5) * dx, domain_.lo.y + (j + 0.5) * dy};
}

namespace {

// Truncates the cell-unit offset t to an index in [0, n). Clamping before
// the cast keeps out-of-int-range and NaN offsets defined; in range it is
// the plain truncating cast.
int ClampedCell(double t, int n) {
  if (!(t > 0.0)) return 0;
  if (t >= n - 1.0) return n - 1;
  return static_cast<int>(t);
}

}  // namespace

void GridCellOf(const Rect& domain, int width, int height, const Point& p,
                int* i, int* j) {
  const double dx = (domain.hi.x - domain.lo.x) / width;
  const double dy = (domain.hi.y - domain.lo.y) / height;
  *i = ClampedCell((p.x - domain.lo.x) / dx, width);
  *j = ClampedCell((p.y - domain.lo.y) / dy, height);
}

double HeatmapGrid::Sample(const Point& p) const {
  int i = 0, j = 0;
  GridCellOf(domain_, width_, height_, p, &i, &j);
  return At(i, j);
}

double HeatmapGrid::MaxValue() const {
  double m = 0.0;
  for (const double v : values_) m = std::max(m, v);
  return m;
}

HeatmapGrid BuildHeatmapLInf(const std::vector<NnCircle>& circles,
                             const InfluenceMeasure& measure,
                             const Rect& domain, int width, int height) {
  HeatmapGrid grid(width, height, domain, measure.Evaluate({}));
  RasterStripSink raster(&grid);
  CountingSink counter;  // labels are not needed, only the strips
  CrestOptions options;
  options.strip_sink = &raster;
  RunCrest(circles, measure, &counter, options);
  return grid;
}

HeatmapGrid BuildHeatmapLInfParallel(const std::vector<NnCircle>& circles,
                                     const InfluenceMeasure& measure,
                                     const Rect& domain, int width,
                                     int height, int num_slabs) {
  HeatmapGrid grid(width, height, domain, measure.Evaluate({}));
  RasterStripSink raster(&grid);
  CrestOptions options;
  options.strip_sink = &raster;
  RunCrestParallelStrips(circles, measure, num_slabs, options);
  return grid;
}

namespace {

// Shared tail of the L1 builders: sweep rotated (L-infinity) circles over
// the rotated domain and resample back into the requested frame.
HeatmapGrid ResampleRotatedSweep(const std::vector<NnCircle>& rot_circles,
                                 const InfluenceMeasure& measure,
                                 const Rect& domain, int width, int height,
                                 int num_slabs, double oversample,
                                 CrestStats* stats_out,
                                 const CrestOptions& sweep_options) {
  const Point corners[4] = {domain.lo,
                            {domain.hi.x, domain.lo.y},
                            {domain.lo.x, domain.hi.y},
                            domain.hi};
  Rect rot_domain = EmptyRect();
  for (const Point& c : corners) {
    const Point r = RotateToLInf(c);
    rot_domain = rot_domain.Union(Rect{r, r});
  }
  const int rot_res = static_cast<int>(
      std::ceil(std::max(width, height) * std::max(1.0, oversample)));
  HeatmapGrid rotated(rot_res, rot_res, rot_domain, measure.Evaluate({}));
  {
    RNNHM_CHECK_MSG(sweep_options.strip_sink == nullptr,
                    "the L1 builder owns the strip sink");
    RasterStripSink raster(&rotated);
    CrestOptions options = sweep_options;
    options.strip_sink = &raster;
    const CrestStats stats =
        RunCrestParallelStrips(rot_circles, measure, num_slabs, options);
    if (stats_out != nullptr) *stats_out = stats;
  }

  HeatmapGrid out(width, height, domain, measure.Evaluate({}));
  for (int i = 0; i < width; ++i) {
    for (int j = 0; j < height; ++j) {
      out.At(i, j) = rotated.Sample(RotateToLInf(out.PixelCenter(i, j)));
    }
  }
  return out;
}

}  // namespace

HeatmapGrid BuildHeatmapL1(const std::vector<Point>& clients,
                           const std::vector<Point>& facilities,
                           const InfluenceMeasure& measure,
                           const Rect& domain, int width, int height,
                           double oversample) {
  // Sweep in the rotated frame over the rotated domain's bounding box.
  std::vector<Point> rot_clients;
  rot_clients.reserve(clients.size());
  for (const Point& p : clients) rot_clients.push_back(RotateToLInf(p));
  std::vector<Point> rot_facilities;
  rot_facilities.reserve(facilities.size());
  for (const Point& p : facilities) {
    rot_facilities.push_back(RotateToLInf(p));
  }
  const std::vector<NnCircle> circles =
      BuildNnCircles(rot_clients, rot_facilities, Metric::kLInf);
  return ResampleRotatedSweep(circles, measure, domain, width, height,
                              /*num_slabs=*/1, oversample,
                              /*stats_out=*/nullptr, CrestOptions{});
}

HeatmapGrid BuildHeatmapL1Parallel(const std::vector<NnCircle>& l1_circles,
                                   const InfluenceMeasure& measure,
                                   const Rect& domain, int width, int height,
                                   int num_slabs, double oversample,
                                   CrestStats* stats_out,
                                   const CrestOptions& sweep_options) {
  return ResampleRotatedSweep(RotateCirclesToLInf(l1_circles), measure,
                              domain, width, height, num_slabs, oversample,
                              stats_out, sweep_options);
}

HeatmapGrid BuildHeatmapL2(const std::vector<NnCircle>& circles,
                           const InfluenceMeasure& measure,
                           const Rect& domain, int width, int height) {
  return BuildHeatmapL2Parallel(circles, measure, domain, width, height,
                                /*num_slabs=*/1);
}

HeatmapGrid BuildHeatmapL2Parallel(const std::vector<NnCircle>& circles,
                                   const InfluenceMeasure& measure,
                                   const Rect& domain, int width, int height,
                                   int num_slabs) {
  HeatmapGrid grid(width, height, domain, measure.Evaluate({}));
  RasterArcSink raster(&grid);
  CrestL2Options options;
  options.arc_sink = &raster;
  RunCrestL2ParallelStrips(circles, measure, num_slabs, options);
  return grid;
}

HeatmapGrid BuildHeatmapForMetric(Metric metric,
                                  const std::vector<NnCircle>& circles,
                                  const InfluenceMeasure& measure,
                                  const Rect& domain, int width, int height) {
  switch (metric) {
    case Metric::kLInf:
      return BuildHeatmapLInf(circles, measure, domain, width, height);
    case Metric::kL1:
      return BuildHeatmapL1Parallel(circles, measure, domain, width, height,
                                    /*num_slabs=*/1);
    case Metric::kL2:
    default:
      return BuildHeatmapL2(circles, measure, domain, width, height);
  }
}

HeatmapGrid BuildHeatmapBruteForce(const std::vector<NnCircle>& circles,
                                   Metric metric,
                                   const InfluenceMeasure& measure,
                                   const Rect& domain, int width,
                                   int height) {
  HeatmapGrid grid(width, height, domain, measure.Evaluate({}));
  std::vector<int32_t> rnn;
  for (int i = 0; i < width; ++i) {
    for (int j = 0; j < height; ++j) {
      rnn = BruteForceRnnSet(grid.PixelCenter(i, j), circles, metric);
      grid.At(i, j) = measure.Evaluate(rnn);
    }
  }
  return grid;
}

Rect BoundingBox(const std::vector<Point>& points, double pad_fraction) {
  Rect box = EmptyRect();
  for (const Point& p : points) box = box.Union(Rect{p, p});
  if (pad_fraction > 0.0 && box.Area() >= 0.0 && !points.empty()) {
    const double pad =
        pad_fraction *
        std::max(box.hi.x - box.lo.x, box.hi.y - box.lo.y);
    box.lo.x -= pad;
    box.lo.y -= pad;
    box.hi.x += pad;
    box.hi.y += pad;
  }
  return box;
}

}  // namespace rnnhm
