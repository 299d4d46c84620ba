// Ablations of the design choices DESIGN.md calls out:
//   1. changed intervals + cached base sets (CREST vs CREST-A): labelings
//      and influence evaluations saved;
//   2. influence-bound pruning inside the Pruning comparator;
//   3. enclosure-index backend for the baseline (segment tree vs R-tree);
//   4. the element-distinctness reduction (Section VI-C) as a scaling probe
//      of the n log n term;
//   5. regular-grid granularity against the exact arrangement;
//   6. the element-distinctness reduction;
//   7. parallel slab decomposition;
//   8. count-only labeling: the paper's set-copying CREST against the
//      running-count path a size measure with a set-blind sink takes;
//   9. sample-aware strip emission: raster self-time (build minus
//      sweep-only) with a sink that asks for every strip against the real
//      raster sink, which declines strips holding no pixel-column center.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/baseline.h"
#include "core/crest.h"
#include "core/crest_l2.h"
#include "core/crest_parallel.h"
#include "core/pruning.h"
#include "core/regular_grid.h"
#include "data/generators.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"
#include "heatmap/raster_sink.h"

using namespace rnnhm;
using namespace rnnhm::bench;

namespace {

// Discards labelings but keeps the default reads_sets(), so the sweep
// copies every RNN set for it (Section V-D's base sets).
class SetReadingSink : public RegionLabelSink {
 public:
  void OnRegionLabel(const Rect&, std::span<const int32_t>, double) override {
  }
};

// Raster sinks that ask for every strip, so the sweep walks the line
// status at every event even where no pixel column is sampled.
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

// Fastest of `reps` timed runs of f.
template <typename F>
double MinMs(int reps, F&& f) {
  double best = TimeMs(f);
  for (int r = 1; r < reps; ++r) best = std::min(best, TimeMs(f));
  return best;
}

}  // namespace

int main() {
  const bool full = FullMode();
  SizeInfluence measure;

  std::printf("=== Ablation 1: changed-interval optimization ===\n");
  std::printf("%-10s %12s %12s %10s %12s %12s\n", "|O|", "k(CREST)",
              "k(CREST-A)", "saved", "CREST ms", "CREST-A ms");
  {
    const Dataset ds = MakeDataset(DatasetKind::kNyc, 1);
    for (const size_t n : full ? std::vector<size_t>{1024, 4096, 16384, 65536}
                               : std::vector<size_t>{1024, 4096, 16384}) {
      const PreparedWorkload p =
          Prepare(ds, n, std::max<size_t>(1, n / 64), Metric::kL1, n);
      CountingSink crest_sink, a_sink;
      const double crest_ms =
          TimeMs([&] { RunCrestL1(p.circles, measure, &crest_sink); });
      CrestOptions options;
      options.use_changed_intervals = false;
      const double a_ms =
          TimeMs([&] { RunCrestL1(p.circles, measure, &a_sink, options); });
      std::printf("%-10zu %12zu %12zu %9.1fx %12.1f %12.1f\n", n,
                  crest_sink.count(), a_sink.count(),
                  static_cast<double>(a_sink.count()) /
                      std::max<size_t>(1, crest_sink.count()),
                  crest_ms, a_ms);
    }
  }

  std::printf("\n=== Ablation 2: influence-bound pruning in Pruning ===\n");
  std::printf("%-10s %14s %14s %14s %14s\n", "|O|", "nodes(on)",
              "nodes(off)", "ms(on)", "ms(off)");
  {
    const Dataset ds = MakeDataset(DatasetKind::kUniform, 2);
    for (const size_t n : full ? std::vector<size_t>{128, 256, 512}
                               : std::vector<size_t>{64, 128, 256}) {
      // Keep overlap degrees tractable (|F| = |O|/4) so both variants
      // finish and the node-count effect of the bound is visible.
      const PreparedWorkload p =
          Prepare(ds, n, std::max<size_t>(1, n / 4), Metric::kL2, n);
      PruningResult on, off;
      PruningOptions opt_on, opt_off;
      opt_on.time_budget_ms = opt_off.time_budget_ms = 10000.0;
      opt_off.use_bound_pruning = false;
      const double ms_on =
          TimeMs([&] { on = RunPruning(p.circles, measure, opt_on); });
      const double ms_off =
          TimeMs([&] { off = RunPruning(p.circles, measure, opt_off); });
      std::printf("%-10zu %14zu %14zu %14.1f %14.1f%s\n", n, on.num_nodes,
                  off.num_nodes, ms_on, ms_off,
                  (on.timed_out || off.timed_out) ? "  (budget hit)" : "");
    }
  }

  std::printf("\n=== Ablation 3: baseline enclosure-index backend ===\n");
  std::printf("%-10s %12s %12s %12s %12s\n", "|O|", "segtree", "rtree",
              "quadtree", "intervaltree");
  {
    const Dataset ds = MakeDataset(DatasetKind::kLa, 3);
    for (const size_t n : full ? std::vector<size_t>{256, 512, 1024, 2048}
                               : std::vector<size_t>{256, 512, 1024}) {
      const PreparedWorkload p =
          Prepare(ds, n, std::max<size_t>(1, n / 32), Metric::kL1, n);
      std::printf("%-10zu", n);
      for (const EnclosureBackend backend :
           {EnclosureBackend::kSegmentTree, EnclosureBackend::kRTree,
            EnclosureBackend::kQuadTree, EnclosureBackend::kIntervalTree}) {
        CountingSink sink;
        const double ms = TimeMs(
            [&] { RunBaselineL1(p.circles, measure, &sink, backend); });
        std::printf(" %12.1f", ms);
      }
      std::printf("\n");
    }
  }

  std::printf("\n=== Ablation 4: line-status container "
              "(skip list vs std::multimap) ===\n");
  std::printf("%-10s %14s %14s\n", "|O|", "skiplist ms", "multimap ms");
  {
    const Dataset ds = MakeDataset(DatasetKind::kUniform, 5);
    for (const size_t n : full ? std::vector<size_t>{4096, 16384, 65536}
                               : std::vector<size_t>{4096, 16384}) {
      const PreparedWorkload p =
          Prepare(ds, n, std::max<size_t>(1, n / 64), Metric::kL1, n);
      CountingSink s1, s2;
      const double skip_ms =
          TimeMs([&] { RunCrestL1(p.circles, measure, &s1); });
      CrestOptions options;
      options.status_backend = StatusBackend::kStdMultimap;
      const double map_ms =
          TimeMs([&] { RunCrestL1(p.circles, measure, &s2, options); });
      std::printf("%-10zu %14.1f %14.1f\n", n, skip_ms, map_ms);
    }
  }

  std::printf("\n=== Ablation 5: regular grid granularity dilemma "
              "(Section I) ===\n");
  std::printf("%-10s %12s %14s %14s %12s\n", "grid", "cells",
              "distinct sets", "exact regions", "ms");
  {
    const Dataset ds = MakeDataset(DatasetKind::kNyc, 6);
    const PreparedWorkload p = Prepare(ds, 2048, 32, Metric::kL1, 7);
    // Exact count via CREST (distinct non-empty sets as the yardstick).
    DistinctSetSink exact;
    RunCrestL1(p.circles, measure, &exact);
    std::vector<NnCircle> rotated;  // the grid runs in the rotated frame too
    for (const int g : full ? std::vector<int>{32, 128, 512, 2048}
                            : std::vector<int>{32, 128, 512}) {
      CountingSink sink;
      RegularGridStats stats;
      const double ms = TimeMs([&] {
        stats = RunRegularGrid(RotateCirclesToLInf(p.circles), measure,
                               &sink, g);
      });
      std::printf("%-10d %12zu %14zu %14zu %12.1f\n", g, stats.num_cells,
                  stats.num_distinct_sets, exact.sets().size(), ms);
    }
  }

  std::printf("\n=== Ablation 6: element-distinctness reduction "
              "(Section VI-C) ===\n");
  std::printf("%-10s %14s %14s\n", "n", "distinct sets", "ms");
  {
    Rng rng(4);
    for (const size_t n : full ? std::vector<size_t>{1024, 8192, 65536}
                               : std::vector<size_t>{1024, 8192}) {
      std::vector<double> values;
      for (size_t i = 0; i < n; ++i) values.push_back(rng.Uniform(0, 1));
      const auto squares = MakeElementDistinctnessSquares(values);
      DistinctSetSink sink;
      const double ms = TimeMs([&] { RunCrest(squares, measure, &sink); });
      std::printf("%-10zu %14zu %14.1f\n", n, sink.sets().size(), ms);
    }
    std::printf("(with exactly representable inputs the reduction gives n "
                "distinct sets;\n random doubles splinter the shared corner "
                "by 1 ulp, adding sliver regions)\n");
  }

  std::printf("\n=== Ablation 7: parallel slab decomposition ===\n");
  std::printf("%-10s %12s %12s %12s %12s\n", "|O|", "1 thread", "2 threads",
              "4 threads", "8 threads");
  {
    const Dataset ds = MakeDataset(DatasetKind::kNyc, 8);
    for (const size_t n : full ? std::vector<size_t>{16384, 65536}
                               : std::vector<size_t>{8192, 16384}) {
      const PreparedWorkload p =
          Prepare(ds, n, std::max<size_t>(1, n / 64), Metric::kL1, n);
      const auto rotated = RotateCirclesToLInf(p.circles);
      std::printf("%-10zu", n);
      for (const size_t threads : {1u, 2u, 4u, 8u}) {
        std::vector<CountingSink> sinks(threads);
        std::vector<RegionLabelSink*> ptrs;
        for (auto& s : sinks) ptrs.push_back(&s);
        const double ms =
            TimeMs([&] { RunCrestParallel(rotated, measure, ptrs); });
        std::printf(" %12.1f", ms);
      }
      std::printf("\n");
    }
  }

  std::printf("\n=== Ablation 8: count-only labeling (size measure, "
              "set-blind sink) ===\n");
  std::printf("%-10s %-6s %12s %12s %12s %9s\n", "|O|", "metric", "k",
              "sets ms", "count ms", "speedup");
  {
    const Dataset ds = MakeDataset(DatasetKind::kUniform, 9);
    struct Row {
      size_t clients, facilities;
      Metric metric;
    };
    for (const Row& row : full ? std::vector<Row>{{2000, 20, Metric::kLInf},
                                                  {8000, 80, Metric::kLInf},
                                                  {400, 16, Metric::kL2},
                                                  {1600, 64, Metric::kL2}}
                               : std::vector<Row>{{2000, 20, Metric::kLInf},
                                                  {400, 16, Metric::kL2}}) {
      const PreparedWorkload p =
          Prepare(ds, row.clients, row.facilities, row.metric, 10);
      SetReadingSink set_sink;
      CountingSink count_sink;
      auto sweep = [&](RegionLabelSink* sink) {
        if (row.metric == Metric::kL2) {
          RunCrestL2(p.circles, measure, sink);
        } else {
          RunCrest(p.circles, measure, sink);
        }
      };
      const double sets_ms = TimeMs([&] { sweep(&set_sink); });
      const double count_ms = TimeMs([&] { sweep(&count_sink); });
      std::printf("%-10zu %-6s %12zu %12.1f %12.1f %8.1fx\n", row.clients,
                  row.metric == Metric::kL2 ? "L2" : "Linf",
                  count_sink.count(), sets_ms, count_ms,
                  sets_ms / std::max(count_ms, 1e-3));
    }
  }

  std::printf("\n=== Ablation 9: sample-aware strip emission (192^2 "
              "raster, min of 3) ===\n");
  std::printf("%-10s %-6s %10s %12s %12s %12s %12s %6s\n", "|O|", "metric",
              "sweep ms", "walk-all ms", "sampled ms", "raster(all)",
              "raster(smp)", "equal");
  {
    constexpr int kRes = 192;
    const Dataset ds = MakeDataset(DatasetKind::kUniform, 11);
    struct Row {
      size_t clients, facilities;
      Metric metric;
    };
    for (const Row& row : {Row{2000, 20, Metric::kLInf},
                           Row{400, 16, Metric::kL2}}) {
      const PreparedWorkload p =
          Prepare(ds, row.clients, row.facilities, row.metric, 12);
      std::vector<Point> points = p.workload.clients;
      points.insert(points.end(), p.workload.facilities.begin(),
                    p.workload.facilities.end());
      const Rect domain = BoundingBox(points);
      const double background = measure.Evaluate({});
      // One sequential sweep, rasterizing through `strip`/`arc` when set.
      auto sweep = [&](StripSink* strip, ArcStripSink* arc) {
        CountingSink labels;
        if (row.metric == Metric::kL2) {
          CrestL2Options options;
          options.arc_sink = arc;
          RunCrestL2(p.circles, measure, &labels, options);
        } else {
          CrestOptions options;
          options.strip_sink = strip;
          RunCrest(p.circles, measure, &labels, options);
        }
      };
      auto build = [&](HeatmapGrid* grid, bool walk_all) {
        *grid = HeatmapGrid(kRes, kRes, domain, background);
        if (walk_all) {
          WalkAllStripSink strip(grid);
          WalkAllArcSink arc(grid);
          sweep(&strip, &arc);
        } else {
          RasterStripSink strip(grid);
          RasterArcSink arc(grid);
          sweep(&strip, &arc);
        }
      };
      HeatmapGrid walk_grid(1, 1, domain), sampled_grid(1, 1, domain);
      const double sweep_ms = MinMs(3, [&] { sweep(nullptr, nullptr); });
      const double walk_ms = MinMs(3, [&] { build(&walk_grid, true); });
      const double sampled_ms = MinMs(3, [&] { build(&sampled_grid, false); });
      const bool equal =
          walk_grid.values().size() == sampled_grid.values().size() &&
          std::memcmp(walk_grid.data(), sampled_grid.data(),
                      sizeof(double) * walk_grid.values().size()) == 0;
      std::printf("%-10zu %-6s %10.1f %12.1f %12.1f %12.1f %12.1f %6s\n",
                  row.clients, row.metric == Metric::kL2 ? "L2" : "Linf",
                  sweep_ms, walk_ms, sampled_ms, walk_ms - sweep_ms,
                  sampled_ms - sweep_ms, equal ? "yes" : "NO");
      if (!equal) return 1;
    }
  }
  return 0;
}
