// Domain tiling: the tile-partitioned sweep benchmark (ROADMAP item 1).
//
// Two phases, each across the three metrics:
//   * sweep — one full raster built untiled (BuildHeatmap*Parallel) vs.
//             through a TilePlan at several grid sizes. The tiled build
//             sweeps every tile over just the circles that can influence
//             it, so the comparison shows what the per-tile circle
//             narrowing buys (and what the per-tile fixed costs eat).
//             Every tiled raster is checked bit-identical to the untiled
//             one — the run aborts on any mismatch.
//   * edit  — a cache-enabled HeatmapEngine serving the same request
//             tiled, then again after one circle moved: the tile-granular
//             cache keys resweep only the tiles the edit overlaps, while
//             an untiled engine would resweep the whole raster.
//
// Besides the text tables, the run writes a machine-readable summary to
// BENCH_tile.json (override the path with RNNHM_BENCH_JSON_TILE): one
// record per (phase, metric, grid) with untiled/tiled milliseconds, so CI
// can gate the tiling trajectory next to the other BENCH_*.json files.
// Set RNNHM_BENCH_FULL=1 for larger workloads.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "heatmap/influence.h"
#include "query/heatmap_engine.h"
#include "tile/tile_plan.h"

namespace rnnhm::bench {
namespace {

struct JsonRecord {
  std::string phase;
  std::string metric;
  int grid;            // tiles per side
  double cold_ms;      // untiled sweep / cold tiled serve
  double warm_ms;      // tiled sweep / post-edit tiled serve
  double extra = 0.0;  // sweep: 0; edit: tiles reswept after the edit
};

const Rect kDomain{{0, 0}, {1, 1}};

void RunSweepPhase(const Dataset& dataset, Metric metric, size_t clients,
                   size_t facilities, int resolution,
                   std::vector<JsonRecord>* records) {
  const PreparedWorkload w = Prepare(dataset, clients, facilities, metric, 91);
  SizeInfluence measure;
  const HeatmapGrid untiled = BuildHeatmapForMetric(
      metric, w.circles, measure, kDomain, resolution, resolution);
  const double untiled_ms = TimeMs([&] {
    BuildHeatmapForMetric(metric, w.circles, measure, kDomain, resolution,
                          resolution);
  });
  for (const int grid : {1, 2, 4}) {
    TilePlanOptions options;
    options.rows = grid;
    options.cols = grid;
    const TilePlan plan(metric, w.circles, kDomain, resolution, resolution,
                        options);
    const HeatmapGrid tiled = plan.Run(measure);
    if (tiled.values() != untiled.values()) {
      std::fprintf(stderr, "[sweep/%s] %dx%d tiling is NOT bit-identical\n",
                   MetricName(metric).c_str(), grid, grid);
      std::exit(1);
    }
    const double tiled_ms = TimeMs([&] { plan.Run(measure); });
    std::printf("[sweep/%s] %dx%d at %dx%d px: untiled %.1f ms, tiled "
                "%.1f ms (%.2fx), bit-identical\n",
                MetricName(metric).c_str(), grid, grid, resolution,
                resolution, untiled_ms, tiled_ms,
                tiled_ms > 0.0 ? untiled_ms / tiled_ms : 0.0);
    records->push_back(JsonRecord{"sweep", MetricName(metric), grid,
                                  untiled_ms, tiled_ms, 0.0});
  }
}

void RunEditPhase(const Dataset& dataset, Metric metric, size_t clients,
                  size_t facilities, int resolution, int grid,
                  std::vector<JsonRecord>* records) {
  const PreparedWorkload w = Prepare(dataset, clients, facilities, metric, 92);
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  options.cache_bytes = 512ull << 20;
  HeatmapEngine engine(measure, options);

  const CircleSetHandle cold_handle =
      engine.registry().Register(w.circles, metric);
  TiledServeStats cold_stats;
  const double cold_ms = TimeMs([&] {
    std::optional<HeatmapResponse> response;
    RNNHM_CHECK(engine
                    .ExecuteTiledChecked(HeatmapRequestV2{cold_handle, kDomain,
                                                          resolution,
                                                          resolution},
                                         grid, grid, &response, &cold_stats)
                    .ok());
  });

  // One local move: nudge the first circle. Only the tiles its old and
  // new bounding boxes overlap lose their cached fragments.
  std::vector<NnCircle> edited = w.circles;
  edited[0].center.x += 0.01;
  const CircleSetHandle warm_handle =
      engine.registry().Register(std::move(edited), metric);
  TiledServeStats warm_stats;
  const double warm_ms = TimeMs([&] {
    std::optional<HeatmapResponse> response;
    RNNHM_CHECK(engine
                    .ExecuteTiledChecked(HeatmapRequestV2{warm_handle, kDomain,
                                                          resolution,
                                                          resolution},
                                         grid, grid, &response, &warm_stats)
                    .ok());
  });

  std::printf("[edit/%s] %dx%d tiles at %dx%d px: cold %.1f ms (%d swept), "
              "after edit %.1f ms (%d swept, %d cached) — %.2fx\n",
              MetricName(metric).c_str(), grid, grid, resolution, resolution,
              cold_ms, cold_stats.swept_tiles, warm_ms,
              warm_stats.swept_tiles, warm_stats.cached_tiles,
              warm_ms > 0.0 ? cold_ms / warm_ms : 0.0);
  records->push_back(JsonRecord{"edit", MetricName(metric), grid, cold_ms,
                                warm_ms,
                                static_cast<double>(warm_stats.swept_tiles)});
}

void WriteJson(const std::vector<JsonRecord>& records) {
  const char* path = std::getenv("RNNHM_BENCH_JSON_TILE");
  if (path == nullptr) path = "BENCH_tile.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"tile\",\n  \"cells\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    std::fprintf(
        f,
        "    {\"phase\": \"%s\", \"metric\": \"%s\", \"grid\": %d, "
        "\"cold_ms\": %.3f, \"warm_ms\": %.3f, \"extra\": %.3f}%s\n",
        r.phase.c_str(), r.metric.c_str(), r.grid, r.cold_ms, r.warm_ms,
        r.extra, i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu cells)\n", path, records.size());
}

void Run() {
  const bool full = FullMode();
  const int resolution = full ? 512 : 192;
  const size_t linf_clients = full ? 20000 : 2000;
  const size_t l1_clients = full ? 12000 : 1500;
  const size_t l2_clients = full ? 5000 : 800;
  const Dataset dataset =
      MakeDataset(DatasetKind::kUniform, 42, (full ? 20000u : 2000u) * 4);

  std::vector<JsonRecord> records;
  RunSweepPhase(dataset, Metric::kLInf, linf_clients, linf_clients / 100,
                resolution, &records);
  RunSweepPhase(dataset, Metric::kL1, l1_clients, l1_clients / 100,
                resolution, &records);
  RunSweepPhase(dataset, Metric::kL2, l2_clients, l2_clients / 25, resolution,
                &records);
  RunEditPhase(dataset, Metric::kLInf, linf_clients, linf_clients / 100,
               resolution, /*grid=*/4, &records);
  RunEditPhase(dataset, Metric::kL2, l2_clients, l2_clients / 25, resolution,
               /*grid=*/4, &records);
  WriteJson(records);
}

}  // namespace
}  // namespace rnnhm::bench

int main() {
  rnnhm::bench::Run();
  return 0;
}
