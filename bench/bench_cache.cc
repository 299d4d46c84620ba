// Result cache + incremental re-sweep: the interactive-workload benchmark.
//
// Two phases, both for the L-infinity square sweep and the L2 arc sweep:
//   * cache    — a batch of B distinct requests served by a cache-enabled
//                HeatmapEngine, cold (every request sweeps) then warm (the
//                same batch again: every request hits);
//   * replay   — a HeatmapSession applying E random edits, refreshing the
//                map after each tick via a full rebuild vs. the
//                incremental re-sweep (dirty-slab splice).
//
// Besides the text tables, the run writes a machine-readable summary to
// BENCH_cache.json (override the path with RNNHM_BENCH_JSON_CACHE): one
// record per (phase, metric) with cold/warm/incremental milliseconds, so
// CI can archive the interactive-latency trajectory next to
// BENCH_engine.json. Set RNNHM_BENCH_FULL=1 for larger workloads.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "heatmap/influence.h"
#include "query/heatmap_engine.h"
#include "query/heatmap_session.h"

namespace rnnhm::bench {
namespace {

struct JsonRecord {
  std::string phase;
  std::string metric;
  int work;            // batch size (cache) or edit count (replay)
  double cold_ms;      // uncached batch / full rebuild per tick sum
  double warm_ms;      // cached batch / incremental per tick sum
  double extra = 0.0;  // cache: hit count; replay: avg dirty-column %
};

void RunCachePhase(const Dataset& dataset, Metric metric, int batch,
                   size_t clients, size_t facilities, int resolution,
                   std::vector<JsonRecord>* records) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  options.cache_bytes = 512ull << 20;  // hold the whole batch
  options.cache_entries = static_cast<size_t>(batch) * 2;
  HeatmapEngine engine(measure, options);
  std::vector<std::vector<NnCircle>> circle_sets;
  circle_sets.reserve(batch);
  for (int b = 0; b < batch; ++b) {
    circle_sets.push_back(
        Prepare(dataset, clients, facilities, metric, 7000 + b).circles);
  }

  // Both passes register inside the timed region, as a fresh batch would:
  // the warm pass re-hashes every set and finds it already registered.
  // The handles outlive each pass so the warm pass deduplicates.
  const auto run_pass = [&](std::vector<std::vector<NnCircle>> sets,
                            std::vector<HeatmapRequestV2>* requests) {
    return TimeMs([&] {
      requests->reserve(sets.size());
      for (std::vector<NnCircle>& circles : sets) {
        requests->push_back(HeatmapRequestV2{
            engine.registry().Register(std::move(circles), metric),
            Rect{{0, 0}, {1, 1}}, resolution, resolution});
      }
      engine.RunBatch(*requests);
    });
  };
  std::vector<HeatmapRequestV2> cold;
  std::vector<HeatmapRequestV2> warm;
  const double cold_ms = run_pass(circle_sets, &cold);
  const double warm_ms = run_pass(circle_sets, &warm);
  const SweepCacheStats stats = engine.cache_stats();

  std::printf("[cache/%s] batch %d at %dx%d: cold %.1f ms, warm %.1f ms "
              "(%.0fx), %llu hits / %llu misses\n",
              MetricName(metric).c_str(), batch, resolution, resolution,
              cold_ms, warm_ms, warm_ms > 0.0 ? cold_ms / warm_ms : 0.0,
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));
  records->push_back(JsonRecord{"cache", MetricName(metric), batch, cold_ms,
                                warm_ms, static_cast<double>(stats.hits)});
}

// `local` switches the edit script from uniform teleports to short hops
// (the taxi-sharing motion model: a client drifts, it does not respawn).
// Local moves produce small dirty rects in BOTH axes, which is where the
// 2D dirty-rect splice pulls ahead of full-height column recomputes —
// the phase is recorded separately ("replay_local") so the baseline
// tracks that advantage.
void RunReplayPhase(const Dataset& dataset, Metric metric, int edits,
                    size_t clients, size_t facilities, int resolution,
                    bool local, std::vector<JsonRecord>* records) {
  const Workload w = SampleWorkload(dataset, clients, facilities, 7777);
  SizeInfluence measure;
  const Rect domain{{0, 0}, {1, 1}};
  const char* phase = local ? "replay_local" : "replay";

  const auto next_target = [&](Rng& rng, const HeatmapSession& session,
                               int32_t id) {
    if (!local) return Point{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const Point& at = session.clients()[id];
    return Point{at.x + rng.Uniform(-0.02, 0.02),
                 at.y + rng.Uniform(-0.02, 0.02)};
  };

  // Full-rebuild ticks: one session rebuilt from scratch per edit.
  HeatmapSession full(w.clients, w.facilities, metric);
  Rng full_rng(31);
  full.RasterIncremental(measure, domain, resolution, resolution);
  double full_ms = 0.0;
  for (int t = 0; t < edits; ++t) {
    const auto id = static_cast<int32_t>(full_rng.NextBounded(clients));
    full.MoveClient(id, next_target(full_rng, full, id));
    full.InvalidateRaster();  // forces the from-scratch path
    full_ms += TimeMs([&] {
      full.RasterIncremental(measure, domain, resolution, resolution);
    });
  }

  // Incremental ticks: identical edit script, dirty-rect splice.
  HeatmapSession inc(w.clients, w.facilities, metric);
  Rng inc_rng(31);
  inc.RasterIncremental(measure, domain, resolution, resolution);
  double inc_ms = 0.0;
  long dirty_columns = 0;
  long long dirty_pixels = 0;
  for (int t = 0; t < edits; ++t) {
    const auto id = static_cast<int32_t>(inc_rng.NextBounded(clients));
    inc.MoveClient(id, next_target(inc_rng, inc, id));
    IncrementalRebuildStats stats;
    inc_ms += TimeMs([&] {
      inc.RasterIncremental(measure, domain, resolution, resolution, &stats);
    });
    dirty_columns += stats.raster.dirty_columns;
    dirty_pixels += stats.raster.dirty_pixels;
  }
  const double dirty_pct =
      edits > 0 ? 100.0 * dirty_columns / (resolution * edits) : 0.0;
  const double pixel_pct =
      edits > 0 ? 100.0 * static_cast<double>(dirty_pixels) /
                      (static_cast<double>(resolution) * resolution * edits)
                : 0.0;

  std::printf("[%s/%s] %d edits at %dx%d: full %.2f ms/tick, "
              "incremental %.2f ms/tick (%.1fx), %.1f%% columns/tick, "
              "%.1f%% pixels/tick\n",
              phase, MetricName(metric).c_str(), edits, resolution,
              resolution, edits > 0 ? full_ms / edits : 0.0,
              edits > 0 ? inc_ms / edits : 0.0,
              inc_ms > 0.0 ? full_ms / inc_ms : 0.0, dirty_pct, pixel_pct);
  records->push_back(JsonRecord{phase, MetricName(metric), edits, full_ms,
                                inc_ms, dirty_pct});
}

void WriteJson(const std::vector<JsonRecord>& records) {
  const char* path = std::getenv("RNNHM_BENCH_JSON_CACHE");
  if (path == nullptr) path = "BENCH_cache.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"cache\",\n  \"cells\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    std::fprintf(
        f,
        "    {\"phase\": \"%s\", \"metric\": \"%s\", \"work\": %d, "
        "\"cold_ms\": %.3f, \"warm_ms\": %.3f, \"extra\": %.3f}%s\n",
        r.phase.c_str(), r.metric.c_str(), r.work, r.cold_ms, r.warm_ms,
        r.extra, i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu cells)\n", path, records.size());
}

void Run() {
  const bool full = FullMode();
  const int batch = full ? 32 : 8;
  const int edits = full ? 200 : 40;
  const int resolution = full ? 512 : 192;
  const size_t linf_clients = full ? 20000 : 2000;
  const size_t l2_clients = full ? 5000 : 800;
  const Dataset dataset =
      MakeDataset(DatasetKind::kUniform, 42, (full ? 20000u : 2000u) * 4);

  std::vector<JsonRecord> records;
  RunCachePhase(dataset, Metric::kLInf, batch, linf_clients,
                linf_clients / 100, resolution, &records);
  RunCachePhase(dataset, Metric::kL2, batch, l2_clients, l2_clients / 25,
                resolution, &records);
  RunReplayPhase(dataset, Metric::kLInf, edits, linf_clients,
                 linf_clients / 100, resolution, /*local=*/false, &records);
  RunReplayPhase(dataset, Metric::kL2, edits, l2_clients, l2_clients / 25,
                 resolution, /*local=*/false, &records);
  RunReplayPhase(dataset, Metric::kLInf, edits, linf_clients,
                 linf_clients / 100, resolution, /*local=*/true, &records);
  RunReplayPhase(dataset, Metric::kL2, edits, l2_clients, l2_clients / 25,
                 resolution, /*local=*/true, &records);
  WriteJson(records);
}

}  // namespace
}  // namespace rnnhm::bench

int main() {
  rnnhm::bench::Run();
  return 0;
}
