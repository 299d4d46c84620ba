// rnnhm — command-line front end to the library.
//
// Subcommands:
//   generate <nyc|la|uniform|zipfian> <count> <out.csv> [--seed S]
//       Write a synthetic data set as "x,y" CSV.
//   heatmap --clients A.csv --facilities B.csv [--metric linf|l1|l2]
//           [--size N] [--threads T] [--out map.ppm] [--ascii]
//           [--cache BYTES] [--repeat N] [--tiles RxC]
//       Build the RNN heat map (size measure) and export it. --threads
//       slab-parallelizes the linf, l1 and l2 sweeps (bit-identical
//       output for every thread count). --tiles partitions the domain
//       into an R x C tile grid and sweeps each tile over just the
//       circles that can influence it (src/tile/tile_plan.h) — output
//       bit-identical to the untiled sweep for every grid. --cache
//       routes the build through a HeatmapEngine with a result cache of
//       that many bytes and runs it --repeat times (default 2),
//       reporting cold/warm timings and hit counters; with --tiles the
//       cache keys per-tile fragments, so warm iterations report
//       tile-level hit counts.
//   replay --clients A.csv --facilities B.csv [--metric linf|l1|l2]
//          [--size N] [--edits K] [--seed S] [--verify] [--out map.ppm]
//       Edit-replay mode: start a HeatmapSession, apply K random edits
//       (move/add client, add/remove facility) and refresh the map after
//       each via the incremental re-sweep, reporting per-tick dirty
//       columns and timings. --verify additionally rebuilds each tick
//       from scratch and fails unless the spliced raster is bit-identical.
//   topk --clients A.csv --facilities B.csv [--metric ...] [--k K]
//       Print the K most influential regions.
//   query --clients A.csv --facilities B.csv --x X --y Y [--metric ...]
//       Print R((X, Y)): the clients a facility at that point would win.
//   render --load map.bin [--out map.ppm] [--ascii]
//       Re-render a heat map saved with `heatmap --save`.
//   stats --clients A.csv --facilities B.csv [--metric linf|l1]
//       Exact area-weighted influence distribution (histogram, quantiles).
//   serve [--transport stdio|tcp|unix] [--threads T] [--slabs S]
//         [--cache BYTES] [--in req.bin] [--out resp.bin]
//         [--host H] [--port P] [--path SOCK] [--max-conns N]
//         [--idle-timeout MS] [--drain-timeout MS] [--poller epoll|poll]
//         [--retain-sets N] [--max-conn-sets N]
//       Wire-protocol server. stdio reads length-prefixed serving-API
//       request frames from --in (default stdin) and answers on --out
//       (default stdout). tcp/unix run the nonblocking event loop
//       (serve/event_loop.h) on the given address — --port 0 binds an
//       ephemeral port, printed on stderr as "listening on tcp HOST:PORT".
//       Inline circle sets register into the engine's registry; later
//       requests may reference them by content hash alone, and v4 delta
//       frames derive new sets from registered bases. Memory stays
//       bounded: each connection's registrations are released when it
//       disconnects (at most --max-conn-sets are pinned per connection),
//       and fully released sets survive as an LRU of --retain-sets
//       entries before eviction (both default to 32). SIGINT/SIGTERM
//       drain gracefully (a second signal stops immediately).
//   route [--transport tcp|unix] [--shards N] [--socket-dir DIR]
//         [--threads T] [--slabs S] [--cache BYTES]
//         [--by-tile --tiles RxC] plus the serve
//         address/connection/retention flags
//       Multi-process sharding front: fork N shared-nothing engine
//       workers (one per shard, each on its own Unix socket under
//       --socket-dir) and route request frames to shard
//       (set_hash % N) — delta frames route by their base hash, and the
//       derived set's hash is pinned to that shard for follow-ups. With
//       --by-tile the router instead fans each plain heat-map request
//       as one tile sub-request per non-empty tile window (shard =
//       tile_id % N) and stitches the fragments into one response
//       bit-identical to an untiled ExecuteChecked. See serve/shard_router.h.
//   wire-send [--requests req.bin] --connect tcp:HOST:PORT|unix:PATH
//             [--out resp.bin] [--stats]
//       Socket client: send each framed request from --requests to a
//       running serve/route process, collecting one response frame per
//       request into --out. --stats additionally sends a stats op and
//       prints the (fleet-merged) serve counters.
//   wire-pack --clients A.csv --facilities B.csv [--metric linf|l1|l2]
//             [--size N] [--count K] [--deltas D] [--seed S] --out req.bin
//       Encode K framed wire requests over one circle set (the first
//       carries the set inline, the rest reference it by hash; each at a
//       distinct resolution) — the client half of a serve round-trip.
//       With --deltas D, pack instead one inline request followed by D
//       v4 delta frames: each frame carries the edit journal of one
//       random session tick plus the expected derived hash.
//   wire-verify --requests req.bin --responses resp.bin
//       Decode request/response frame pairs and recompute every request
//       directly (delta frames replay their edits through ApplyDelta);
//       fails unless each served grid is bit-identical.
//
// Exit codes: 0 success, 1 usage error, 2 I/O or verification failure;
// serving-stack failures exit with a per-StatusCode code (3 + code — see
// ExitCodeFor in common/status.h), so a supervisor can tell a bad flag
// from a lost socket from a truncated stream.
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/crest.h"
#include "core/crest_l2.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/io.h"
#include "heatmap/ascii.h"
#include "heatmap/heatmap.h"
#include "heatmap/histogram.h"
#include "heatmap/image.h"
#include "heatmap/influence.h"
#include "heatmap/postprocess.h"
#include "heatmap/serialization.h"
#include "nn/nn_circle_builder.h"
#include "query/heatmap_engine.h"
#include "query/heatmap_session.h"
#include "query/rnn_query.h"
#include "query/wire.h"
#include "serve/byte_stream.h"
#include "serve/event_loop.h"
#include "serve/options.h"
#include "serve/shard_router.h"
#include "serve/transport.h"
#include "serve/wire_server.h"
#include "tile/tile_plan.h"

namespace {

using namespace rnnhm;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  rnnhm_cli generate <nyc|la|uniform|zipfian> <count> <out.csv> "
      "[--seed S]\n"
      "  rnnhm_cli heatmap --clients A.csv --facilities B.csv\n"
      "            [--metric linf|l1|l2] [--size N] [--threads T] "
      "[--out map.ppm] [--ascii]\n"
      "            [--cache BYTES] [--repeat N] [--tiles RxC]\n"
      "  rnnhm_cli replay --clients A.csv --facilities B.csv\n"
      "            [--metric linf|l1|l2] [--size N] [--edits K] [--seed S] "
      "[--verify] [--out map.ppm]\n"
      "  rnnhm_cli topk --clients A.csv --facilities B.csv [--k K] "
      "[--metric ...]\n"
      "  rnnhm_cli query --clients A.csv --facilities B.csv --x X --y Y "
      "[--metric ...]\n"
      "  rnnhm_cli serve [--transport stdio|tcp|unix] [--threads T] "
      "[--slabs S] [--cache BYTES]\n"
      "            [--in req.bin] [--out resp.bin] [--host H] [--port P] "
      "[--path SOCK]\n"
      "            [--max-conns N] [--idle-timeout MS] [--drain-timeout MS] "
      "[--poller epoll|poll]\n"
      "            [--retain-sets N] [--max-conn-sets N]\n"
      "  rnnhm_cli route [--transport tcp|unix] [--shards N] "
      "[--socket-dir DIR]\n"
      "            [--threads T] [--slabs S] [--cache BYTES] "
      "[--by-tile --tiles RxC]\n"
      "            + serve address flags\n"
      "  rnnhm_cli wire-send [--requests req.bin] --connect "
      "tcp:HOST:PORT|unix:PATH\n"
      "            [--out resp.bin] [--stats]\n"
      "  rnnhm_cli wire-pack --clients A.csv --facilities B.csv "
      "[--metric ...] [--size N]\n"
      "            [--count K] [--deltas D] [--seed S] --out req.bin\n"
      "  rnnhm_cli wire-verify --requests req.bin --responses resp.bin\n");
  return 1;
}

// Minimal flag parser: --name value pairs after the subcommand.
struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  const char* Flag(const std::string& name,
                   const char* fallback = nullptr) const {
    for (const auto& [k, v] : flags) {
      if (k == name) return v.c_str();
    }
    return fallback;
  }
  bool Has(const std::string& name) const {
    for (const auto& [k, v] : flags) {
      if (k == name) return true;
    }
    return false;
  }
};

bool Parse(int argc, char** argv, Args* out) {
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      const std::string name = argv[i] + 2;
      if (name == "ascii" || name == "verify" || name == "stats" ||
          name == "by-tile") {  // boolean flags
        out->flags.emplace_back(name, "1");
      } else if (i + 1 < argc) {
        out->flags.emplace_back(name, argv[++i]);
      } else {
        return false;
      }
    } else {
      out->positional.push_back(argv[i]);
    }
  }
  return true;
}

// Parses a "RxC" tile-grid flag value ("3x3", "1x4"). False (with *error
// set) on anything that is not two integers in [1, kMaxTileGridSide]
// around an 'x' — checked before the narrowing cast, so an over-wide
// value cannot wrap into range.
bool ParseTileGrid(const char* value, int* rows, int* cols,
                   std::string* error) {
  const std::string message =
      "--tiles needs RxC with each side in [1, " +
      std::to_string(kMaxTileGridSide) + "] (e.g. 3x3), got '" + value + "'";
  char* end = nullptr;
  const long r = std::strtol(value, &end, 10);
  if (end == value || *end != 'x' || r <= 0 || r > kMaxTileGridSide) {
    *error = message;
    return false;
  }
  const char* cols_start = end + 1;
  const long c = std::strtol(cols_start, &end, 10);
  if (end == cols_start || *end != '\0' || c <= 0 || c > kMaxTileGridSide) {
    *error = message;
    return false;
  }
  *rows = static_cast<int>(r);
  *cols = static_cast<int>(c);
  return true;
}

bool ParseMetric(const Args& args, Metric* metric) {
  const std::string name = args.Flag("metric", "l1");
  if (name == "linf") {
    *metric = Metric::kLInf;
  } else if (name == "l1") {
    *metric = Metric::kL1;
  } else if (name == "l2") {
    *metric = Metric::kL2;
  } else {
    std::fprintf(stderr, "unknown metric '%s'\n", name.c_str());
    return false;
  }
  return true;
}

bool LoadWorkload(const Args& args, std::vector<Point>* clients,
                  std::vector<Point>* facilities) {
  const char* cpath = args.Flag("clients");
  const char* fpath = args.Flag("facilities");
  if (cpath == nullptr || fpath == nullptr) {
    std::fprintf(stderr, "--clients and --facilities are required\n");
    return false;
  }
  if (!ReadPointsCsv(cpath, clients) || clients->empty()) {
    std::fprintf(stderr, "failed to read clients from %s\n", cpath);
    return false;
  }
  if (!ReadPointsCsv(fpath, facilities) || facilities->empty()) {
    std::fprintf(stderr, "failed to read facilities from %s\n", fpath);
    return false;
  }
  return true;
}

int CmdGenerate(const Args& args) {
  if (args.positional.size() != 3) return Usage();
  const std::string kind_name = args.positional[0];
  const size_t count = std::strtoull(args.positional[1].c_str(), nullptr, 10);
  const uint64_t seed = std::strtoull(args.Flag("seed", "1"), nullptr, 10);
  DatasetKind kind;
  if (kind_name == "nyc") {
    kind = DatasetKind::kNyc;
  } else if (kind_name == "la") {
    kind = DatasetKind::kLa;
  } else if (kind_name == "uniform") {
    kind = DatasetKind::kUniform;
  } else if (kind_name == "zipfian") {
    kind = DatasetKind::kZipfian;
  } else {
    std::fprintf(stderr, "unknown data set '%s'\n", kind_name.c_str());
    return 1;
  }
  const Dataset ds = MakeDataset(kind, seed, count);
  if (!WritePointsCsv(ds.points, args.positional[2])) {
    std::fprintf(stderr, "cannot write %s\n", args.positional[2].c_str());
    return 2;
  }
  std::printf("wrote %zu %s points to %s\n", ds.points.size(),
              ds.name.c_str(), args.positional[2].c_str());
  return 0;
}

int CmdHeatmap(const Args& args) {
  std::vector<Point> clients, facilities;
  Metric metric;
  if (!LoadWorkload(args, &clients, &facilities) ||
      !ParseMetric(args, &metric)) {
    return 1;
  }
  const int size = std::atoi(args.Flag("size", "512"));
  const int threads = std::atoi(args.Flag("threads", "1"));
  char* cache_end = nullptr;
  const char* cache_arg = args.Flag("cache", "0");
  const long long cache_value = std::strtoll(cache_arg, &cache_end, 10);
  if (cache_end == cache_arg || *cache_end != '\0' || cache_value < 0) {
    std::fprintf(stderr, "--cache needs a non-negative byte count\n");
    return Usage();
  }
  const size_t cache_bytes = static_cast<size_t>(cache_value);
  const int repeat =
      std::atoi(args.Flag("repeat", cache_bytes > 0 ? "2" : "1"));
  if (size <= 0 || threads <= 0 || repeat <= 0) return Usage();
  int tile_rows = 0;
  int tile_cols = 0;
  if (const char* tiles = args.Flag("tiles"); tiles != nullptr) {
    std::string tiles_error;
    if (!ParseTileGrid(tiles, &tile_rows, &tile_cols, &tiles_error)) {
      std::fprintf(stderr, "%s\n", tiles_error.c_str());
      return Usage();
    }
  }
  SizeInfluence measure;
  const Rect domain = BoundingBox(clients, 0.02);
  std::optional<HeatmapGrid> built = [&]() -> std::optional<HeatmapGrid> {
    if (cache_bytes > 0) {
      // Engine path: the result cache serves every byte-identical
      // re-request (iterations 2..repeat) without sweeping. With --tiles
      // the request decomposes into per-tile cached fragments, so the
      // warm iterations report tile-level hit counts.
      HeatmapEngineOptions options;
      options.num_threads = 1;
      options.slabs_per_request = threads;
      options.cache_bytes = cache_bytes;
      HeatmapEngine engine(measure, options);
      const CircleSetHandle handle = engine.registry().Register(
          BuildNnCircles(clients, facilities, metric), metric);
      const HeatmapRequestV2 request{handle, domain, size, size};
      HeatmapResponse last{HeatmapGrid(1, 1, Rect{{0, 0}, {1, 1}}),
                           {}, {}, false, {}};
      if (tile_rows > 0) {
        for (int i = 0; i < repeat; ++i) {
          TiledServeStats tile_stats;
          Stopwatch sw;
          std::optional<HeatmapResponse> response;
          const Status status = engine.ExecuteTiledChecked(
              request, tile_rows, tile_cols, &response, &tile_stats);
          if (!status.ok()) {
            std::fprintf(stderr, "%s\n", status.ToString().c_str());
            return std::nullopt;
          }
          last = std::move(*response);
          std::printf("iteration %d: %.2f ms (%d tiles: %d swept, %d "
                      "cached, %d background)\n",
                      i + 1, sw.ElapsedMs(), tile_stats.tiles,
                      tile_stats.swept_tiles, tile_stats.cached_tiles,
                      tile_stats.background_tiles);
        }
        std::printf("cache: %llu hits, %llu misses, %zu entries, %zu "
                    "bytes\n",
                    static_cast<unsigned long long>(last.cache.hits),
                    static_cast<unsigned long long>(last.cache.misses),
                    last.cache.entries, last.cache.bytes);
        return std::move(last.grid);
      }
      for (int i = 0; i < repeat; ++i) {
        Stopwatch sw;
        last = engine.Submit(request).get();
        std::printf("iteration %d: %.2f ms (%s)\n", i + 1, sw.ElapsedMs(),
                    last.from_cache ? "cache hit" : "swept");
      }
      std::printf("cache: %llu hits, %llu misses, %zu entries, %zu bytes\n",
                  static_cast<unsigned long long>(last.cache.hits),
                  static_cast<unsigned long long>(last.cache.misses),
                  last.cache.entries, last.cache.bytes);
      return std::move(last.grid);
    }
    if (tile_rows > 0) {
      // Tiled sweep: partition the domain, sweep each tile over just the
      // circles that can influence it, stitch — bit-identical to the
      // untiled builders below.
      const auto circles = BuildNnCircles(clients, facilities, metric);
      TilePlanOptions plan_options;
      plan_options.rows = tile_rows;
      plan_options.cols = tile_cols;
      const TilePlan plan(metric, circles, domain, size, size, plan_options);
      return plan.Run(measure, threads);
    }
    switch (metric) {
      case Metric::kLInf:
        return BuildHeatmapLInfParallel(
            BuildNnCircles(clients, facilities, Metric::kLInf), measure,
            domain, size, size, threads);
      case Metric::kL1:
        return BuildHeatmapL1Parallel(
            BuildNnCircles(clients, facilities, Metric::kL1), measure,
            domain, size, size, threads);
      case Metric::kL2:
      default:
        // Exact arc-sweep rasterization (exact at pixel centers),
        // slab-parallel across --threads.
        return BuildHeatmapL2Parallel(
            BuildNnCircles(clients, facilities, Metric::kL2), measure,
            domain, size, size, threads);
    }
  }();
  if (!built.has_value()) return 1;
  const HeatmapGrid& grid = *built;
  std::printf("heat map %dx%d, max influence %.0f\n", size, size,
              grid.MaxValue());
  if (args.Has("ascii")) {
    std::fputs(RenderAscii(grid).c_str(), stdout);
  }
  const char* out = args.Flag("out");
  if (out != nullptr) {
    if (!WritePpm(grid, out)) {
      std::fprintf(stderr, "cannot write %s\n", out);
      return 2;
    }
    std::printf("wrote %s\n", out);
  }
  const char* save = args.Flag("save");
  if (save != nullptr) {
    if (!SaveHeatmap(grid, save)) {
      std::fprintf(stderr, "cannot save %s\n", save);
      return 2;
    }
    std::printf("saved %s\n", save);
  }
  return 0;
}

int CmdReplay(const Args& args) {
  std::vector<Point> clients, facilities;
  Metric metric;
  if (!LoadWorkload(args, &clients, &facilities) ||
      !ParseMetric(args, &metric)) {
    return 1;
  }
  const int size = std::atoi(args.Flag("size", "256"));
  const int edits = std::atoi(args.Flag("edits", "50"));
  const uint64_t seed = std::strtoull(args.Flag("seed", "1"), nullptr, 10);
  const bool verify = args.Has("verify");
  if (size <= 0 || edits < 0) return Usage();

  SizeInfluence measure;
  const Rect domain = BoundingBox(clients, 0.02);
  HeatmapSession session(clients, facilities, metric);

  Stopwatch sw;
  session.RasterIncremental(measure, domain, size, size);
  std::printf("initial %dx%d map (%s): %.2f ms full sweep\n", size, size,
              MetricName(metric).c_str(), sw.ElapsedMs());

  Rng rng(seed);
  double incremental_ms = 0.0;
  double reference_ms = 0.0;
  long dirty_columns = 0;
  long full_rebuilds = 0;
  for (int tick = 0; tick < edits; ++tick) {
    const double dice = rng.NextDouble();
    if (dice < 0.45) {
      session.MoveClient(
          static_cast<int32_t>(rng.NextBounded(session.num_clients())),
          {rng.Uniform(domain.lo.x, domain.hi.x),
           rng.Uniform(domain.lo.y, domain.hi.y)});
    } else if (dice < 0.65) {
      session.AddClient({rng.Uniform(domain.lo.x, domain.hi.x),
                         rng.Uniform(domain.lo.y, domain.hi.y)});
    } else if (dice < 0.85 || session.num_facilities() < 2) {
      session.AddFacility({rng.Uniform(domain.lo.x, domain.hi.x),
                           rng.Uniform(domain.lo.y, domain.hi.y)});
    } else {
      session.RemoveFacility(
          static_cast<int32_t>(rng.NextBounded(session.num_facilities())));
    }
    IncrementalRebuildStats stats;
    sw.Reset();
    const HeatmapGrid& grid =
        session.RasterIncremental(measure, domain, size, size, &stats);
    incremental_ms += sw.ElapsedMs();
    if (stats.full_rebuild) {
      ++full_rebuilds;
    } else {
      dirty_columns += stats.raster.dirty_columns;
    }
    if (verify) {
      sw.Reset();
      // The same from-scratch recipe the session's full rebuild uses.
      const HeatmapGrid reference = BuildHeatmapForMetric(
          session.metric(), session.circles(), measure, domain, size, size);
      reference_ms += sw.ElapsedMs();
      if (grid.values() != reference.values()) {
        std::fprintf(stderr,
                     "tick %d: incremental raster diverged from the "
                     "from-scratch build\n",
                     tick);
        return 2;
      }
    }
  }
  std::printf("%d edits: %.2f ms incremental total (%.2f ms/tick), "
              "%ld full rebuilds, %.1f%% columns recomputed/tick avg\n",
              edits, incremental_ms, edits > 0 ? incremental_ms / edits : 0.0,
              full_rebuilds,
              edits > full_rebuilds
                  ? 100.0 * dirty_columns / (size * (edits - full_rebuilds))
                  : 0.0);
  if (verify) {
    std::printf("verified bit-identical against %d from-scratch rebuilds "
                "(%.2f ms/tick from scratch)\n",
                edits, edits > 0 ? reference_ms / edits : 0.0);
  }
  const HeatmapGrid& final_grid =
      session.RasterIncremental(measure, domain, size, size);
  std::printf("final max influence %.0f\n", final_grid.MaxValue());
  const char* out = args.Flag("out");
  if (out != nullptr) {
    if (!WritePpm(final_grid, out)) {
      std::fprintf(stderr, "cannot write %s\n", out);
      return 2;
    }
    std::printf("wrote %s\n", out);
  }
  return 0;
}

int CmdRender(const Args& args) {
  const char* load = args.Flag("load");
  if (load == nullptr) {
    std::fprintf(stderr, "--load is required\n");
    return 1;
  }
  const auto grid = LoadHeatmap(load);
  if (!grid.has_value()) {
    std::fprintf(stderr, "cannot load %s\n", load);
    return 2;
  }
  std::printf("loaded %dx%d heat map, max influence %.0f\n", grid->width(),
              grid->height(), grid->MaxValue());
  if (args.Has("ascii")) {
    std::fputs(RenderAscii(*grid).c_str(), stdout);
  }
  const char* out = args.Flag("out");
  if (out != nullptr) {
    if (!WritePpm(*grid, out)) {
      std::fprintf(stderr, "cannot write %s\n", out);
      return 2;
    }
    std::printf("wrote %s\n", out);
  }
  return 0;
}

int CmdStats(const Args& args) {
  std::vector<Point> clients, facilities;
  Metric metric;
  if (!LoadWorkload(args, &clients, &facilities) ||
      !ParseMetric(args, &metric)) {
    return 1;
  }
  if (metric == Metric::kL2) {
    std::fprintf(stderr,
                 "stats uses the exact strip decomposition (linf/l1)\n");
    return 1;
  }
  SizeInfluence measure;
  auto circles = BuildNnCircles(clients, facilities, metric);
  if (metric == Metric::kL1) circles = RotateCirclesToLInf(circles);
  AreaHistogramSink histogram;
  CountingSink counter;
  CrestOptions options;
  options.strip_sink = &histogram;
  RunCrest(circles, measure, &counter, options);
  const double total = histogram.TotalArea();
  std::printf("arrangement area: %.6f (note: L1 stats are computed in the "
              "rotated frame; areas are preserved)\n", total);
  std::printf("area-weighted influence quantiles:\n");
  for (const double q : {0.01, 0.05, 0.25, 0.50}) {
    std::printf("  top %4.0f%% of area has influence >= %.0f\n", q * 100,
                histogram.QuantileInfluence(q));
  }
  std::printf("area by influence (head):\n");
  int shown = 0;
  for (auto it = histogram.area_by_influence().rbegin();
       it != histogram.area_by_influence().rend() && shown < 10;
       ++it, ++shown) {
    std::printf("  influence %4.0f: %.2f%% of area\n", it->first,
                100.0 * it->second / total);
  }
  return 0;
}

int CmdTopK(const Args& args) {
  std::vector<Point> clients, facilities;
  Metric metric;
  if (!LoadWorkload(args, &clients, &facilities) ||
      !ParseMetric(args, &metric)) {
    return 1;
  }
  const size_t k = std::strtoull(args.Flag("k", "5"), nullptr, 10);
  SizeInfluence measure;
  const auto circles = BuildNnCircles(clients, facilities, metric);
  RegionQuerySink regions;
  switch (metric) {
    case Metric::kLInf:
      RunCrest(circles, measure, &regions);
      break;
    case Metric::kL1:
      RunCrestL1(circles, measure, &regions);
      break;
    case Metric::kL2:
      RunCrestL2(circles, measure, &regions);
      break;
  }
  std::printf("top-%zu regions by influence (|RNN set|):\n", k);
  for (const InfluentialRegion& r : regions.TopK(k)) {
    Point site = r.representative.Center();
    if (metric == Metric::kL1) site = RotateFromLInf(site);
    std::printf("  %.0f clients near (%.6f, %.6f)\n", r.influence, site.x,
                site.y);
  }
  return 0;
}

// Overwrites *value with the integer flag `name` when it is given and
// leaves the caller's default otherwise. False (with *error set) unless the
// whole value is a base-10 integer in [lo, hi]; the range is checked before
// the narrowing store, so "4294967297" is an error instead of 1.
template <typename T>
bool ReadIntFlag(const Args& args, const char* name, long long lo,
                 long long hi, T* value, std::string* error) {
  const char* text = args.Flag(name);
  if (text == nullptr) return true;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || parsed < lo ||
      parsed > hi) {
    *error = std::string("--") + name + " needs an integer in [" +
             std::to_string(lo) + ", " + std::to_string(hi) + "], got '" +
             text + "'";
    return false;
  }
  *value = static_cast<T>(parsed);
  return true;
}

// The one place serve/route flags are parsed (ServeOptions is the single
// source of serving configuration, defaults included: an absent flag keeps
// the field of the caller's ServeOptions{}). False (with *error set) on any
// out-of-range or unparsable flag.
bool ParseServeFlags(const Args& args, ServeOptions* options,
                     std::string* error) {
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  constexpr long long kLongMax = std::numeric_limits<long long>::max();
  if (!ReadIntFlag(args, "threads", 1, kIntMax, &options->threads, error) ||
      !ReadIntFlag(args, "slabs", 1, kIntMax, &options->slabs, error) ||
      !ReadIntFlag(args, "cache", 0, kLongMax, &options->cache_bytes,
                   error) ||
      !ReadIntFlag(args, "port", 0, 65535, &options->port, error) ||
      !ReadIntFlag(args, "max-conns", 1, kIntMax, &options->max_connections,
                   error) ||
      !ReadIntFlag(args, "idle-timeout", 0, kIntMax,
                   &options->idle_timeout_ms, error) ||
      !ReadIntFlag(args, "drain-timeout", 0, kIntMax,
                   &options->drain_timeout_ms, error) ||
      !ReadIntFlag(args, "retain-sets", 0, kIntMax, &options->retain_sets,
                   error) ||
      !ReadIntFlag(args, "max-conn-sets", 0, kIntMax,
                   &options->max_conn_sets, error) ||
      !ReadIntFlag(args, "shards", 1, kIntMax, &options->num_shards,
                   error)) {
    return false;
  }
  if (const char* transport = args.Flag("transport"); transport != nullptr &&
      !ParseTransportKind(transport, &options->transport)) {
    *error = std::string("unknown transport '") + transport +
             "' (stdio|tcp|unix)";
    return false;
  }
  if (const char* host = args.Flag("host"); host != nullptr) {
    options->host = host;
  }
  if (const char* path = args.Flag("path"); path != nullptr) {
    options->socket_path = path;
  }
  if (options->transport == TransportKind::kUnix &&
      options->socket_path.empty()) {
    *error = "--transport unix needs --path";
    return false;
  }
  if (const char* poller = args.Flag("poller"); poller != nullptr) {
    if (std::strcmp(poller, "epoll") == 0) {
      options->prefer_epoll = true;
    } else if (std::strcmp(poller, "poll") == 0) {
      options->prefer_epoll = false;
    } else {
      *error = std::string("unknown --poller '") + poller + "' (epoll|poll)";
      return false;
    }
  }
  if (const char* dir = args.Flag("socket-dir"); dir != nullptr) {
    options->socket_dir = dir;
  }
  options->route_by_tile = args.Has("by-tile");
  if (const char* tiles = args.Flag("tiles"); tiles != nullptr) {
    if (!ParseTileGrid(tiles, &options->tile_rows, &options->tile_cols,
                       error)) {
      return false;
    }
  }
  if (options->route_by_tile &&
      options->tile_rows * options->tile_cols < options->num_shards) {
    *error = "--by-tile needs --tiles RxC with at least as many tiles as "
             "shards";
    return false;
  }
  if (const char* in = args.Flag("in"); in != nullptr) options->in_path = in;
  if (const char* out = args.Flag("out"); out != nullptr) {
    options->out_path = out;
  }
  return true;
}

// One line of serve counters, for a server's own summary and for the
// stats op's reply alike (CI greps the "stats: N shard(s)" prefix).
void PrintStats(std::FILE* out, const WireStatsReply& stats) {
  std::fprintf(out,
               "stats: %u shard(s), %llu requests, %llu ok, %llu errors, "
               "%llu sets registered, %llu deltas (%llu spliced, %llu dirty "
               "columns), %llu sets evicted\n",
               stats.shards, static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.ok),
               static_cast<unsigned long long>(stats.errors),
               static_cast<unsigned long long>(stats.sets_registered),
               static_cast<unsigned long long>(stats.deltas),
               static_cast<unsigned long long>(stats.delta_splices),
               static_cast<unsigned long long>(stats.delta_dirty_columns),
               static_cast<unsigned long long>(stats.sets_evicted));
}

// The stdio/file leg of serve: the blocking WireServer loop over
// ByteSource/ByteSink.
int ServeStdio(const ServeOptions& options, HeatmapEngine& engine) {
  std::FILE* in = stdin;
  std::FILE* out = stdout;
  if (!options.in_path.empty() &&
      (in = std::fopen(options.in_path.c_str(), "rb")) == nullptr) {
    std::fprintf(stderr, "cannot read %s\n", options.in_path.c_str());
    return 2;
  }
  if (!options.out_path.empty() &&
      (out = std::fopen(options.out_path.c_str(), "wb")) == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", options.out_path.c_str());
    if (in != stdin) std::fclose(in);
    return 2;
  }
  WireServer server(engine);
  FileByteSource source(in);
  FileByteSink sink(out);
  const Status status = server.ServeStream(source, sink);
  if (in != stdin) std::fclose(in);
  if (out != stdout) std::fclose(out);
  PrintStats(stderr, server.stats());
  if (!status.ok()) {
    std::fprintf(stderr, "serve aborted: %s\n", status.ToString().c_str());
  }
  return ExitCodeFor(status);
}

int CmdServe(const Args& args) {
  ServeOptions options;
  std::string parse_error;
  if (!ParseServeFlags(args, &options, &parse_error)) {
    std::fprintf(stderr, "%s\n", parse_error.c_str());
    return Usage();
  }
  SizeInfluence measure;
  HeatmapEngineOptions engine_options;
  engine_options.num_threads = options.threads;
  engine_options.slabs_per_request = options.slabs;
  engine_options.cache_bytes = options.cache_bytes;
  // Bounded registry: fully released sets stay resolvable by hash up to
  // --retain-sets, LRU-evicted past it (0 = erase on last release).
  CircleSetRegistryOptions registry_options;
  registry_options.max_unpinned_entries = options.retain_sets;
  engine_options.registry =
      std::make_shared<CircleSetRegistry>(registry_options);
  HeatmapEngine engine(measure, engine_options);
  if (options.transport == TransportKind::kStdio) {
    return ServeStdio(options, engine);
  }
  Listener listener;
  Status status =
      options.transport == TransportKind::kTcp
          ? Listener::ListenTcp(options.host, options.port, &listener)
          : Listener::ListenUnix(options.socket_path, &listener);
  if (!status.ok()) {
    std::fprintf(stderr, "serve: %s\n", status.ToString().c_str());
    return ExitCodeFor(status);
  }
  if (options.transport == TransportKind::kTcp) {
    std::fprintf(stderr, "listening on tcp %s:%d\n", options.host.c_str(),
                 listener.port());
  } else {
    std::fprintf(stderr, "listening on unix %s\n", listener.path().c_str());
  }
  EventLoopServer server(std::move(listener), engine, options);
  InstallShutdownSignalHandlers(&server);
  status = server.Run();
  InstallShutdownSignalHandlers(nullptr);
  PrintStats(stderr, server.stats());
  if (!status.ok()) {
    std::fprintf(stderr, "serve aborted: %s\n", status.ToString().c_str());
  }
  return ExitCodeFor(status);
}

int CmdRoute(const Args& args) {
  ServeOptions options;
  std::string parse_error;
  if (!ParseServeFlags(args, &options, &parse_error)) {
    std::fprintf(stderr, "%s\n", parse_error.c_str());
    return Usage();
  }
  if (options.transport == TransportKind::kStdio) {
    std::fprintf(stderr, "route needs --transport tcp or unix\n");
    return Usage();
  }
  // Fleet first, while this process is still single-threaded (fork).
  ShardFleet fleet;
  Status status = ShardFleet::Spawn(options, &fleet);
  if (!status.ok()) {
    std::fprintf(stderr, "route: %s\n", status.ToString().c_str());
    return ExitCodeFor(status);
  }
  Listener front;
  status = options.transport == TransportKind::kTcp
               ? Listener::ListenTcp(options.host, options.port, &front)
               : Listener::ListenUnix(options.socket_path, &front);
  if (!status.ok()) {
    std::fprintf(stderr, "route: %s\n", status.ToString().c_str());
    fleet.Shutdown();
    return ExitCodeFor(status);
  }
  if (options.transport == TransportKind::kTcp) {
    std::fprintf(stderr, "routing %d shards on tcp %s:%d\n",
                 fleet.num_shards(), options.host.c_str(), front.port());
  } else {
    std::fprintf(stderr, "routing %d shards on unix %s\n", fleet.num_shards(),
                 front.path().c_str());
  }
  ShardRouter router(std::move(front), fleet.socket_paths(), options);
  InstallRouterSignalHandlers(&router);
  status = router.Run();
  InstallRouterSignalHandlers(nullptr);
  fleet.Shutdown();
  if (!status.ok()) {
    std::fprintf(stderr, "route aborted: %s\n", status.ToString().c_str());
  }
  return ExitCodeFor(status);
}

int CmdWireSend(const Args& args) {
  const char* req_path = args.Flag("requests");
  const char* connect = args.Flag("connect");
  const char* out_path = args.Flag("out");
  const bool want_stats = args.Has("stats");
  if (connect == nullptr || (req_path == nullptr && !want_stats)) {
    std::fprintf(stderr,
                 "--connect is required, plus --requests and/or --stats\n");
    return Usage();
  }
  const std::string target = connect;
  int fd = -1;
  Status status;
  if (target.rfind("tcp:", 0) == 0) {
    const size_t colon = target.rfind(':');
    if (colon == 3) {
      std::fprintf(stderr, "--connect tcp needs tcp:HOST:PORT\n");
      return Usage();
    }
    status = ConnectTcp(target.substr(4, colon - 4),
                        std::atoi(target.c_str() + colon + 1), &fd);
  } else if (target.rfind("unix:", 0) == 0) {
    status = ConnectUnix(target.substr(5), &fd);
  } else {
    std::fprintf(stderr, "--connect needs tcp:HOST:PORT or unix:PATH\n");
    return Usage();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "wire-send: %s\n", status.ToString().c_str());
    return ExitCodeFor(status);
  }
  std::FILE* out = nullptr;
  if (out_path != nullptr && (out = std::fopen(out_path, "wb")) == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    ::close(fd);
    return 2;
  }
  int sent = 0;
  int exit_code = 0;
  if (req_path != nullptr) {
    std::FILE* req_file = std::fopen(req_path, "rb");
    if (req_file == nullptr) {
      std::fprintf(stderr, "cannot read %s\n", req_path);
      if (out != nullptr) std::fclose(out);
      ::close(fd);
      return 2;
    }
    for (;;) {
      std::string frame_error;
      const auto frame = ReadFrame(req_file, &frame_error);
      if (!frame.has_value()) {
        if (!frame_error.empty()) {
          std::fprintf(stderr, "%s: %s\n", req_path, frame_error.c_str());
          exit_code = 2;
        }
        break;
      }
      std::vector<uint8_t> reply;
      if (status = SendFrame(fd, *frame); status.ok()) {
        status = RecvFrame(fd, &reply);
      }
      if (!status.ok()) {
        std::fprintf(stderr, "wire-send: %s\n", status.ToString().c_str());
        exit_code = ExitCodeFor(status);
        break;
      }
      if (out != nullptr && !WriteFrame(out, reply)) {
        std::fprintf(stderr, "failed writing %s\n", out_path);
        exit_code = 2;
        break;
      }
      ++sent;
    }
    std::fclose(req_file);
  }
  if (exit_code == 0 && want_stats) {
    std::vector<uint8_t> reply;
    if (status = SendFrame(fd, EncodeStatsRequest()); status.ok()) {
      status = RecvFrame(fd, &reply);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "wire-send: %s\n", status.ToString().c_str());
      exit_code = ExitCodeFor(status);
    } else {
      std::string decode_error;
      const auto stats = DecodeStatsResponse(reply, &decode_error);
      if (!stats.has_value()) {
        std::fprintf(stderr, "stats reply: %s\n", decode_error.c_str());
        exit_code = 2;
      } else {
        PrintStats(stdout, *stats);
      }
    }
  }
  ::close(fd);
  if (out != nullptr && std::fclose(out) != 0 && exit_code == 0) {
    std::fprintf(stderr, "failed writing %s\n", out_path);
    exit_code = 2;
  }
  if (exit_code == 0 && sent > 0) {
    std::printf("sent %d requests, received %d responses\n", sent, sent);
  }
  return exit_code;
}

int CmdWirePack(const Args& args) {
  std::vector<Point> clients, facilities;
  Metric metric;
  if (!LoadWorkload(args, &clients, &facilities) ||
      !ParseMetric(args, &metric)) {
    return 1;
  }
  const int size = std::atoi(args.Flag("size", "64"));
  const int count = std::atoi(args.Flag("count", "4"));
  const int deltas = std::atoi(args.Flag("deltas", "0"));
  const uint64_t seed = std::strtoull(args.Flag("seed", "1"), nullptr, 10);
  const char* out_path = args.Flag("out");
  if (size <= 0 || count <= 0 || deltas < 0 || out_path == nullptr) {
    return Usage();
  }
  const Rect domain = BoundingBox(clients, 0.02);
  std::FILE* out = std::fopen(out_path, "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 2;
  }
  bool ok = true;
  size_t num_circles = 0;
  if (deltas > 0) {
    // Delta stream: one inline request establishes the base set, then
    // every tick of a randomly edited session travels as a v4 delta
    // frame (base hash + edit journal + expected derived hash) at the
    // same geometry, so the server can splice instead of resweeping.
    HeatmapSession session(clients, facilities, metric);
    const auto base = CircleSetSnapshot::Make(session.circles(), metric);
    num_circles = base->circles().size();
    ok = WriteFrame(out, EncodeRequest(MakeWireRequest(
                             *base, domain, size, size,
                             /*include_circles=*/true)));
    session.EnableEditJournal();
    uint64_t prev_hash = base->content_hash();
    Rng rng(seed);
    for (int i = 0; i < deltas && ok; ++i) {
      const double dice = rng.NextDouble();
      if (dice < 0.55) {
        session.MoveClient(
            static_cast<int32_t>(rng.NextBounded(session.num_clients())),
            {rng.Uniform(domain.lo.x, domain.hi.x),
             rng.Uniform(domain.lo.y, domain.hi.y)});
      } else if (dice < 0.75) {
        session.AddClient({rng.Uniform(domain.lo.x, domain.hi.x),
                           rng.Uniform(domain.lo.y, domain.hi.y)});
      } else if (dice < 0.9 || session.num_facilities() < 2) {
        session.AddFacility({rng.Uniform(domain.lo.x, domain.hi.x),
                             rng.Uniform(domain.lo.y, domain.hi.y)});
      } else {
        session.RemoveFacility(
            static_cast<int32_t>(rng.NextBounded(session.num_facilities())));
      }
      WireDeltaRequest delta;
      delta.metric = metric;
      delta.base_hash = prev_hash;
      delta.edits = session.TakeCircleEdits();
      delta.new_hash = HashCircleSet(session.circles(), metric);
      delta.domain = domain;
      delta.width = size;
      delta.height = size;
      ok = WriteFrame(out, EncodeDeltaRequest(delta));
      prev_hash = delta.new_hash;
    }
  } else {
    const auto set = CircleSetSnapshot::Make(
        BuildNnCircles(clients, facilities, metric), metric);
    num_circles = set->circles().size();
    for (int i = 0; i < count && ok; ++i) {
      // The first frame carries the set inline; the rest reference it by
      // content hash. Distinct resolutions keep every response distinct.
      const WireRequest request = MakeWireRequest(
          *set, domain, size + i, size + i, /*include_circles=*/i == 0);
      ok = WriteFrame(out, EncodeRequest(request));
    }
  }
  ok = (std::fclose(out) == 0) && ok;
  if (!ok) {
    std::fprintf(stderr, "failed writing %s\n", out_path);
    return 2;
  }
  if (deltas > 0) {
    std::printf("packed 1 inline request + %d deltas over %zu circles "
                "(%s) to %s\n",
                deltas, num_circles, MetricName(metric).c_str(), out_path);
  } else {
    std::printf("packed %d requests over %zu circles (%s) to %s\n", count,
                num_circles, MetricName(metric).c_str(), out_path);
  }
  return 0;
}

int CmdWireVerify(const Args& args) {
  const char* req_path = args.Flag("requests");
  const char* resp_path = args.Flag("responses");
  if (req_path == nullptr || resp_path == nullptr) {
    std::fprintf(stderr, "--requests and --responses are required\n");
    return 1;
  }
  std::FILE* req_file = std::fopen(req_path, "rb");
  if (req_file == nullptr) {
    std::fprintf(stderr, "cannot read %s\n", req_path);
    return 2;
  }
  std::FILE* resp_file = std::fopen(resp_path, "rb");
  if (resp_file == nullptr) {
    std::fprintf(stderr, "cannot read %s\n", resp_path);
    std::fclose(req_file);
    return 2;
  }
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  HeatmapEngine engine(measure, options);
  // Inline sets seen so far, by content hash, for by-reference requests.
  std::vector<std::pair<uint64_t, CircleSetHandle>> known;
  int verified = 0;
  int failures = 0;
  for (;;) {
    std::string error;
    std::string req_error;
    std::string resp_error;
    const auto req_frame = ReadFrame(req_file, &req_error);
    const auto resp_frame = ReadFrame(resp_file, &resp_error);
    if (!req_frame.has_value() || !resp_frame.has_value()) {
      // A truncated frame on either side is a failure even when both
      // files end simultaneously; only a clean EOF on both is success.
      if (!req_error.empty() || !resp_error.empty()) {
        std::fprintf(stderr, "frame %d: %s\n", verified,
                     (!req_error.empty() ? req_error : resp_error).c_str());
        ++failures;
      } else if (req_frame.has_value() != resp_frame.has_value()) {
        std::fprintf(stderr, "request/response frame counts differ\n");
        ++failures;
      }
      break;
    }
    const auto response = DecodeResponse(*resp_frame, &error);
    if (!response.has_value()) {
      std::fprintf(stderr, "response %d: %s\n", verified, error.c_str());
      ++failures;
      break;
    }
    if (response->status != WireStatus::kOk) {
      std::fprintf(stderr, "response %d: server error %d (%s)\n", verified,
                   static_cast<int>(response->status),
                   response->error.c_str());
      ++failures;
      break;
    }
    // Resolve the request — plain or delta — to the handle + geometry the
    // reference ExecuteChecked needs.
    CircleSetHandle handle;
    Rect ref_domain;
    int ref_width = 0;
    int ref_height = 0;
    Status status;
    if (IsDeltaRequest(*req_frame)) {
      const auto delta = DecodeDeltaRequest(*req_frame, &status);
      if (!delta.has_value()) {
        std::fprintf(stderr, "request %d: %s\n", verified,
                     status.message.c_str());
        ++failures;
        break;
      }
      CircleSetHandle base;
      for (const auto& [hash, h] : known) {
        if (hash == delta->base_hash) base = h;
      }
      if (!base.valid()) {
        std::fprintf(stderr, "request %d: delta references an unseen base\n",
                     verified);
        ++failures;
        break;
      }
      status = engine.registry().ApplyDelta(base, delta->edits,
                                            delta->new_hash, &handle);
      if (!status.ok()) {
        std::fprintf(stderr, "request %d: %s\n", verified,
                     status.ToString().c_str());
        ++failures;
        break;
      }
      known.emplace_back(delta->new_hash, handle);
      ref_domain = delta->domain;
      ref_width = delta->width;
      ref_height = delta->height;
    } else {
      const auto request = DecodeRequest(*req_frame, &status);
      if (!request.has_value()) {
        std::fprintf(stderr, "request %d: %s\n", verified,
                     status.message.c_str());
        ++failures;
        break;
      }
      if (request->inline_circles) {
        handle =
            engine.registry().Register(request->circles, request->metric);
        known.emplace_back(request->set_hash, handle);
      } else {
        for (const auto& [hash, h] : known) {
          if (hash == request->set_hash) handle = h;
        }
        if (!handle.valid()) {
          std::fprintf(stderr, "request %d references an unseen set\n",
                       verified);
          ++failures;
          break;
        }
      }
      ref_domain = request->domain;
      ref_width = request->width;
      ref_height = request->height;
    }
    std::optional<HeatmapResponse> reference;
    status = engine.ExecuteChecked(
        HeatmapRequestV2{handle, ref_domain, ref_width, ref_height},
        &reference);
    if (!status.ok()) {
      std::fprintf(stderr, "request %d: %s\n", verified,
                   status.ToString().c_str());
      ++failures;
      break;
    }
    if (reference->grid.values() != response->response->grid.values()) {
      std::fprintf(stderr,
                   "request %d: served grid differs from ExecuteChecked\n",
                   verified);
      ++failures;
      break;
    }
    ++verified;
  }
  std::fclose(req_file);
  std::fclose(resp_file);
  if (failures > 0) return 2;
  std::printf("verified %d responses bit-identical to direct ExecuteChecked\n",
              verified);
  return 0;
}

int CmdQuery(const Args& args) {
  std::vector<Point> clients, facilities;
  Metric metric;
  if (!LoadWorkload(args, &clients, &facilities) ||
      !ParseMetric(args, &metric)) {
    return 1;
  }
  if (!args.Has("x") || !args.Has("y")) {
    std::fprintf(stderr, "--x and --y are required\n");
    return 1;
  }
  const Point q{std::atof(args.Flag("x")), std::atof(args.Flag("y"))};
  RnnQueryEngine engine(clients, facilities, metric);
  const auto rnn = engine.Query(q);
  std::printf("R((%.6f, %.6f)) under %s: %zu clients\n", q.x, q.y,
              MetricName(metric).c_str(), rnn.size());
  for (const int32_t c : rnn) {
    std::printf("  client %d at (%.6f, %.6f)\n", c, clients[c].x,
                clients[c].y);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  if (!Parse(argc, argv, &args)) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "heatmap") return CmdHeatmap(args);
  if (cmd == "replay") return CmdReplay(args);
  if (cmd == "render") return CmdRender(args);
  if (cmd == "stats") return CmdStats(args);
  if (cmd == "topk") return CmdTopK(args);
  if (cmd == "query") return CmdQuery(args);
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "route") return CmdRoute(args);
  if (cmd == "wire-send") return CmdWireSend(args);
  if (cmd == "wire-pack") return CmdWirePack(args);
  if (cmd == "wire-verify") return CmdWireVerify(args);
  return Usage();
}
