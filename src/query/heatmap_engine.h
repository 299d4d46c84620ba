// Batched, multi-threaded heat-map serving facade.
//
// The paper's motivating workloads (taxi sharing, location planning) issue
// many independent RNNHM computations: one per city tile, per time tick, or
// per what-if facility placement. HeatmapEngine turns those into a service:
// requests are submitted from any thread, queued, and dispatched across a
// worker pool; each request runs the CREST sweep of its metric and
// rasterizes its heat map exactly as the sequential builder for that metric
// does (BuildHeatmapLInf / BuildHeatmapL1Parallel / BuildHeatmapL2), so
// batched output is bit-identical to a sequential run over the same inputs.
//
// Requests (HeatmapRequestV2) reference a circle set registered in the
// engine's CircleSetRegistry by CircleSetHandle: submits never copy circle
// data, and cache probes key off the handle's precomputed content hash
// (O(1) in the circle count). Register once, then submit any number of
// requests against the handle.
//
// The worker pool drains one FIFO queue of tasks (HeatmapEngine::Task: a
// body plus a completion callback). Submit is one such task whose
// completion fulfils a future; the socket server (serve/event_loop.h)
// posts its cache misses, deltas and tile fragments as tasks whose
// completion wakes its loop thread. There is no second pool.
//
// Two parallelism axes compose:
//   * across requests — `num_threads` workers drain the shared queue;
//   * within a request — `slabs_per_request > 1` sweeps each request with
//     the slab-decomposed RunCrestParallel / RunCrestL2Parallel, painting
//     one shared grid through the strip sink (slab strips never overlap,
//     so the raster is still exact and deterministic).
// A third axis avoids the sweep altogether: `cache_bytes > 0` enables the
// content-addressed SweepCache (query/sweep_cache.h), which memoizes whole
// responses across Submit/RunBatch/ExecuteChecked — repeated workloads are
// served bit-identically without recomputation, and every response reports
// whether it was a hit (`from_cache`) plus the cache counters (`cache`).
//
// Determinism contract: a request's grid depends only on the request and
// the measure, never on scheduling. `HeatmapEngineOptions{.num_threads = 1}`
// additionally serializes execution in submission order — the mode tests
// use as the reference.
//
// The engine holds a reference to one shared InfluenceMeasure; it must be
// safe for concurrent Evaluate (SizeInfluence, WeightedInfluence and
// ConnectivityInfluence are — see the crest_parallel contract).
#ifndef RNNHM_QUERY_HEATMAP_ENGINE_H_
#define RNNHM_QUERY_HEATMAP_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/crest.h"
#include "core/crest_l2.h"
#include "core/influence_measure.h"
#include "geom/geometry.h"
#include "heatmap/heatmap.h"
#include "heatmap/incremental.h"
#include "query/circle_set_registry.h"

namespace rnnhm {

class SweepCache;
struct SweepCacheKey;
class TilePlan;
struct Tile;

/// One heat-map computation: sweep the registered circle set and rasterize
/// its influence field over `domain` at `width` x `height`. L2 sets run the
/// arc sweep and are exact at pixel centers; L1 sets sweep the rotated
/// frame and resample. The circle set travels as a handle into the
/// engine's CircleSetRegistry (register via
/// `engine.registry().Register(...)`), so a population shared by many
/// requests is stored once and cache probes reuse the handle's precomputed
/// content hash. The metric is a property of the registered set, not of
/// the request.
struct HeatmapRequestV2 {
  /// Handle of a set registered in the serving engine's registry.
  CircleSetHandle circles;
  /// Rectangular raster window (need not cover every circle).
  Rect domain;
  /// Raster resolution in pixels; both must be positive.
  int width = 0;
  int height = 0;
};

/// A request whose circle set is already resolved and pinned: the snapshot
/// lives as long as this struct does, whatever the registry releases or
/// evicts meanwhile. The form a request takes in flight — a server
/// resolves on its loop thread and hands this to a worker.
struct PinnedHeatmapRequest {
  std::shared_ptr<const CircleSetSnapshot> set;
  Rect domain;
  int width = 0;
  int height = 0;
};

/// Aggregate counters of a SweepCache (also snapshotted onto every
/// response served by a cache-enabled engine). Hits/misses/insertions/
/// evictions are cumulative; entries/bytes describe the current contents.
struct SweepCacheStats {
  uint64_t hits = 0;        ///< lookups answered from the cache
  uint64_t misses = 0;      ///< lookups that fell through to a sweep
  uint64_t insertions = 0;  ///< responses admitted
  uint64_t evictions = 0;   ///< entries dropped by the LRU/byte budget
  size_t entries = 0;       ///< resident entries
  size_t bytes = 0;         ///< resident bytes (grids + keys)
};

/// Per-request accounting of one ExecuteTiledChecked call: how each tile of the
/// R x C grid was served. `background_tiles` covers tiles with an empty
/// pixel window or no assigned circles (their pixels are pure background
/// and need no sweep and no cache entry); the rest are fragments served
/// from the SweepCache (`cached_tiles`) or recomputed (`swept_tiles`).
struct TiledServeStats {
  int tiles = 0;             ///< tile_rows * tile_cols
  int background_tiles = 0;  ///< empty window or empty circle subset
  int cached_tiles = 0;      ///< fragments served from the cache
  int swept_tiles = 0;       ///< fragments recomputed by a sweep
};

/// The finished raster plus the sweep's counters: `stats` for the
/// rectilinear sweeps (kLInf, kL1), `l2_stats` for the arc sweep (kL2);
/// the counters of the sweep that did not run stay zero.
struct HeatmapResponse {
  HeatmapGrid grid;
  CrestStats stats;
  CrestL2Stats l2_stats;
  /// True iff this response was served from the engine's SweepCache
  /// without running a sweep (always false on cache-disabled engines).
  bool from_cache = false;
  /// Snapshot of the engine's cache counters taken when this response was
  /// served (all zero on cache-disabled engines).
  SweepCacheStats cache;
};

struct HeatmapEngineOptions {
  /// Worker threads draining the request queue. 0 picks the hardware
  /// concurrency; 1 gives the deterministic single-worker mode (requests
  /// execute one at a time in submission order).
  int num_threads = 0;
  /// Slabs per request for the intra-request parallel sweep. 1 runs the
  /// plain sequential RunCrest per request (the bit-identity reference);
  /// higher values decompose each sweep via RunCrestParallel.
  int slabs_per_request = 1;
  /// Sweep tuning forwarded to every request. `strip_sink` is owned by the
  /// engine and must be left null here.
  CrestOptions crest;
  /// Byte budget of the engine's result cache (SweepCache): 0 disables
  /// caching, any positive value memoizes whole responses keyed by the
  /// request content. Repeated workloads (sessions re-submitting
  /// near-identical circle sets every tick, what-if replays) then skip the
  /// sweep entirely; cached responses are bit-identical to freshly
  /// computed ones.
  size_t cache_bytes = 0;
  /// Entry-count ceiling of the result cache (LRU evicts beyond either
  /// budget). Ignored when `cache_bytes` is 0.
  size_t cache_entries = 256;
  /// Circle-set registry v2 requests resolve against. Null makes the
  /// engine create a private one (reachable via `registry()`); pass a
  /// shared registry to let several engines or sessions publish into the
  /// same handle space.
  std::shared_ptr<CircleSetRegistry> registry;
};

/// Thread-safe batched facade over CREST heat-map construction.
class HeatmapEngine {
 public:
  explicit HeatmapEngine(const InfluenceMeasure& measure,
                         HeatmapEngineOptions options = {});
  ~HeatmapEngine();

  HeatmapEngine(const HeatmapEngine&) = delete;
  HeatmapEngine& operator=(const HeatmapEngine&) = delete;

  /// One unit of pool work: `run` executes on a worker thread; `done`,
  /// when set, runs on the same thread afterwards, once the task has left
  /// pending() — so whoever `done` signals already sees the pool without
  /// it. Neither may throw.
  struct Task {
    std::function<void()> run;
    std::function<void()> done;
  };

  /// Queues `task` for the worker pool (FIFO); callable concurrently from
  /// any thread. CHECK-fails on a stopping engine.
  void Post(Task task) RNNHM_EXCLUDES(mu_);

  /// Enqueues one request as a pool task; callable concurrently from any
  /// thread. Invalid requests (non-positive raster size, degenerate
  /// domain) and handles that do not name a live set in `registry()`
  /// CHECK-fail here, at the call site — resolve untrusted handles
  /// yourself first, or use ExecuteChecked. The snapshot is pinned for the
  /// request's lifetime, so a concurrent Release cannot unmap it
  /// mid-sweep. The future carries the response or any exception thrown
  /// while serving.
  std::future<HeatmapResponse> Submit(const HeatmapRequestV2& request);

  /// Submits a whole batch and waits; responses are returned in request
  /// order regardless of completion order.
  std::vector<HeatmapResponse> RunBatch(
      const std::vector<HeatmapRequestV2>& requests);

  /// Computes one request through the domain-tiling path
  /// (tile/tile_plan.h): the raster is split into a tile_rows x tile_cols
  /// grid, each tile sweeps just the circles whose influence can reach it,
  /// and the stitched result is bit-identical to the untiled response to
  /// the same request. With caching enabled, each tile's *fragment* is
  /// memoized under the hash of the tile's circle subset plus its pixel
  /// window — so after an edit, only the tiles the edited circle's influence
  /// region overlaps miss (their subset hash changed) and every other
  /// tile restitches from the cache, composing with the 2D dirty-rect
  /// machinery of the delta path at tile granularity. `tile_stats`, when
  /// non-null, reports how each tile was served. Status as
  /// ExecuteChecked, plus kInvalidArgument for a tile grid side outside
  /// [1, kMaxTileGridSide].
  Status ExecuteTiledChecked(const HeatmapRequestV2& request, int tile_rows,
                             int tile_cols,
                             std::optional<HeatmapResponse>* response,
                             TiledServeStats* tile_stats = nullptr) const;

  /// The serving-stack by-tile shard path: computes the single tile
  /// `tile_id` (row-major, in [0, tile_rows * tile_cols)) of the tiled
  /// decomposition of `request` and returns its *fragment* — a grid of
  /// the tile's window size whose cell (i, j) is global pixel
  /// (window.col_lo + i, window.row_lo + j). Fragments are memoized under
  /// the same per-tile keys ExecuteTiledChecked uses. Every failure is a
  /// Status: kInvalidArgument for bad geometry, a bad tile grid (each
  /// side in [1, kMaxTileGridSide]), a tile id outside the grid, or an
  /// empty tile window (route only non-empty windows); kNotFound for a
  /// null snapshot; kInternal for a sweep that threw.
  Status ExecuteTileFragmentChecked(
      const PinnedHeatmapRequest& request, int tile_rows, int tile_cols,
      int tile_id, std::optional<HeatmapResponse>* response) const;

  /// Computes one request synchronously on the calling thread, bypassing
  /// the queue (but not the result cache) — exactly the code path workers
  /// run: probe the cache with the handle's precomputed hash, sweep on a
  /// miss, admit the response. Copy-free on every path: the circle data is
  /// only ever shared, never duplicated. Every failure comes back as a
  /// Status instead of a CHECK or an exception — kInvalidArgument for bad
  /// geometry, kNotFound for a handle this registry does not resolve,
  /// kInternal for a sweep that threw. `*response` is engaged only on ok
  /// (an optional because a HeatmapResponse has no empty state — its grid
  /// carries dimensions).
  Status ExecuteChecked(const HeatmapRequestV2& request,
                        std::optional<HeatmapResponse>* response) const;

  /// ExecuteChecked's two halves, for a server that answers cache hits on
  /// its own thread and hands misses to the pool (serve/wire_server.h).
  /// LookupChecked checks geometry and probes the cache: kOk with `*hit`
  /// engaged on a hit, kOk with `*hit` empty on a miss or a cache-disabled
  /// engine. SweepChecked serves the miss — sweep, then admit — without
  /// probing again, so one LookupChecked plus one SweepChecked moves the
  /// cache counters exactly as one ExecuteChecked does. A null snapshot
  /// is kNotFound; a throwing sweep kInternal.
  Status LookupChecked(const PinnedHeatmapRequest& request,
                       std::optional<HeatmapResponse>* hit) const;
  Status SweepChecked(const PinnedHeatmapRequest& request,
                      std::optional<HeatmapResponse>* response) const;

  /// The serving-stack delta path (wire v4): derives a new registered set
  /// from `base` + `edits` via registry().ApplyDelta (the caller owns the
  /// derived registration bump reported through `*derived`), then serves
  /// the derived set's heat map over `domain` at `width` x `height`.
  /// When the engine's cache still holds the base raster for the same
  /// geometry and the metric is column-separable (kLInf, kL2), the
  /// response is *spliced* — only the pixels inside the dirty rects the
  /// edits touched are recomputed — and is bit-identical to a
  /// from-scratch sweep by the incremental-raster contract
  /// (heatmap/incremental.h); otherwise it falls back to the normal cold
  /// path. `*spliced`, when non-null, reports which path served the
  /// response; `*splice_stats`, when non-null, receives the splice pass
  /// counters (zeroed when the response was not spliced). Status mirrors
  /// ExecuteChecked plus ApplyDelta's kNotFound (base gone/evicted) and
  /// kInvalidArgument (bad edit index, derived-hash mismatch). Nothing is
  /// registered when ApplyDelta fails; once it succeeded, `*derived` is
  /// set even if serving then fails, so the caller can release it.
  Status ExecuteDeltaChecked(const CircleSetHandle& base,
                             std::span<const CircleSetEdit> edits,
                             std::optional<uint64_t> expected_hash,
                             const Rect& domain, int width, int height,
                             CircleSetHandle* derived,
                             std::optional<HeatmapResponse>* response,
                             bool* spliced = nullptr,
                             IncrementalRasterStats* splice_stats =
                                 nullptr) const;

  /// The registry v2 handles resolve against (engine-private unless one
  /// was passed in via options).
  CircleSetRegistry& registry() const { return *registry_; }

  /// Resolved worker count.
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Tasks (submitted requests included) accepted but not yet finished.
  size_t pending() const RNNHM_EXCLUDES(mu_);

  /// Current result-cache counters; all-zero when caching is disabled.
  SweepCacheStats cache_stats() const;

 private:
  void WorkerLoop() RNNHM_EXCLUDES(mu_);
  // Geometry check plus registry resolve; CHECK-fails (the Submit
  // contract).
  PinnedHeatmapRequest Pin(const HeatmapRequestV2& request) const;
  // The shared serve path: Lookup, then SweepAndAdmit on a miss.
  HeatmapResponse Serve(const PinnedHeatmapRequest& request) const;
  // Cache probe keyed by the snapshot's content hash; nullopt on a miss
  // or a cache-disabled engine.
  std::optional<HeatmapResponse> Lookup(
      const PinnedHeatmapRequest& request) const;
  // The miss path: sweep, then admit sharing the snapshot.
  HeatmapResponse SweepAndAdmit(const PinnedHeatmapRequest& request) const;
  // The uncached sweep.
  HeatmapResponse Sweep(const std::vector<NnCircle>& circles, Metric metric,
                        const Rect& domain, int width, int height) const;
  // One tile's fragment: cache probe under the per-tile key (subset hash +
  // pixel window), fragment sweep on a miss, admit. Requires a non-empty
  // window; an empty circle subset yields an uncached background fragment.
  HeatmapResponse ServeTileFragment(const TilePlan& plan, const Tile& t,
                                    Metric metric, const Rect& domain,
                                    int width, int height) const;

  const InfluenceMeasure& measure_;
  const HeatmapEngineOptions options_;
  const std::shared_ptr<CircleSetRegistry> registry_;
  // Result cache shared by all workers (internally synchronized); null
  // when options_.cache_bytes == 0. Const pointer, mutable pointee: the
  // cache may be consulted from the const Execute* paths.
  const std::unique_ptr<SweepCache> cache_;

  mutable Mutex mu_;
  CondVar work_available_;
  std::deque<Task> queue_ RNNHM_GUARDED_BY(mu_);
  // Queued + currently executing.
  size_t in_flight_ RNNHM_GUARDED_BY(mu_) = 0;
  bool stopping_ RNNHM_GUARDED_BY(mu_) = false;
  // Written only by the constructor, before any worker runs; read-only
  // afterwards (num_threads, the destructor's join).
  std::vector<std::thread> workers_;
};

}  // namespace rnnhm

#endif  // RNNHM_QUERY_HEATMAP_ENGINE_H_
