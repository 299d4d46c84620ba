#include "query/heatmap_engine.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "common/check.h"
#include "core/crest_parallel.h"
#include "core/label_sink.h"
#include "heatmap/incremental.h"
#include "heatmap/raster_sink.h"
#include "query/sweep_cache.h"
#include "tile/tile_plan.h"

namespace rnnhm {

namespace {

// The raster-geometry contract every request form shares: a positive
// size and a non-degenerate domain.
Status CheckGeometry(const Rect& domain, int width, int height) {
  if (width <= 0 || height <= 0) {
    return Status::InvalidArgument("non-positive raster size");
  }
  if (!(domain.lo.x < domain.hi.x) || !(domain.lo.y < domain.hi.y)) {
    return Status::InvalidArgument("degenerate request domain");
  }
  return Status::Ok();
}

std::unique_ptr<SweepCache> MakeCache(const HeatmapEngineOptions& options) {
  if (options.cache_bytes == 0) return nullptr;
  SweepCacheOptions cache_options;
  cache_options.max_bytes = options.cache_bytes;
  cache_options.max_entries = options.cache_entries;
  return std::make_unique<SweepCache>(cache_options);
}

std::shared_ptr<CircleSetRegistry> MakeRegistry(
    const HeatmapEngineOptions& options) {
  if (options.registry != nullptr) return options.registry;
  return std::make_shared<CircleSetRegistry>();
}

// The per-tile cache key: the tile's circle-subset hash plus its pixel
// window inside the full raster (see SweepCacheKey).
SweepCacheKey TileKey(uint64_t subset_hash, const Rect& domain, int width,
                      int height, const TileWindow& w) {
  return SweepCacheKey{subset_hash, domain, width,    height,
                       w.col_lo,    w.col_hi, w.row_lo, w.row_hi};
}

Status CheckTileGrid(int tile_rows, int tile_cols) {
  if (tile_rows < 1 || tile_cols < 1 || tile_rows > kMaxTileGridSide ||
      tile_cols > kMaxTileGridSide) {
    return Status::InvalidArgument("tile grid outside [1, 1024] x [1, 1024]");
  }
  return Status::Ok();
}

// Runs `serve` (which returns a Status), turning anything it throws into
// kInternal: the Status entry points never let a sweep's exception out.
template <typename F>
Status Guarded(F&& serve) {
  try {
    return serve();
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  } catch (...) {
    return Status::Internal("sweep failed");
  }
}

}  // namespace

HeatmapEngine::HeatmapEngine(const InfluenceMeasure& measure,
                             HeatmapEngineOptions options)
    : measure_(measure),
      options_(std::move(options)),
      registry_(MakeRegistry(options_)),
      cache_(MakeCache(options_)) {
  RNNHM_CHECK_MSG(options_.crest.strip_sink == nullptr,
                  "HeatmapEngine owns the strip sink");
  RNNHM_CHECK(options_.num_threads >= 0);
  RNNHM_CHECK(options_.slabs_per_request >= 1);
  int n = options_.num_threads;
  if (n == 0) {
    n = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

HeatmapEngine::~HeatmapEngine() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

PinnedHeatmapRequest HeatmapEngine::Pin(
    const HeatmapRequestV2& request) const {
  // Contract checks fire at the submitting call site, not on a worker
  // thread.
  const Status geometry =
      CheckGeometry(request.domain, request.width, request.height);
  RNNHM_CHECK_MSG(geometry.ok(), geometry.message.c_str());
  std::shared_ptr<const CircleSetSnapshot> set =
      registry_->Resolve(request.circles);
  RNNHM_CHECK_MSG(set != nullptr,
                  "HeatmapRequestV2 handle is not registered with this "
                  "engine's registry");
  return PinnedHeatmapRequest{std::move(set), request.domain, request.width,
                              request.height};
}

void HeatmapEngine::Post(Task task) {
  {
    MutexLock lock(&mu_);
    RNNHM_CHECK_MSG(!stopping_, "Post on a stopping HeatmapEngine");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.NotifyOne();
}

std::future<HeatmapResponse> HeatmapEngine::Submit(
    const HeatmapRequestV2& request) {
  // The response (or the exception) is held until `done`, so the future
  // resolves only after the task has left pending().
  struct Outcome {
    std::promise<HeatmapResponse> promise;
    std::optional<HeatmapResponse> response;
    std::exception_ptr error;
  };
  auto outcome = std::make_shared<Outcome>();
  std::future<HeatmapResponse> future = outcome->promise.get_future();
  Post(Task{[this, outcome, pinned = Pin(request)] {
              try {
                outcome->response.emplace(Serve(pinned));
              } catch (...) {
                outcome->error = std::current_exception();
              }
            },
            [outcome] {
              if (outcome->error) {
                outcome->promise.set_exception(outcome->error);
              } else {
                outcome->promise.set_value(std::move(*outcome->response));
              }
            }});
  return future;
}

std::vector<HeatmapResponse> HeatmapEngine::RunBatch(
    const std::vector<HeatmapRequestV2>& requests) {
  std::vector<std::future<HeatmapResponse>> futures;
  futures.reserve(requests.size());
  for (const HeatmapRequestV2& r : requests) futures.push_back(Submit(r));
  std::vector<HeatmapResponse> out;
  out.reserve(futures.size());
  for (std::future<HeatmapResponse>& f : futures) out.push_back(f.get());
  return out;
}

Status HeatmapEngine::ExecuteChecked(
    const HeatmapRequestV2& request,
    std::optional<HeatmapResponse>* response) const {
  const PinnedHeatmapRequest pinned{registry_->Resolve(request.circles),
                                    request.domain, request.width,
                                    request.height};
  std::optional<SweepCacheHit> hit;
  if (const Status status = LookupChecked(pinned, &hit); !status.ok()) {
    return status;
  }
  if (!hit.has_value()) return SweepChecked(pinned, response);
  return Guarded([&] {
    *response = hit->Copy();
    return Status::Ok();
  });
}

Status HeatmapEngine::LookupChecked(
    const PinnedHeatmapRequest& request,
    std::optional<SweepCacheHit>* hit) const {
  if (const Status geometry =
          CheckGeometry(request.domain, request.width, request.height);
      !geometry.ok()) {
    return geometry;
  }
  if (request.set == nullptr) {
    return Status::NotFound("handle is not registered with this engine");
  }
  return Guarded([&] {
    *hit = Lookup(request);
    return Status::Ok();
  });
}

Status HeatmapEngine::SweepChecked(
    const PinnedHeatmapRequest& request,
    std::optional<HeatmapResponse>* response) const {
  if (const Status geometry =
          CheckGeometry(request.domain, request.width, request.height);
      !geometry.ok()) {
    return geometry;
  }
  if (request.set == nullptr) {
    return Status::NotFound("handle is not registered with this engine");
  }
  return Guarded([&] {
    *response = SweepAndAdmit(request);
    return Status::Ok();
  });
}

Status HeatmapEngine::ExecuteTiledChecked(
    const HeatmapRequestV2& request, int tile_rows, int tile_cols,
    std::optional<HeatmapResponse>* response,
    TiledServeStats* tile_stats) const {
  if (const Status geometry =
          CheckGeometry(request.domain, request.width, request.height);
      !geometry.ok()) {
    return geometry;
  }
  if (const Status grid = CheckTileGrid(tile_rows, tile_cols); !grid.ok()) {
    return grid;
  }
  const std::shared_ptr<const CircleSetSnapshot> set =
      registry_->Resolve(request.circles);
  if (set == nullptr) {
    return Status::NotFound("handle is not registered with this engine");
  }
  return Guarded([&] {
    const TilePlan plan(set->metric(), set->circles(), request.domain,
                        request.width, request.height,
                        TilePlanOptions{tile_rows, tile_cols});
    HeatmapResponse out{HeatmapGrid(request.width, request.height,
                                    request.domain, measure_.Evaluate({})),
                        {},
                        {},
                        /*from_cache=*/cache_ != nullptr,
                        {}};
    TiledServeStats tstats;
    tstats.tiles = tile_rows * tile_cols;
    for (const Tile& t : plan.tiles()) {
      if (t.window.empty() || t.circles.empty()) {
        // Pure background: the untiled sweep paints these pixels (if any)
        // with measure(∅), which the output grid already holds.
        ++tstats.background_tiles;
        continue;
      }
      HeatmapResponse fragment =
          ServeTileFragment(plan, t, set->metric(), request.domain,
                            request.width, request.height);
      TilePlan::StitchFragment(t.window, fragment.grid, &out.grid);
      out.stats += fragment.stats;
      out.l2_stats += fragment.l2_stats;
      if (fragment.from_cache) {
        ++tstats.cached_tiles;
      } else {
        ++tstats.swept_tiles;
        out.from_cache = false;
      }
    }
    out.cache = cache_stats();
    if (tile_stats != nullptr) *tile_stats = tstats;
    *response = std::move(out);
    return Status::Ok();
  });
}

Status HeatmapEngine::ExecuteTileFragmentChecked(
    const PinnedHeatmapRequest& request, int tile_rows, int tile_cols,
    int tile_id, std::optional<HeatmapResponse>* response) const {
  if (const Status geometry =
          CheckGeometry(request.domain, request.width, request.height);
      !geometry.ok()) {
    return geometry;
  }
  if (const Status grid = CheckTileGrid(tile_rows, tile_cols); !grid.ok()) {
    return grid;
  }
  if (tile_id < 0 || tile_id >= tile_rows * tile_cols) {
    return Status::InvalidArgument("tile id outside the tile grid");
  }
  const CircleSetSnapshot* set = request.set.get();
  if (set == nullptr) {
    return Status::NotFound("handle is not registered with this engine");
  }
  return Guarded([&] {
    const TilePlan plan(set->metric(), set->circles(), request.domain,
                        request.width, request.height,
                        TilePlanOptions{tile_rows, tile_cols});
    const Tile& t = plan.tiles()[tile_id];
    if (t.window.empty()) {
      return Status::InvalidArgument(
          "tile window is empty at this resolution");
    }
    *response = ServeTileFragment(plan, t, set->metric(), request.domain,
                                  request.width, request.height);
    return Status::Ok();
  });
}

Status HeatmapEngine::ExecuteDeltaChecked(
    const CircleSetHandle& base, std::span<const CircleSetEdit> edits,
    std::optional<uint64_t> expected_hash, const Rect& domain, int width,
    int height, CircleSetHandle* derived,
    std::optional<HeatmapResponse>* response, bool* spliced,
    IncrementalRasterStats* splice_stats) const {
  if (spliced != nullptr) *spliced = false;
  if (splice_stats != nullptr) *splice_stats = IncrementalRasterStats{};
  if (const Status geometry = CheckGeometry(domain, width, height);
      !geometry.ok()) {
    return geometry;
  }
  DirtyRegionSet dirty;
  std::shared_ptr<const CircleSetSnapshot> base_set;
  CircleSetHandle derived_handle;
  if (const Status status = registry_->ApplyDelta(
          base, edits, expected_hash, &derived_handle, &dirty, &base_set);
      !status.ok()) {
    return status;
  }
  *derived = derived_handle;
  // The derived registration we just made pins the entry, so this resolve
  // can only fail on a concurrent out-of-band Release.
  std::shared_ptr<const CircleSetSnapshot> set =
      registry_->Resolve(derived_handle);
  if (set == nullptr) {
    return Status::NotFound("derived set released before it could be served");
  }
  return Guarded([&] {
    if (cache_ != nullptr) {
      const SweepCacheKey derived_key{set->content_hash(), domain, width,
                                      height};
      if (std::optional<SweepCacheHit> hit =
              cache_->Lookup(derived_key, set)) {
        *response = hit->Copy();
        return Status::Ok();
      }
      // Splice: reuse the base raster when the cache still holds it and
      // the metric sweeps column-separably (kL1 sweeps the rotated frame,
      // where the dirty x-intervals do not map to output columns).
      if (set->metric() != Metric::kL1) {
        const SweepCacheKey base_key{base_set->content_hash(), domain, width,
                                     height};
        if (std::optional<SweepCacheHit> base_hit =
                cache_->Lookup(base_key, base_set)) {
          HeatmapGrid grid = base_hit->response->grid;  // the splice base
          const IncrementalRasterStats inc = RecomputeDirtyColumns(
              &grid, set->metric(), set->circles(), measure_, dirty);
          HeatmapResponse served{std::move(grid), inc.sweep.crest,
                                 inc.sweep.l2, false, {}};
          cache_->Insert(derived_key, set, served);
          served.cache = cache_->stats();
          if (spliced != nullptr) *spliced = true;
          if (splice_stats != nullptr) *splice_stats = inc;
          *response = std::move(served);
          return Status::Ok();
        }
      }
    }
    *response = SweepAndAdmit(
        PinnedHeatmapRequest{std::move(set), domain, width, height});
    return Status::Ok();
  });
}

HeatmapResponse HeatmapEngine::ServeTileFragment(const TilePlan& plan,
                                                 const Tile& t, Metric metric,
                                                 const Rect& domain, int width,
                                                 int height) const {
  if (t.circles.empty()) {
    // Background fragment: nothing to sweep, nothing worth caching.
    MetricSweepStats sweep;
    HeatmapGrid fragment =
        plan.SweepTileFragment(t, measure_, options_.slabs_per_request,
                               &sweep);
    return HeatmapResponse{std::move(fragment), sweep.crest, sweep.l2, false,
                           cache_stats()};
  }
  std::shared_ptr<const CircleSetSnapshot> subset =
      CircleSetSnapshot::Make(plan.GatherCircles(t), metric);
  const SweepCacheKey key =
      TileKey(subset->content_hash(), domain, width, height, t.window);
  if (cache_ != nullptr) {
    if (std::optional<SweepCacheHit> hit = cache_->Lookup(key, subset)) {
      return hit->Copy();
    }
  }
  MetricSweepStats sweep;
  HeatmapGrid fragment = plan.SweepTileFragment(
      t, measure_, options_.slabs_per_request, &sweep);
  HeatmapResponse response{std::move(fragment), sweep.crest, sweep.l2, false,
                           {}};
  if (cache_ != nullptr) {
    cache_->Insert(key, std::move(subset), response);
    response.cache = cache_->stats();
  }
  return response;
}

HeatmapResponse HeatmapEngine::Serve(
    const PinnedHeatmapRequest& request) const {
  std::optional<SweepCacheHit> hit = Lookup(request);
  return hit.has_value() ? hit->Copy() : SweepAndAdmit(request);
}

std::optional<SweepCacheHit> HeatmapEngine::Lookup(
    const PinnedHeatmapRequest& request) const {
  if (cache_ == nullptr) return std::nullopt;
  return cache_->Lookup(SweepCacheKey{request.set->content_hash(),
                                      request.domain, request.width,
                                      request.height},
                        request.set);
}

HeatmapResponse HeatmapEngine::SweepAndAdmit(
    const PinnedHeatmapRequest& request) const {
  const CircleSetSnapshot& set = *request.set;
  HeatmapResponse response = Sweep(set.circles(), set.metric(),
                                   request.domain, request.width,
                                   request.height);
  if (cache_ != nullptr) {
    cache_->Insert(SweepCacheKey{set.content_hash(), request.domain,
                                 request.width, request.height},
                   request.set, response);
    response.cache = cache_->stats();
  }
  return response;
}

HeatmapResponse HeatmapEngine::Sweep(const std::vector<NnCircle>& circles,
                                     Metric metric, const Rect& domain,
                                     int width, int height) const {
  switch (metric) {
    case Metric::kL1: {
      CrestStats stats;
      HeatmapGrid grid = BuildHeatmapL1Parallel(
          circles, measure_, domain, width, height,
          options_.slabs_per_request, /*oversample=*/1.5, &stats,
          options_.crest);
      return HeatmapResponse{std::move(grid), stats, {}, false, {}};
    }
    case Metric::kL2: {
      HeatmapGrid grid(width, height, domain, measure_.Evaluate({}));
      RasterArcSink raster(&grid);
      CrestL2Options l2;
      l2.arc_sink = &raster;
      const CrestL2Stats stats = RunCrestL2ParallelStrips(
          circles, measure_, options_.slabs_per_request, l2);
      return HeatmapResponse{std::move(grid), {}, stats, false, {}};
    }
    case Metric::kLInf:
      break;
  }
  HeatmapGrid grid(width, height, domain, measure_.Evaluate({}));
  RasterStripSink raster(&grid);
  CrestOptions crest = options_.crest;
  crest.strip_sink = &raster;
  CrestStats stats;
  if (options_.slabs_per_request > 1) {
    // Slab-decomposed sweep: shards paint disjoint strips of the shared
    // grid; region labels themselves are not needed.
    stats = RunCrestParallelStrips(circles, measure_,
                                   options_.slabs_per_request, crest);
  } else {
    CountingSink counter;
    stats = RunCrest(circles, measure_, &counter, crest);
  }
  return HeatmapResponse{std::move(grid), stats, {}, false, {}};
}

HeatmapResponse SweepCacheHit::Copy() const {
  HeatmapResponse out = *response;
  out.from_cache = true;
  out.cache = stats;
  return out;
}

size_t HeatmapEngine::pending() const {
  MutexLock lock(&mu_);
  return in_flight_;
}

SweepCacheStats HeatmapEngine::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : SweepCacheStats{};
}

void HeatmapEngine::WorkerLoop() {
  for (;;) {
    std::optional<Task> task;
    {
      MutexLock lock(&mu_);
      // An explicit predicate loop (rather than the predicate overload of
      // wait) keeps the guarded reads inside this analyzed scope.
      while (!stopping_ && queue_.empty()) work_available_.Wait(mu_);
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task.emplace(std::move(queue_.front()));
      queue_.pop_front();
    }
    task->run();
    // Leave the pending count before the completion runs, so a caller
    // that has observed every completion also observes pending() == 0.
    {
      MutexLock lock(&mu_);
      --in_flight_;
    }
    if (task->done) task->done();
  }
}

}  // namespace rnnhm
