// Content-addressed memoization of heat-map responses.
//
// The paper's interactive workloads re-request near-identical heat maps
// constantly: a session re-submits its circle set every tick, a what-if
// exploration toggles between a handful of facility placements, a tile
// server re-renders the same tile for every viewer. A SweepCache memoizes
// whole HeatmapResponses keyed by the *content* of the request — the exact
// circle multiset, metric, domain and resolution — so any byte-identical
// re-request is served without sweeping, and any perturbation (one circle
// nudged) safely misses.
//
// Keys are SweepCacheKeys: the circle set's precomputed content hash
// (HashCircleSet, which folds in the metric) plus domain and resolution.
// Handle-based lookups therefore cost O(1) in the circle count — the hash
// travels with the CircleSetHandle and is never recomputed.
// Every hit additionally verifies full content equality against the
// entry's snapshot (pointer equality short-circuits for snapshots shared
// through a CircleSetRegistry), so a fingerprint collision degrades to a
// miss instead of returning the wrong map.
// Eviction is LRU under two ceilings: resident bytes (grids are sized via
// SerializedSizeBytes, keys by their circle payload) and entry count.
// All methods are thread-safe; workers of one engine share one instance.
#ifndef RNNHM_QUERY_SWEEP_CACHE_H_
#define RNNHM_QUERY_SWEEP_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"

#include "query/circle_set_registry.h"
#include "query/heatmap_engine.h"

namespace rnnhm {

/// Budgets for a SweepCache; entries evict (LRU first) whenever either
/// ceiling is exceeded.
struct SweepCacheOptions {
  /// Resident-byte ceiling (response grids + request keys). An entry
  /// larger than the whole budget is never admitted.
  size_t max_bytes = 64ull << 20;
  /// Resident-entry ceiling.
  size_t max_entries = 256;
};

/// The full cache key of one memoized response: the circle set by content
/// hash (metric folded in by HashCircleSet) plus the raster geometry.
///
/// Tiled serving (query/heatmap_engine.h ExecuteTiledChecked)
/// additionally keys each memoized *fragment* by its tile's pixel window
/// inside the full raster: `set_hash` is then the hash of just the
/// circles assigned to the tile, so an edit invalidates only the
/// fragments whose tile the edited circle's influence region overlaps —
/// every other tile's subset hashes unchanged and keeps hitting.
/// Whole-raster entries leave the window fields at their zero defaults,
/// so untiled keys compare and fingerprint exactly as before tiling
/// existed.
struct SweepCacheKey {
  uint64_t set_hash = 0;
  Rect domain;
  int width = 0;
  int height = 0;
  /// Half-open pixel window of a tiled fragment; all-zero (the default)
  /// for whole-raster entries.
  int tile_col_lo = 0;
  int tile_col_hi = 0;
  int tile_row_lo = 0;
  int tile_row_hi = 0;

  friend bool operator==(const SweepCacheKey&,
                         const SweepCacheKey&) = default;
};

/// Thread-safe LRU response cache keyed by request content.
class SweepCache {
 public:
  explicit SweepCache(SweepCacheOptions options);

  /// Returns the memoized response for `key` (marking it most-recently
  /// used), or nullopt. `set` is the lookup's circle set, used only to
  /// verify a candidate entry's content on a hash collision — snapshots
  /// shared through a registry short-circuit on pointer equality. The
  /// returned copy has `from_cache` set and carries a fresh stats
  /// snapshot.
  std::optional<HeatmapResponse> Lookup(
      const SweepCacheKey& key,
      const std::shared_ptr<const CircleSetSnapshot>& set)
      RNNHM_EXCLUDES(mu_);

  /// As above for callers without a snapshot (tile fragments, whose
  /// circle subset is gathered per lookup): collision verification
  /// compares against `circles`/`metric` directly, with no copy and no
  /// re-hash.
  std::optional<HeatmapResponse> Lookup(const SweepCacheKey& key,
                                        std::span<const NnCircle> circles,
                                        Metric metric) RNNHM_EXCLUDES(mu_);

  /// Admits `response` for `key`, evicting LRU entries to fit. `set` must
  /// be the snapshot the response was computed from (its hash must equal
  /// `key.set_hash`); the entry shares it, copy-free. A response too
  /// large for the byte budget is silently not admitted; a re-insert
  /// under an existing key replaces the entry.
  void Insert(const SweepCacheKey& key,
              std::shared_ptr<const CircleSetSnapshot> set,
              const HeatmapResponse& response) RNNHM_EXCLUDES(mu_);

  /// Current counters (cumulative hit/miss/insert/evict, resident sizes).
  SweepCacheStats stats() const RNNHM_EXCLUDES(mu_);

  /// Drops every entry (counters other than entries/bytes are kept).
  void Clear() RNNHM_EXCLUDES(mu_);

  /// The 64-bit index fingerprint of a key (FNV-1a over its fields).
  /// Exposed for tests and for callers that shard by key.
  static uint64_t Fingerprint(const SweepCacheKey& key);

 private:
  struct Entry {
    uint64_t fingerprint;
    SweepCacheKey key;
    // The circle set the response was computed from; kept to verify
    // content equality on hit.
    std::shared_ptr<const CircleSetSnapshot> set;
    // Immutable once admitted; hits grab the pointer under the lock and
    // materialize the caller's copy outside it, so concurrent hits never
    // serialize on the multi-megabyte grid copy.
    std::shared_ptr<const HeatmapResponse> response;
    size_t bytes;
  };

  // Shared hit path: `same_set` decides whether a candidate entry's
  // snapshot matches the lookup's circle content.
  template <typename SameSet>
  std::optional<HeatmapResponse> LookupImpl(const SweepCacheKey& key,
                                            const SameSet& same_set)
      RNNHM_EXCLUDES(mu_);

  // Evicts LRU entries until both budgets hold.
  void EvictToFitLocked() RNNHM_REQUIRES(mu_);

  const SweepCacheOptions options_;
  mutable Mutex mu_;
  // Front = most recently used.
  std::list<Entry> lru_ RNNHM_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_
      RNNHM_GUARDED_BY(mu_);
  SweepCacheStats stats_ RNNHM_GUARDED_BY(mu_);
};

}  // namespace rnnhm

#endif  // RNNHM_QUERY_SWEEP_CACHE_H_
