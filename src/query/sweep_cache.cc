#include "query/sweep_cache.h"

#include <cstring>
#include <utility>

#include "common/mutex.h"

#include "heatmap/serialization.h"

namespace rnnhm {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void HashBytes(uint64_t* h, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void HashDouble(uint64_t* h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  HashBytes(h, &bits, sizeof(bits));
}

// Fixed per-entry key overhead charged against the byte budget. The value
// is pinned (it was the size of the former inline request struct under gcc
// on x86-64) so admission and eviction stay byte-for-byte stable across
// builds and API changes.
constexpr size_t kEntryKeyBytes = 72;

// Resident footprint of one entry: the memoized grid at its serialized
// size plus the key's circle payload (what dominates in practice).
// Deliberately conservative: several entries sharing one snapshot each
// charge the full circle payload, so the budget over- (never under-)
// estimates residency.
size_t EntryBytes(size_t num_circles, const HeatmapResponse& response) {
  return SerializedSizeBytes(response.grid) + num_circles * sizeof(NnCircle) +
         kEntryKeyBytes;
}

}  // namespace

SweepCache::SweepCache(SweepCacheOptions options) : options_(options) {}

uint64_t SweepCache::Fingerprint(const SweepCacheKey& key) {
  uint64_t h = kFnvOffset;
  HashBytes(&h, &key.set_hash, sizeof(key.set_hash));
  HashDouble(&h, key.domain.lo.x);
  HashDouble(&h, key.domain.lo.y);
  HashDouble(&h, key.domain.hi.x);
  HashDouble(&h, key.domain.hi.y);
  HashBytes(&h, &key.width, sizeof(key.width));
  HashBytes(&h, &key.height, sizeof(key.height));
  HashBytes(&h, &key.tile_col_lo, sizeof(key.tile_col_lo));
  HashBytes(&h, &key.tile_col_hi, sizeof(key.tile_col_hi));
  HashBytes(&h, &key.tile_row_lo, sizeof(key.tile_row_lo));
  HashBytes(&h, &key.tile_row_hi, sizeof(key.tile_row_hi));
  return h;
}

template <typename SameSet>
std::optional<HeatmapResponse> SweepCache::LookupImpl(
    const SweepCacheKey& key, const SameSet& same_set) {
  const uint64_t fingerprint = Fingerprint(key);
  std::shared_ptr<const HeatmapResponse> found;
  SweepCacheStats snapshot;
  {
    MutexLock lock(&mu_);
    const auto it = index_.find(fingerprint);
    if (it == index_.end() || !(it->second->key == key) ||
        !same_set(*it->second->set)) {
      ++stats_.misses;
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second);  // mark most-recently used
    ++stats_.hits;
    found = it->second->response;
    snapshot = stats_;
  }
  // Materialize the caller's copy outside the critical section: the entry
  // is immutable, so concurrent hits copy the grid in parallel (eviction
  // in another thread only drops the shared reference, never the bytes).
  HeatmapResponse out = *found;
  out.from_cache = true;
  out.cache = snapshot;
  return out;
}

std::optional<HeatmapResponse> SweepCache::Lookup(
    const SweepCacheKey& key,
    const std::shared_ptr<const CircleSetSnapshot>& set) {
  return LookupImpl(key, [&](const CircleSetSnapshot& entry_set) {
    return &entry_set == set.get() ||
           entry_set.SameContent(set->circles(), set->metric());
  });
}

std::optional<HeatmapResponse> SweepCache::Lookup(
    const SweepCacheKey& key, std::span<const NnCircle> circles,
    Metric metric) {
  return LookupImpl(key, [&](const CircleSetSnapshot& entry_set) {
    return entry_set.SameContent(circles, metric);
  });
}

void SweepCache::Insert(const SweepCacheKey& key,
                        std::shared_ptr<const CircleSetSnapshot> set,
                        const HeatmapResponse& response) {
  const uint64_t fingerprint = Fingerprint(key);
  const size_t bytes = EntryBytes(set->circles().size(), response);
  if (bytes > options_.max_bytes) return;  // would evict everything for one
  // Copy the response before taking the lock (it is the expensive part);
  // stored copies are pristine: no hit flag, no stale stats snapshot.
  auto stored = std::make_shared<HeatmapResponse>(response);
  stored->from_cache = false;
  stored->cache = SweepCacheStats{};
  MutexLock lock(&mu_);
  const auto it = index_.find(fingerprint);
  if (it != index_.end()) {  // replace (also heals a fingerprint collision)
    stats_.bytes -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
    --stats_.entries;
  }
  lru_.push_front(
      Entry{fingerprint, key, std::move(set), std::move(stored), bytes});
  index_[fingerprint] = lru_.begin();
  stats_.bytes += bytes;
  ++stats_.entries;
  ++stats_.insertions;
  EvictToFitLocked();
}

void SweepCache::EvictToFitLocked() {
  while (!lru_.empty() && (stats_.bytes > options_.max_bytes ||
                           stats_.entries > options_.max_entries)) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.bytes;
    --stats_.entries;
    ++stats_.evictions;
    index_.erase(victim.fingerprint);
    lru_.pop_back();
  }
}

SweepCacheStats SweepCache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void SweepCache::Clear() {
  MutexLock lock(&mu_);
  lru_.clear();
  index_.clear();
  stats_.entries = 0;
  stats_.bytes = 0;
}

}  // namespace rnnhm
