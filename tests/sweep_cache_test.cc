#include "query/sweep_cache.h"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "heatmap/influence.h"
#include "heatmap/serialization.h"
#include "query/heatmap_engine.h"

namespace rnnhm {
namespace {

std::vector<NnCircle> MakeCircles(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<NnCircle> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                           rng.Uniform(0.02, 0.2), i});
  }
  return out;
}

const Rect kUnit{{0, 0}, {1, 1}};

// One cacheable computation: a circle-set snapshot and its whole-raster
// key at 24 x 24 over the unit square.
struct Entry {
  std::shared_ptr<const CircleSetSnapshot> set;
  SweepCacheKey key;
};

Entry MakeEntry(std::vector<NnCircle> circles,
                Metric metric = Metric::kLInf) {
  auto set = CircleSetSnapshot::Make(std::move(circles), metric);
  const SweepCacheKey key{set->content_hash(), kUnit, 24, 24};
  return Entry{std::move(set), key};
}

Entry MakeEntry(uint64_t seed, int n = 40, Metric metric = Metric::kLInf) {
  return MakeEntry(MakeCircles(seed, n), metric);
}

HeatmapEngineOptions SingleWorker() {
  HeatmapEngineOptions options;
  options.num_threads = 1;
  return options;
}

HeatmapRequestV2 Register(HeatmapEngine& engine, const Entry& e) {
  return HeatmapRequestV2{
      engine.registry().Register(e.set->circles(), e.set->metric()),
      e.key.domain, e.key.width, e.key.height};
}

HeatmapResponse MakeResponse(const Entry& e) {
  SizeInfluence measure;
  HeatmapEngine engine(measure, SingleWorker());
  return engine.Submit(Register(engine, e)).get();
}

TEST(SweepCacheTest, MissThenHitReturnsBitIdenticalResponse) {
  SweepCache cache(SweepCacheOptions{});
  const Entry e = MakeEntry(1);
  EXPECT_FALSE(cache.Lookup(e.key, e.set).has_value());
  const HeatmapResponse response = MakeResponse(e);
  cache.Insert(e.key, e.set, response);
  const auto hit = cache.Lookup(e.key, e.set);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->from_cache);
  EXPECT_EQ(hit->grid.values(), response.grid.values());
  EXPECT_EQ(hit->grid.domain(), response.grid.domain());
  EXPECT_EQ(hit->stats.num_labelings, response.stats.num_labelings);
  EXPECT_EQ(hit->cache.hits, 1u);
  EXPECT_EQ(hit->cache.misses, 1u);
}

TEST(SweepCacheTest, FingerprintIsContentSensitive) {
  const Entry base = MakeEntry(2);
  const uint64_t key = SweepCache::Fingerprint(base.key);
  EXPECT_EQ(key, SweepCache::Fingerprint(MakeEntry(2).key));  // stable

  std::vector<NnCircle> nudged = base.set->circles();
  nudged[7].center.x += 1e-12;  // one circle, one ulp-ish nudge
  EXPECT_NE(key, SweepCache::Fingerprint(MakeEntry(nudged).key));
  SweepCacheKey resized = base.key;
  resized.width = 25;
  EXPECT_NE(key, SweepCache::Fingerprint(resized));
  EXPECT_NE(key, SweepCache::Fingerprint(
                     MakeEntry(base.set->circles(), Metric::kL2).key));
  SweepCacheKey moved_domain = base.key;
  moved_domain.domain.hi.x += 0.5;
  EXPECT_NE(key, SweepCache::Fingerprint(moved_domain));
}

TEST(SweepCacheTest, PerturbedRequestMisses) {
  SweepCache cache(SweepCacheOptions{});
  const Entry e = MakeEntry(3);
  cache.Insert(e.key, e.set, MakeResponse(e));
  std::vector<NnCircle> nudged = e.set->circles();
  nudged.back().radius *= 1.0000001;
  const Entry perturbed = MakeEntry(nudged);
  EXPECT_FALSE(cache.Lookup(perturbed.key, perturbed.set).has_value());
  EXPECT_TRUE(cache.Lookup(e.key, e.set).has_value());
}

TEST(SweepCacheTest, LruEvictsOldestFirstUnderEntryBudget) {
  SweepCacheOptions options;
  options.max_entries = 2;
  SweepCache cache(options);
  const Entry a = MakeEntry(10), b = MakeEntry(11), c = MakeEntry(12);
  cache.Insert(a.key, a.set, MakeResponse(a));
  cache.Insert(b.key, b.set, MakeResponse(b));
  EXPECT_TRUE(cache.Lookup(a.key, a.set).has_value());  // b becomes LRU
  cache.Insert(c.key, c.set, MakeResponse(c));          // evicts b
  EXPECT_TRUE(cache.Lookup(a.key, a.set).has_value());
  EXPECT_FALSE(cache.Lookup(b.key, b.set).has_value());
  EXPECT_TRUE(cache.Lookup(c.key, c.set).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(SweepCacheTest, ByteBudgetBoundsResidency) {
  const Entry a = MakeEntry(20);
  const HeatmapResponse response = MakeResponse(a);
  const size_t grid_bytes = SerializedSizeBytes(response.grid);
  SweepCacheOptions options;
  // Two entries: grids, circle payloads and the fixed 72-byte per-entry
  // key overhead.
  options.max_bytes = 2 * grid_bytes + 2 * 72 +
                      2 * a.set->circles().size() * sizeof(NnCircle);
  SweepCache cache(options);
  for (uint64_t seed = 20; seed < 25; ++seed) {
    const Entry e = MakeEntry(seed);
    cache.Insert(e.key, e.set, MakeResponse(e));
  }
  EXPECT_LE(cache.stats().bytes, options.max_bytes);
  EXPECT_LE(cache.stats().entries, 2u);
  EXPECT_GE(cache.stats().evictions, 3u);
}

TEST(SweepCacheTest, OversizedEntryIsNotAdmitted) {
  SweepCacheOptions options;
  options.max_bytes = 16;  // smaller than any response
  SweepCache cache(options);
  const Entry a = MakeEntry(30);
  cache.Insert(a.key, a.set, MakeResponse(a));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.Lookup(a.key, a.set).has_value());
}

TEST(SweepCacheTest, ClearDropsEntriesButKeepsCounters) {
  SweepCache cache(SweepCacheOptions{});
  const Entry a = MakeEntry(40);
  cache.Insert(a.key, a.set, MakeResponse(a));
  ASSERT_TRUE(cache.Lookup(a.key, a.set).has_value());
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_FALSE(cache.Lookup(a.key, a.set).has_value());
}

// --- Engine integration ---------------------------------------------------

TEST(EngineCacheTest, RepeatSubmissionsHitAndMatchBitIdentically) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  options.cache_bytes = 32 << 20;
  HeatmapEngine engine(measure, options);

  const Entry e = MakeEntry(50, 60, Metric::kL2);
  const HeatmapRequestV2 request = Register(engine, e);
  const HeatmapResponse cold = engine.Submit(request).get();
  EXPECT_FALSE(cold.from_cache);
  const HeatmapResponse warm = engine.Submit(request).get();
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.grid.values(), cold.grid.values());
  EXPECT_EQ(warm.l2_stats.num_labelings, cold.l2_stats.num_labelings);
  EXPECT_EQ(engine.cache_stats().hits, 1u);

  // The cached response must also equal what a cache-less engine computes.
  EXPECT_EQ(MakeResponse(e).grid.values(), warm.grid.values());
}

TEST(EngineCacheTest, RunBatchServesDuplicatesFromCache) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 2;
  options.cache_bytes = 32 << 20;
  HeatmapEngine engine(measure, options);

  std::vector<HeatmapRequestV2> batch;
  for (int i = 0; i < 12; ++i) {
    batch.push_back(Register(engine, MakeEntry(60 + i % 3)));
  }
  const std::vector<HeatmapResponse> responses = engine.RunBatch(batch);
  ASSERT_EQ(responses.size(), 12u);
  // 3 distinct requests: at least 9 of 12 must have been served by the
  // cache (racing workers may compute a duplicate concurrently before the
  // first insert lands, so exact counts are scheduling-dependent).
  const SweepCacheStats stats = engine.cache_stats();
  EXPECT_GE(stats.hits + stats.misses, 12u);
  EXPECT_GE(stats.hits, 1u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(responses[i].grid.values(), responses[i % 3].grid.values());
  }
}

TEST(EngineCacheTest, DisabledCacheReportsZeroStats) {
  SizeInfluence measure;
  HeatmapEngine engine(measure, SingleWorker());
  const HeatmapResponse response =
      engine.Submit(Register(engine, MakeEntry(70))).get();
  EXPECT_FALSE(response.from_cache);
  EXPECT_EQ(response.cache.hits + response.cache.misses, 0u);
  EXPECT_EQ(engine.cache_stats().entries, 0u);
}

TEST(EngineCacheTest, ConcurrentSubmittersShareTheCacheSafely) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 4;
  options.cache_bytes = 32 << 20;
  HeatmapEngine engine(measure, options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 20;
  std::vector<std::thread> submitters;
  std::vector<std::vector<HeatmapResponse>> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        results[t].push_back(
            engine.Submit(Register(engine, MakeEntry(100 + (t + i) % 5, 30)))
                .get());
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  // Every response for the same seed must be bit-identical regardless of
  // which thread computed or cached it.
  for (int t = 1; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const int seed = (t + i) % 5;
      for (int u = 0; u < kPerThread; ++u) {
        if ((0 + u) % 5 == seed) {
          EXPECT_EQ(results[t][i].grid.values(), results[0][u].grid.values());
        }
      }
    }
  }
}

}  // namespace
}  // namespace rnnhm
