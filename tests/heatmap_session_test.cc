#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/brute_force.h"
#include "heatmap/influence.h"
#include "nn/nn_circle_builder.h"
#include "query/heatmap_session.h"

namespace rnnhm {
namespace {

// Reference: circles rebuilt from scratch for the session's current state.
std::vector<NnCircle> Reference(const HeatmapSession& session) {
  return BuildNnCircles(session.clients(), session.facilities(),
                        session.metric());
}

void ExpectCirclesMatchReference(const HeatmapSession& session) {
  const auto want = Reference(session);
  const auto& got = session.circles();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].center, want[i].center) << "client " << i;
    ASSERT_DOUBLE_EQ(got[i].radius, want[i].radius) << "client " << i;
  }
}

class SessionProperty : public ::testing::TestWithParam<Metric> {};

TEST_P(SessionProperty, InitialCirclesMatchBatchConstruction) {
  Rng rng(1000);
  std::vector<Point> clients, facilities;
  for (int i = 0; i < 200; ++i) {
    clients.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  for (int i = 0; i < 20; ++i) {
    facilities.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  HeatmapSession session(clients, facilities, GetParam());
  ExpectCirclesMatchReference(session);
}

TEST_P(SessionProperty, RandomEditScriptStaysConsistent) {
  const Metric metric = GetParam();
  Rng rng(1001 + static_cast<int>(metric));
  std::vector<Point> clients, facilities;
  for (int i = 0; i < 100; ++i) {
    clients.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  for (int i = 0; i < 10; ++i) {
    facilities.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  HeatmapSession session(clients, facilities, metric);
  for (int step = 0; step < 120; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.45) {
      const int32_t id =
          static_cast<int32_t>(rng.NextBounded(session.num_clients()));
      session.MoveClient(id, {rng.Uniform(0, 1), rng.Uniform(0, 1)});
    } else if (dice < 0.65) {
      session.AddClient({rng.Uniform(0, 1), rng.Uniform(0, 1)});
    } else if (dice < 0.85) {
      session.AddFacility({rng.Uniform(0, 1), rng.Uniform(0, 1)});
    } else if (session.num_facilities() >= 2) {
      session.RemoveFacility(
          static_cast<int32_t>(rng.NextBounded(session.num_facilities())));
    }
    if (step % 10 == 0) ExpectCirclesMatchReference(session);
  }
  ExpectCirclesMatchReference(session);
}

INSTANTIATE_TEST_SUITE_P(Metrics, SessionProperty,
                         ::testing::Values(Metric::kLInf, Metric::kL1,
                                           Metric::kL2),
                         [](const ::testing::TestParamInfo<Metric>& param_info) {
                           return MetricName(param_info.param);
                         });

TEST(HeatmapSessionTest, RebuildSweepsTheCurrentState) {
  Rng rng(1010);
  std::vector<Point> clients, facilities;
  for (int i = 0; i < 120; ++i) {
    clients.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  for (int i = 0; i < 12; ++i) {
    facilities.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  HeatmapSession session(clients, facilities, Metric::kL1);
  SizeInfluence measure;
  DistinctSetSink before;
  session.Rebuild(measure, &before);
  bool zero_before = false;
  for (const auto& [set, v] : before.sets()) {
    zero_before |= std::binary_search(set.begin(), set.end(), 0);
  }
  EXPECT_TRUE(zero_before);
  // A facility placed exactly on client 0 makes its NN-circle degenerate:
  // the client can no longer be won by any new location, so it must vanish
  // from every region's RNN set.
  session.AddFacility(clients[0]);
  DistinctSetSink after;
  session.Rebuild(measure, &after);
  for (const auto& [set, v] : after.sets()) {
    EXPECT_FALSE(std::binary_search(set.begin(), set.end(), 0));
  }
  for (int q = 0; q < 500; ++q) {
    const Point p{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const auto rnn = BruteForceRnnSet(p, session.circles(), Metric::kL1);
    if (!rnn.empty()) {
      ASSERT_TRUE(after.sets().count(rnn));
    }
  }
}

TEST(HeatmapSessionTest, MoveClientShrinksAndGrowsItsCircle) {
  HeatmapSession session({{0.0, 0.0}}, {{1.0, 0.0}, {4.0, 0.0}},
                         Metric::kL2);
  EXPECT_DOUBLE_EQ(session.circles()[0].radius, 1.0);
  session.MoveClient(0, {3.5, 0.0});
  EXPECT_DOUBLE_EQ(session.circles()[0].radius, 0.5);  // now nearest to f1
  session.MoveClient(0, {-2.0, 0.0});
  EXPECT_DOUBLE_EQ(session.circles()[0].radius, 3.0);
}

TEST(HeatmapSessionTest, RebuildParallelShardUnionMatchesRebuild) {
  Rng rng(1600);
  std::vector<Point> clients, facilities;
  for (int i = 0; i < 150; ++i) {
    clients.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  for (int i = 0; i < 12; ++i) {
    facilities.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  SizeInfluence measure;
  for (const Metric metric : {Metric::kLInf, Metric::kL1, Metric::kL2}) {
    HeatmapSession session(clients, facilities, metric);
    DistinctSetSink sequential;
    session.Rebuild(measure, &sequential);

    std::vector<DistinctSetSink> shard_sinks(4);
    std::vector<RegionLabelSink*> sink_ptrs;
    for (auto& s : shard_sinks) sink_ptrs.push_back(&s);
    const MetricSweepStats stats =
        session.RebuildParallel(measure, sink_ptrs);
    EXPECT_GT(stats.num_labelings(), 0u);

    std::map<std::vector<int32_t>, double> merged;
    for (const auto& s : shard_sinks) {
      for (const auto& [set, influence] : s.sets()) merged[set] = influence;
    }
    EXPECT_EQ(merged, sequential.sets()) << MetricName(metric);
  }
}

TEST(HeatmapSessionTest, RemoveFacilityRequeriesItsClients) {
  HeatmapSession session({{0.0, 0.0}, {10.0, 0.0}},
                         {{1.0, 0.0}, {9.0, 0.0}}, Metric::kL2);
  EXPECT_DOUBLE_EQ(session.circles()[0].radius, 1.0);
  EXPECT_DOUBLE_EQ(session.circles()[1].radius, 1.0);
  session.RemoveFacility(0);
  EXPECT_DOUBLE_EQ(session.circles()[0].radius, 9.0);  // falls back to f@9
  EXPECT_DOUBLE_EQ(session.circles()[1].radius, 1.0);
}

// --- Publishing into the serving API v2 -----------------------------------

std::vector<Point> RandomPoints(int n, Rng& rng) {
  std::vector<Point> out;
  for (int i = 0; i < n; ++i) {
    out.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  return out;
}

TEST(HeatmapSessionPublishTest, IdenticalSessionsShareOneHandle) {
  Rng rng(5000);
  const auto clients = RandomPoints(80, rng);
  const auto facilities = RandomPoints(8, rng);
  HeatmapSession a(clients, facilities, Metric::kL2);
  HeatmapSession b(clients, facilities, Metric::kL2);
  CircleSetRegistry registry;
  const CircleSetHandle ha = a.PublishCircles(registry);
  const CircleSetHandle hb = b.PublishCircles(registry);
  EXPECT_EQ(ha, hb);  // same workload, same content, one entry
  EXPECT_EQ(registry.size(), 1u);
}

TEST(HeatmapSessionPublishTest, TickingSessionHoldsOneRegistration) {
  Rng rng(5001);
  HeatmapSession session(RandomPoints(60, rng), RandomPoints(6, rng),
                         Metric::kLInf);
  CircleSetRegistry registry;
  CircleSetHandle last = session.PublishCircles(registry);
  for (int tick = 0; tick < 10; ++tick) {
    session.MoveClient(
        static_cast<int32_t>(rng.NextBounded(session.num_clients())),
        {rng.Uniform(0, 1), rng.Uniform(0, 1)});
    const CircleSetHandle next = session.PublishCircles(registry);
    EXPECT_NE(next, last);  // the edit changed the content
    // The previous tick's registration was released: only the newest
    // publication stays resident.
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_EQ(registry.Resolve(last), nullptr);
    last = next;
  }
  // Publishing an unchanged state keeps exactly one registration too.
  EXPECT_EQ(session.PublishCircles(registry), last);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(HeatmapSessionPublishTest, RenderThroughEngineMatchesFromScratch) {
  Rng rng(5002);
  const auto clients = RandomPoints(70, rng);
  const auto facilities = RandomPoints(7, rng);
  SizeInfluence measure;
  const Rect domain{{0, 0}, {1, 1}};
  for (const Metric metric : {Metric::kLInf, Metric::kL2}) {
    HeatmapSession session(clients, facilities, metric);
    HeatmapEngineOptions options;
    options.num_threads = 1;
    HeatmapEngine engine(measure, options);
    std::optional<HeatmapResponse> response;
    ASSERT_TRUE(
        session.RenderThroughEngine(engine, domain, 40, 40, &response).ok());
    const HeatmapGrid reference = BuildHeatmapForMetric(
        metric, session.circles(), measure, domain, 40, 40);
    EXPECT_EQ(response->grid.values(), reference.values());
  }
}

TEST(HeatmapSessionPublishTest, IdenticalTicksAcrossSessionsHitTheCache) {
  Rng rng(5003);
  const auto clients = RandomPoints(50, rng);
  const auto facilities = RandomPoints(5, rng);
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  options.cache_bytes = 16 << 20;
  HeatmapEngine engine(measure, options);
  const Rect domain{{0, 0}, {1, 1}};

  HeatmapSession a(clients, facilities, Metric::kL2);
  HeatmapSession b(clients, facilities, Metric::kL2);
  std::optional<HeatmapResponse> first;
  ASSERT_TRUE(a.RenderThroughEngine(engine, domain, 32, 32, &first).ok());
  EXPECT_FALSE(first->from_cache);
  // Session b is at the identical state: its tick dedupes to the same
  // handle and is served from the shared engine cache, bit-identically.
  std::optional<HeatmapResponse> second;
  ASSERT_TRUE(b.RenderThroughEngine(engine, domain, 32, 32, &second).ok());
  EXPECT_TRUE(second->from_cache);
  EXPECT_EQ(second->grid.values(), first->grid.values());
  // An edit breaks content equality: fresh sweep, then its revert hits.
  b.MoveClient(0, {0.5, 0.5});
  std::optional<HeatmapResponse> edited;
  ASSERT_TRUE(b.RenderThroughEngine(engine, domain, 32, 32, &edited).ok());
  EXPECT_FALSE(edited->from_cache);
}

TEST(HeatmapSessionPublishTest, ReleasePublicationIsIdempotent) {
  Rng rng(5004);
  HeatmapSession session(RandomPoints(30, rng), RandomPoints(4, rng),
                         Metric::kLInf);
  CircleSetRegistry registry;
  const CircleSetHandle handle = session.PublishCircles(registry);
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_TRUE(session.ReleasePublication());
  EXPECT_EQ(registry.size(), 0u);
  // Double release is a no-op, never an underflow.
  EXPECT_FALSE(session.ReleasePublication());
  EXPECT_FALSE(session.ReleasePublication());
  // Publishing again still works after a release.
  const CircleSetHandle again = session.PublishCircles(registry);
  EXPECT_TRUE(again.valid());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_TRUE(session.ReleasePublication());
}

TEST(HeatmapSessionPublishTest, RePublishAfterEvictionCannotUnderflow) {
  // The registry evicts the session's publication behind its back; the
  // session's next Release must not underflow a recycled entry, and a
  // re-publish must register cleanly.
  Rng rng(5005);
  HeatmapSession session(RandomPoints(20, rng), RandomPoints(3, rng),
                         Metric::kLInf);
  CircleSetRegistryOptions options;
  options.max_unpinned_entries = 1;
  CircleSetRegistry registry(options);
  const CircleSetHandle published = session.PublishCircles(registry);
  // Simulate an operator-side release + budget eviction of the entry: a
  // filler set released behind it overflows the 1-entry retention budget.
  ASSERT_TRUE(registry.Release(published));
  const CircleSetHandle filler = registry.Register(
      std::vector<NnCircle>{NnCircle{{0.5, 0.5}, 0.25, 0}}, Metric::kLInf);
  ASSERT_TRUE(registry.Release(filler));
  EXPECT_EQ(registry.Resolve(published), nullptr);
  // The session still thinks it holds `published`: releasing is a no-op.
  EXPECT_FALSE(session.ReleasePublication());
  // And publishing the same content again re-registers from scratch.
  const CircleSetHandle fresh = session.PublishCircles(registry);
  EXPECT_TRUE(fresh.valid());
  EXPECT_NE(registry.Resolve(fresh), nullptr);
}

TEST(HeatmapSessionJournalTest, JournalReplayReproducesCirclesExactly) {
  Rng rng(5006);
  HeatmapSession session(RandomPoints(40, rng), RandomPoints(5, rng),
                         Metric::kL2);
  std::vector<NnCircle> shadow = session.circles();
  session.EnableEditJournal();
  for (int tick = 0; tick < 25; ++tick) {
    const double dice = rng.NextDouble();
    if (dice < 0.4) {
      session.MoveClient(
          static_cast<int32_t>(rng.NextBounded(session.num_clients())),
          {rng.Uniform(0, 1), rng.Uniform(0, 1)});
    } else if (dice < 0.6) {
      session.AddClient({rng.Uniform(0, 1), rng.Uniform(0, 1)});
    } else if (dice < 0.85 || session.num_facilities() < 2) {
      session.AddFacility({rng.Uniform(0, 1), rng.Uniform(0, 1)});
    } else {
      session.RemoveFacility(
          static_cast<int32_t>(rng.NextBounded(session.num_facilities())));
    }
    // Applying the tick's journal to the previous circle vector must land
    // bit-exactly on the session's current circles — same content hash.
    for (const CircleSetEdit& edit : session.TakeCircleEdits()) {
      switch (edit.kind) {
        case CircleSetEdit::Kind::kReplace:
          ASSERT_LT(edit.index, shadow.size());
          shadow[edit.index] = edit.circle;
          break;
        case CircleSetEdit::Kind::kAppend:
          shadow.push_back(edit.circle);
          break;
        case CircleSetEdit::Kind::kSwapRemove:
          ASSERT_LT(edit.index, shadow.size());
          shadow[edit.index] = shadow.back();
          shadow.pop_back();
          break;
      }
    }
    ASSERT_EQ(HashCircleSet(shadow, session.metric()),
              HashCircleSet(session.circles(), session.metric()))
        << "tick " << tick;
  }
  EXPECT_TRUE(session.pending_edits().empty());
}

TEST(HeatmapSessionJournalTest, DisabledJournalRecordsNothing) {
  Rng rng(5007);
  HeatmapSession session(RandomPoints(10, rng), RandomPoints(2, rng),
                         Metric::kLInf);
  session.MoveClient(0, {0.9, 0.9});
  EXPECT_TRUE(session.pending_edits().empty());
  session.EnableEditJournal();
  session.MoveClient(1, {0.1, 0.1});
  EXPECT_FALSE(session.pending_edits().empty());
  // Re-enabling clears the stale journal; disabling stops recording.
  session.EnableEditJournal();
  EXPECT_TRUE(session.pending_edits().empty());
  session.EnableEditJournal(false);
  session.MoveClient(2, {0.2, 0.2});
  EXPECT_TRUE(session.pending_edits().empty());
}

}  // namespace
}  // namespace rnnhm
