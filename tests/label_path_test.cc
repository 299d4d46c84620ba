// Count-only labeling: a set-size measure reporting to a sink that does not
// read sets runs the sweeps on |RNN set| alone (CountLabelState). These
// tests pin that the choice is made exactly when allowed and that it changes
// nothing observable: rasters are bit-identical and every work counter is
// equal to the set-copying path's.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "core/base_set.h"
#include "core/brute_force.h"
#include "core/crest.h"
#include "core/crest_l2.h"
#include "core/crest_parallel.h"
#include "core/label_sink.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"
#include "heatmap/raster_sink.h"

namespace rnnhm {
namespace {

std::vector<NnCircle> RandomCircles(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<NnCircle> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                           rng.Uniform(0.02, 0.2), i});
  }
  return out;
}

// Counts labelings and records what the sweep handed over.
class ProbeSink : public RegionLabelSink {
 public:
  explicit ProbeSink(bool reads_sets) : reads_sets_(reads_sets) {}

  void OnRegionLabel(const Rect&, std::span<const int32_t> rnn,
                     double influence) override {
    ++labels;
    if (!rnn.empty()) ++nonempty_sets;
    if (static_cast<double>(rnn.size()) != influence) ++size_mismatches;
  }
  bool reads_sets() const override { return reads_sets_; }

  size_t labels = 0;
  size_t nonempty_sets = 0;
  size_t size_mismatches = 0;

 private:
  bool reads_sets_;
};

// A set-size measure that counts its Evaluate calls.
class CountingSizeMeasure : public InfluenceMeasure {
 public:
  double Evaluate(std::span<const int32_t> clients) const override {
    ++evaluations;
    return static_cast<double>(clients.size());
  }
  bool IsSetSize() const override { return true; }

  mutable size_t evaluations = 0;
};

void ExpectSameStats(const CrestStats& a, const CrestStats& b) {
  EXPECT_EQ(a.num_circles, b.num_circles);
  EXPECT_EQ(a.num_skipped_circles, b.num_skipped_circles);
  EXPECT_EQ(a.num_events, b.num_events);
  EXPECT_EQ(a.num_labelings, b.num_labelings);
  EXPECT_EQ(a.num_merged_intervals, b.num_merged_intervals);
  EXPECT_EQ(a.num_elements_walked, b.num_elements_walked);
}

void ExpectSameStats(const CrestL2Stats& a, const CrestL2Stats& b) {
  EXPECT_EQ(a.num_circles, b.num_circles);
  EXPECT_EQ(a.num_skipped_circles, b.num_skipped_circles);
  EXPECT_EQ(a.num_events, b.num_events);
  EXPECT_EQ(a.num_cross_events, b.num_cross_events);
  EXPECT_EQ(a.num_labelings, b.num_labelings);
}

bool SameBits(const HeatmapGrid& a, const HeatmapGrid& b) {
  return a.values().size() == b.values().size() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * a.values().size()) == 0;
}

// One row of the equivalence table. The L2 sweep has one algorithm and one
// status representation, so its rows vary only the slab count.
struct PathRow {
  Metric metric;
  bool changed_intervals;  // CREST (true) or CREST-A (false); L-inf only
  StatusBackend backend;   // L-inf only
  int slabs;
};

std::string Describe(const PathRow& r) {
  if (r.metric == Metric::kL2) return "L2_slabs" + std::to_string(r.slabs);
  return std::string("LInf_") + (r.changed_intervals ? "Crest" : "CrestA") +
         (r.backend == StatusBackend::kSkipList ? "_SkipList" : "_Multimap") +
         "_slabs" + std::to_string(r.slabs);
}

void PrintTo(const PathRow& r, std::ostream* os) { *os << Describe(r); }

std::string RowName(const ::testing::TestParamInfo<PathRow>& info) {
  return Describe(info.param);
}

std::vector<PathRow> AllRows() {
  std::vector<PathRow> rows;
  for (const int slabs : {1, 2, 4, 8}) {
    for (const bool ci : {true, false}) {
      for (const StatusBackend b :
           {StatusBackend::kSkipList, StatusBackend::kStdMultimap}) {
        rows.push_back(PathRow{Metric::kLInf, ci, b, slabs});
      }
    }
    rows.push_back(
        PathRow{Metric::kL2, true, StatusBackend::kSkipList, slabs});
  }
  return rows;
}

class LabelPathTable : public ::testing::TestWithParam<PathRow> {};

// Runs the row's sweep over `circles` with one copy of `prototype` per slab
// and a raster sink on `grid`; returns the per-slab sinks for inspection.
template <typename Sink, typename Stats>
std::vector<Sink> Sweep(const PathRow& row,
                        const std::vector<NnCircle>& circles,
                        const Sink& prototype, HeatmapGrid* grid,
                        Stats* stats) {
  SizeInfluence measure;
  std::vector<Sink> sinks(row.slabs, prototype);
  std::vector<RegionLabelSink*> ptrs;
  for (Sink& s : sinks) ptrs.push_back(&s);
  if constexpr (std::is_same_v<Stats, CrestStats>) {
    RasterStripSink raster(grid);
    CrestOptions options;
    options.use_changed_intervals = row.changed_intervals;
    options.status_backend = row.backend;
    options.strip_sink = &raster;
    *stats = RunCrestParallel(circles, measure, ptrs, options);
  } else {
    RasterArcSink raster(grid);
    CrestL2Options options;
    options.arc_sink = &raster;
    *stats = RunCrestL2Parallel(circles, measure, ptrs, options);
  }
  return sinks;
}

template <typename Stats>
void CheckRow(const PathRow& row, const std::vector<NnCircle>& circles) {
  const Rect domain{{-0.2, -0.2}, {1.2, 1.2}};
  HeatmapGrid count_grid(72, 72, domain);
  HeatmapGrid set_grid(72, 72, domain);
  Stats count_stats, set_stats;
  const std::vector<CountingSink> counted =
      Sweep(row, circles, CountingSink(), &count_grid, &count_stats);
  const std::vector<ProbeSink> probed =
      Sweep(row, circles, ProbeSink(/*reads_sets=*/true), &set_grid,
            &set_stats);

  EXPECT_TRUE(SameBits(count_grid, set_grid));
  ExpectSameStats(count_stats, set_stats);
  size_t count_labels = 0, set_labels = 0, nonempty = 0, mismatches = 0;
  for (const CountingSink& s : counted) count_labels += s.count();
  for (const ProbeSink& s : probed) {
    set_labels += s.labels;
    nonempty += s.nonempty_sets;
    mismatches += s.size_mismatches;
  }
  EXPECT_EQ(count_labels, set_labels);
  EXPECT_EQ(set_labels, set_stats.num_labelings);
  EXPECT_GT(nonempty, 0u);  // the set leg really carried sets
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(count_grid.MaxValue(), 0.0);
}

TEST_P(LabelPathTable, CountAndSetPathsAgreeBitForBit) {
  const PathRow& row = GetParam();
  if (row.metric == Metric::kL2) {
    CheckRow<CrestL2Stats>(row, RandomCircles(45, 901));
  } else {
    CheckRow<CrestStats>(row, RandomCircles(90, 902));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPaths, LabelPathTable,
                         ::testing::ValuesIn(AllRows()), RowName);

// Runs both sweeps with a counting set-size measure and a ProbeSink, and
// checks from what they saw which label path ran.
void ExpectPath(bool reads_sets, uint64_t seed) {
  const auto circles = RandomCircles(100, seed);
  for (const Metric metric : {Metric::kLInf, Metric::kL2}) {
    CountingSizeMeasure measure;
    ProbeSink sink(reads_sets);
    const size_t labelings =
        metric == Metric::kL2
            ? RunCrestL2(circles, measure, &sink).num_labelings
            : RunCrest(circles, measure, &sink).num_labelings;
    EXPECT_GT(labelings, 0u);
    EXPECT_EQ(sink.labels, labelings);
    if (reads_sets) {
      EXPECT_EQ(measure.evaluations, labelings);
      EXPECT_GT(sink.nonempty_sets, 0u);
      EXPECT_EQ(sink.size_mismatches, 0u);
    } else {
      EXPECT_EQ(measure.evaluations, 0u);
      EXPECT_EQ(sink.nonempty_sets, 0u);
    }
  }
}

TEST(LabelPathTest, SetBlindSinkRunsOnCountsWithoutEvaluate) {
  ExpectPath(/*reads_sets=*/false, 903);
}

TEST(LabelPathTest, SetReadingSinkGetsSetsAndOneEvaluatePerLabeling) {
  ExpectPath(/*reads_sets=*/true, 904);
}

TEST(LabelPathTest, NonSizeMeasureKeepsSetsEvenForCountingSink) {
  // WeightedInfluence with unit weights equals |S| numerically, but it does
  // not declare IsSetSize, so the sweep must still hand it the sets.
  const auto circles = RandomCircles(80, 906);
  WeightedInfluence measure(std::vector<double>(circles.size(), 1.0));
  ProbeSink sink(/*reads_sets=*/false);
  RunCrest(circles, measure, &sink);
  EXPECT_GT(sink.nonempty_sets, 0u);
}

TEST(LabelPathTest, TeeReadsSetsIffAnyChildDoes) {
  CountingSink c1, c2;
  MaxInfluenceSink max;
  EXPECT_FALSE(TeeSink({&c1, &c2}).reads_sets());
  EXPECT_TRUE(TeeSink({&c1, &max}).reads_sets());
  EXPECT_TRUE(max.reads_sets());
  EXPECT_FALSE(c1.reads_sets());

  // A tee with one set-reading child takes the set path for all children.
  const auto circles = RandomCircles(100, 907);
  CountingSizeMeasure measure;
  ProbeSink probe(/*reads_sets=*/true);
  TeeSink tee({&c1, &probe});
  const CrestStats stats = RunCrest(circles, measure, &tee);
  EXPECT_EQ(measure.evaluations, stats.num_labelings);
  EXPECT_EQ(c1.count(), stats.num_labelings);
  EXPECT_GT(probe.nonempty_sets, 0u);
  EXPECT_EQ(probe.size_mismatches, 0u);
}

TEST(LabelPathTest, MaxInfluenceWitnessIsTheRegionsRnnSet) {
  // MaxInfluenceSink reads sets, so it keeps getting the full witness set:
  // the RNN set of the witness region's center, by brute force.
  const auto circles = RandomCircles(120, 908);
  SizeInfluence measure;
  MaxInfluenceSink sink;
  RunCrest(circles, measure, &sink);
  ASSERT_TRUE(sink.HasResult());
  EXPECT_EQ(static_cast<double>(sink.witness_rnn().size()),
            sink.max_influence());
  EXPECT_EQ(sink.witness_rnn(), BruteForceRnnSet(sink.witness().Center(),
                                                 circles, Metric::kLInf));
}

TEST(CountLabelStateTest, TracksSizeAndRecordsLikeSetLabelState) {
  SetLabelState sets(/*universe=*/16, /*num_keys=*/4);
  CountLabelState counts(/*universe=*/16, /*num_keys=*/4);
  SizeInfluence measure;
  const std::vector<int32_t> a{3, 7, 9};
  const std::vector<int32_t> b{7};
  auto same = [&] {
    EXPECT_EQ(sets.Label(measure).influence,
              counts.Label(measure).influence);
    EXPECT_TRUE(counts.Label(measure).rnn.empty());
  };
  sets.Add(a);
  counts.Add(a);
  same();
  sets.Save(0);
  counts.Save(0);
  sets.Remove(b);
  counts.Remove(b);
  same();
  sets.Save(1);
  counts.Save(1);
  EXPECT_EQ(sets.RecordValue(0, measure), counts.RecordValue(0, measure));
  EXPECT_EQ(counts.RecordValue(0, measure), 3.0);
  EXPECT_EQ(counts.RecordValue(1, measure), 2.0);
  sets.Clear();
  counts.Clear();
  same();
  sets.Restore(0);
  counts.Restore(0);
  same();
  EXPECT_EQ(counts.Label(measure).influence, 3.0);
}

}  // namespace
}  // namespace rnnhm
