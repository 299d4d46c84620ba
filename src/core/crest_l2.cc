#include "core/crest_l2.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>
#include <utility>

#include "common/check.h"
#include "core/base_set.h"
#include "geom/circle_geometry.h"
#include "index/rtree.h"

namespace rnnhm {

namespace {

// One swept disk. Exact duplicates of (center, radius) are merged so the
// arrangement stays in general position; all merged clients share the disk.
struct SweepDisk {
  Point center;
  double radius;
  std::vector<int32_t> clients;
};

enum class EventType : uint8_t {
  kRemove = 0,  // applied before insertions at the same x
  kInsert = 1,
  kCenter = 2,  // monotonicity breakpoint; splits the strip, no re-sort
  kCross = 3,   // order change; forces a re-sort checkpoint
};

struct Event {
  double x;
  EventType type;
  int32_t disk = -1;
  int32_t disk2 = -1;  // second disk for crossing events
};

// An arc in the line status: lower or upper semicircle of a disk.
struct Arc {
  int32_t disk;
  bool is_upper;
};

// Arcs are ordered per strip by the paper's (y_s, y_l, y_m) keys —
// smallest / largest / midpoint ordinate of the arc over the strip — with
// the midpoint promoted to the primary key. Arcs never cross strictly
// inside a strip (crossings and centers are events), so the midpoint
// ordinate ranks them bottom-to-top; crucially it is also *numerically*
// robust: at a crossing event the endpoint ordinates of the two arcs are
// equal up to rounding noise (which would let noise decide the order),
// while the midpoint ordinates have separated by half a strip.
struct ArcKey {
  double ym, ys, yl;

  friend bool operator<(const ArcKey& a, const ArcKey& b) {
    if (a.ym != b.ym) return a.ym < b.ym;
    if (a.ys != b.ys) return a.ys < b.ys;
    return a.yl < b.yl;
  }
};

// The arc sweep. `State` is SetLabelState or CountLabelState
// (core/base_set.h).
template <typename State>
class SweepL2 {
 public:
  SweepL2(const std::vector<NnCircle>& circles,
          const InfluenceMeasure& measure, RegionLabelSink* sink,
          const CrestL2Options& options)
      : measure_(measure), sink_(sink), options_(options) {
    RNNHM_CHECK_MSG(options.clip_lo < options.clip_hi,
                    "CREST-L2 clip range must be non-empty");
    std::map<std::pair<std::pair<double, double>, double>, int32_t> dedup;
    for (const NnCircle& c : circles) {
      if (c.radius <= 0.0) {
        ++stats_.num_skipped_circles;
        continue;
      }
      const auto key =
          std::make_pair(std::make_pair(c.center.x, c.center.y), c.radius);
      const auto [it, inserted] =
          dedup.emplace(key, static_cast<int32_t>(disks_.size()));
      if (inserted) {
        disks_.push_back(SweepDisk{c.center, c.radius, {c.client}});
      } else {
        disks_[it->second].clients.push_back(c.client);
      }
      universe_ = std::max(universe_, c.client + 1);
    }
    stats_.num_circles = disks_.size();
    const size_t n = disks_.size();
    live_index_.assign(n, -1);
    succ_of_.assign(2 * n, kNoArc);
    involved_.assign(2 * n, 0);
    region_influence_.assign(2 * n, 0.0);
  }

  CrestL2Stats Run() {
    BuildEvents();
    // Event x-coordinates within a relative epsilon of each other are
    // processed as one simultaneous group. Real workloads concentrate many
    // pairwise crossings at a geometrically common point (the shared
    // facility every NN-circle passes through); their computed x's spread
    // over a few ulps, and processing them one-by-one would order arcs
    // inside strips far narrower than the rounding noise.
    double span = options_.event_group_span;
    if (span < 0.0) {
      span = 0.0;
      for (const SweepDisk& d : disks_) {
        span = std::max(span, std::fabs(d.center.x) + d.radius);
      }
    }
    const double x_eps = span * 1e-12;
    State base(universe_, 2 * disks_.size());
    size_t i = 0;
    while (i < events_.size()) {
      const double x = events_[i].x;
      ++stats_.num_events;
      // Apply every structural change in this x-group. Crossings and
      // centers carry no structural change; crossings force the re-sort
      // checkpoint below (order can only change where arcs cross).
      bool needs_checkpoint = false;
      for (const int32_t key : involved_keys_) involved_[key] = 0;
      involved_keys_.clear();
      auto mark_involved = [this](int32_t disk) {
        for (const int32_t key : {2 * disk, 2 * disk + 1}) {
          if (!involved_[key]) {
            involved_[key] = 1;
            involved_keys_.push_back(key);
          }
        }
      };
      for (; i < events_.size() && events_[i].x <= x + x_eps; ++i) {
        const Event& ev = events_[i];
        switch (ev.type) {
          case EventType::kInsert:
            live_index_[ev.disk] = static_cast<int32_t>(live_disks_.size());
            live_disks_.push_back(ev.disk);
            mark_involved(ev.disk);
            needs_checkpoint = true;
            break;
          case EventType::kRemove: {
            // Swap-remove from the live list.
            const int32_t at = live_index_[ev.disk];
            const int32_t last = live_disks_.back();
            live_disks_[at] = last;
            live_index_[last] = at;
            live_disks_.pop_back();
            live_index_[ev.disk] = -1;
            base.Drop(2 * ev.disk);
            base.Drop(2 * ev.disk + 1);
            needs_checkpoint = true;
            break;
          }
          case EventType::kCross:
            ++stats_.num_cross_events;
            // Mark all four arcs: a crossing can move arcs across a region
            // without breaking its bounding adjacency (all circles of
            // clients sharing a facility cross at that facility's point),
            // so every pair adjacent to a crossing arc must be relabeled
            // even if the adjacency itself is preserved.
            mark_involved(ev.disk);
            mark_involved(ev.disk2);
            needs_checkpoint = true;
            break;
          case EventType::kCenter:
            // Arcs change monotonicity but never order; keys are
            // recomputed per checkpoint anyway, so nothing to do.
            break;
        }
      }
      const double next_x = i < events_.size() ? events_[i].x : x;
      if (needs_checkpoint) {
        Checkpoint(x, next_x, base);
      }
      // Rasterize the strip up to the next event. Checkpoints skip groups
      // with no structural change (center events preserve order and region
      // contents), but every strip the sink samples must still be painted;
      // the cached per-pair influence makes that free of influence
      // evaluations.
      if (options_.arc_sink != nullptr && x < next_x &&
          options_.arc_sink->Samples(x, next_x)) {
        EmitStrip(x, next_x);
      }
    }
    return stats_;
  }

 private:
  static constexpr int32_t kNoArc = -1;

  static int32_t KeyOf(const Arc& a) {
    return 2 * a.disk + (a.is_upper ? 1 : 0);
  }

  double ArcY(const Arc& a, double x) const {
    const SweepDisk& d = disks_[a.disk];
    return ArcYAt(d.center, d.radius, a.is_upper, x);
  }

  void BuildEvents() {
    // Disks are clipped to [clip_lo, clip_hi): an arc entering the slab
    // inserts at the boundary exactly like a sweep starting mid-way, so the
    // first checkpoint rebuilds the full line status there. Crossings at
    // the low boundary are redundant (every arc live there is freshly
    // inserted and involved), so only events strictly inside matter.
    const double lo = options_.clip_lo;
    const double hi = options_.clip_hi;
    for (int32_t i = 0; i < static_cast<int32_t>(disks_.size()); ++i) {
      const SweepDisk& d = disks_[i];
      const double in_x = std::max(d.center.x - d.radius, lo);
      const double out_x = std::min(d.center.x + d.radius, hi);
      if (!(in_x < out_x)) continue;  // disk outside the slab
      events_.push_back(Event{in_x, EventType::kInsert, i});
      if (d.center.x > in_x && d.center.x < out_x) {
        events_.push_back(Event{d.center.x, EventType::kCenter, i});
      }
      events_.push_back(Event{out_x, EventType::kRemove, i});
    }
    // Pairwise boundary intersections via an R-tree over disk boxes,
    // queried with the slab-clipped box so off-slab pairs are pruned.
    std::vector<Rect> boxes;
    boxes.reserve(disks_.size());
    for (const SweepDisk& d : disks_) {
      boxes.push_back(NnCircle{d.center, d.radius, 0}.Bounds());
    }
    RTree rtree;
    rtree.BulkLoad(boxes);
    for (int32_t i = 0; i < static_cast<int32_t>(disks_.size()); ++i) {
      Rect query = boxes[i];
      query.lo.x = std::max(query.lo.x, lo);
      query.hi.x = std::min(query.hi.x, hi);
      if (!(query.lo.x < query.hi.x)) continue;
      rtree.Query(query, [&](int32_t j) {
        if (j <= i) return;
        const SweepDisk& di = disks_[i];
        const SweepDisk& dj = disks_[j];
        if (!CirclesProperlyIntersect(di.center, di.radius, dj.center,
                                      dj.radius)) {
          return;
        }
        const CircleIntersection isect =
            IntersectCircles(di.center, di.radius, dj.center, dj.radius);
        for (int k = 0; k < isect.count; ++k) {
          if (isect.points[k].x > lo && isect.points[k].x < hi) {
            events_.push_back(
                Event{isect.points[k].x, EventType::kCross, i, j});
          }
        }
      });
    }
    std::sort(events_.begin(), events_.end(),
              [](const Event& a, const Event& b) {
                if (a.x != b.x) return a.x < b.x;
                if (a.type != b.type) return a.type < b.type;
                return a.disk < b.disk;
              });
  }

  // Rebuilds the status order for the strip [x, next_x], then labels every
  // *new adjacency* — a pair of arcs that was not adjacent (in this order)
  // before this event. A preserved adjacency bounds an unchanged region:
  // no arc can enter or leave the region between two arcs without breaking
  // one of its bounding adjacencies. So preserved pairs keep their cached
  // RNN sets — this is the changed-interval optimization in order-diff
  // form, robust to arbitrarily degenerate inputs.
  void Checkpoint(double x, double next_x, State& base) {
    sorted_.clear();
    for (const int32_t d : live_disks_) {
      sorted_.push_back(Arc{d, false});
      sorted_.push_back(Arc{d, true});
    }
    keys_.resize(sorted_.size());
    const double xm = (x + next_x) / 2.0;
    for (size_t t = 0; t < sorted_.size(); ++t) {
      const double y0 = ArcY(sorted_[t], x);
      const double y1 = ArcY(sorted_[t], next_x);
      keys_[t] =
          ArcKey{ArcY(sorted_[t], xm), std::min(y0, y1), std::max(y0, y1)};
    }
    order_.resize(sorted_.size());
    for (size_t t = 0; t < order_.size(); ++t) order_[t] = t;
    std::sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
      if (keys_[a] < keys_[b]) return true;
      if (keys_[b] < keys_[a]) return false;
      return KeyOf(sorted_[a]) < KeyOf(sorted_[b]);  // deterministic ties
    });
    scratch_arcs_.clear();
    scratch_arcs_.reserve(order_.size());
    for (const size_t t : order_) scratch_arcs_.push_back(sorted_[t]);
    sorted_.swap(scratch_arcs_);

    // Label runs of dirty pairs: adjacencies that are new, plus pairs
    // adjacent to an arc involved in this group's crossings/insertions
    // (whose region may have changed contents even with the adjacency
    // preserved).
    const int m = static_cast<int>(sorted_.size());
    int run_start = -1;
    for (int t = 0; t < m; ++t) {
      const bool dirty_pair =
          t + 1 < m &&
          (succ_of_[KeyOf(sorted_[t])] != KeyOf(sorted_[t + 1]) ||
           involved_[KeyOf(sorted_[t])] || involved_[KeyOf(sorted_[t + 1])]);
      if (dirty_pair) {
        if (run_start < 0) run_start = t;
      } else if (run_start >= 0) {
        // Pairs run_start .. t-1 are dirty; walk elements run_start .. t.
        ProcessRange(run_start, t, x, next_x, base);
        run_start = -1;
      }
    }
    RNNHM_DCHECK(run_start < 0);  // the last pair check always closes runs

    // Persist the adjacency map for the next checkpoint.
    for (int t = 0; t < m; ++t) {
      succ_of_[KeyOf(sorted_[t])] =
          t + 1 < m ? KeyOf(sorted_[t + 1]) : kNoArc;
    }
  }

  // Walks elements [a, b] of sorted_, re-deriving RNN sets from the cached
  // base set of element a-1 (Corollary 1 on arcs: a lower arc adds its
  // disk's clients, an upper arc removes them), labeling pairs a..b-1 and
  // refreshing records for a..b.
  void ProcessRange(int a, int b, double x, double next_x, State& base) {
    if (a == 0) {
      base.Clear();
    } else {
      base.Restore(KeyOf(sorted_[a - 1]));
    }
    const double xm = (x + next_x) / 2.0;
    for (int t = a; t <= b; ++t) {
      const Arc& arc = sorted_[t];
      const SweepDisk& d = disks_[arc.disk];
      if (arc.is_upper) {
        base.Remove(d.clients);
      } else {
        base.Add(d.clients);
      }
      if (t < b) {
        const Labeling label = base.Label(measure_);
        ++stats_.num_labelings;
        region_influence_[KeyOf(arc)] = label.influence;
        const double y0 = ArcY(sorted_[t], xm);
        const double y1 = ArcY(sorted_[t + 1], xm);
        sink_->OnRegionLabel(
            Rect{{x, std::min(y0, y1)}, {next_x, std::max(y0, y1)}},
            label.rnn, label.influence);
      }
      base.Save(KeyOf(arc));
    }
  }

  // Reports every adjacent-arc region of the strip [x, next_x) to the arc
  // sink. Influence values come from the per-pair cache maintained by
  // ProcessRange: a pair missing from this checkpoint's dirty runs bounds a
  // region whose contents have not changed since it was last labeled, so
  // its cached value is current. The regions below the lowest and above the
  // highest arc carry the empty RNN set, whose influence the sink's grid
  // holds as background.
  void EmitStrip(double x, double next_x) {
    const int m = static_cast<int>(sorted_.size());
    for (int t = 0; t + 1 < m; ++t) {
      const SweepDisk& dl = disks_[sorted_[t].disk];
      const SweepDisk& du = disks_[sorted_[t + 1].disk];
      options_.arc_sink->OnArcStrip(
          x, next_x,
          ArcStripSink::ArcGeom{dl.center, dl.radius, sorted_[t].is_upper},
          ArcStripSink::ArcGeom{du.center, du.radius,
                                sorted_[t + 1].is_upper},
          region_influence_[KeyOf(sorted_[t])]);
    }
  }

  const InfluenceMeasure& measure_;
  RegionLabelSink* sink_;
  const CrestL2Options options_;
  std::vector<SweepDisk> disks_;
  std::vector<Event> events_;
  std::vector<Arc> sorted_;        // status order over the current strip
  std::vector<Arc> scratch_arcs_;  // sorting scratch
  std::vector<ArcKey> keys_;       // scratch
  std::vector<size_t> order_;      // scratch
  std::vector<int32_t> live_disks_;  // disks currently cut by the line
  std::vector<int32_t> live_index_;  // disk -> index in live_disks_, or -1
  std::vector<int32_t> succ_of_;     // old successor arc key per arc key
  std::vector<uint8_t> involved_;    // arc key touched by this event group
  std::vector<int32_t> involved_keys_;
  std::vector<double> region_influence_;  // per arc key: region above it
  int32_t universe_ = 0;
  CrestL2Stats stats_;
};

}  // namespace

std::vector<double> SlabBoundariesL2(const std::vector<NnCircle>& circles,
                                     size_t shards,
                                     size_t crossing_sample_cap) {
  // One weighted observation per estimated sweep event. Per-disk events
  // (x-extremes and centers) are cheap and exact, weight 1 each. Crossing
  // events — the dominant cost on intersection-heavy workloads — would
  // need the all-pairs pass the shards are meant to divide, so they are
  // *estimated*: a deterministic stride sample of `samples` disks runs the
  // same R-tree probe the sweep's event builder runs, and each observed
  // intersection abscissa is weighted up by the inverse sampling rate.
  // Every crossing is seen from both endpoints when all disks are sampled,
  // hence the 2 in the weight; the estimator then reproduces the true
  // crossing count exactly at full sampling and unbiasedly under the cap.
  struct WeightedX {
    double x;
    double w;
  };
  std::vector<WeightedX> events;
  std::vector<Rect> boxes;
  std::vector<int32_t> disk_of;  // box index -> circles index
  events.reserve(circles.size() * 3);
  for (int32_t i = 0; i < static_cast<int32_t>(circles.size()); ++i) {
    const NnCircle& c = circles[i];
    if (c.radius <= 0.0) continue;
    events.push_back(WeightedX{c.center.x - c.radius, 1.0});
    events.push_back(WeightedX{c.center.x, 1.0});
    events.push_back(WeightedX{c.center.x + c.radius, 1.0});
    boxes.push_back(c.Bounds());
    disk_of.push_back(i);
  }
  const size_t n = boxes.size();
  if (shards > 1 && n >= 2 && crossing_sample_cap > 0) {
    RTree rtree;
    rtree.BulkLoad(boxes);
    const size_t samples = std::min(n, crossing_sample_cap);
    const double weight = static_cast<double>(n) / (2.0 * samples);
    for (size_t k = 0; k < samples; ++k) {
      const size_t b = k * n / samples;  // deterministic stride, no RNG
      const NnCircle& a = circles[disk_of[b]];
      rtree.Query(boxes[b], [&](int32_t other) {
        if (static_cast<size_t>(other) == b) return;
        const NnCircle& c = circles[disk_of[other]];
        if (!CirclesProperlyIntersect(a.center, a.radius, c.center,
                                      c.radius)) {
          return;
        }
        const CircleIntersection isect =
            IntersectCircles(a.center, a.radius, c.center, c.radius);
        for (int p = 0; p < isect.count; ++p) {
          events.push_back(WeightedX{isect.points[p].x, weight});
        }
      });
    }
  }
  std::sort(events.begin(), events.end(),
            [](const WeightedX& a, const WeightedX& b) {
              return a.x < b.x || (a.x == b.x && a.w < b.w);
            });
  double total = 0.0;
  for (const WeightedX& e : events) total += e.w;
  std::vector<double> bounds;
  bounds.reserve(shards + 1);
  // Outer boundaries are infinite so no arc is ever lost to rounding at
  // the extreme event coordinates. Duplicate interior boundaries (heavy
  // ties) collapse to empty slabs, which no-op.
  bounds.push_back(-std::numeric_limits<double>::infinity());
  size_t idx = 0;
  double cum = 0.0;
  for (size_t s = 1; s < shards; ++s) {
    if (events.empty()) {
      bounds.push_back(bounds.back());
      continue;
    }
    // Cut at the weighted s/shards quantile of the event distribution.
    const double target = total * static_cast<double>(s) / shards;
    while (idx + 1 < events.size() && cum + events[idx].w < target) {
      cum += events[idx].w;
      ++idx;
    }
    bounds.push_back(events[idx].x);
  }
  bounds.push_back(std::numeric_limits<double>::infinity());
  return bounds;
}

CrestL2Stats RunCrestL2(const std::vector<NnCircle>& circles,
                        const InfluenceMeasure& measure,
                        RegionLabelSink* sink,
                        const CrestL2Options& options) {
  RNNHM_CHECK_MSG(sink != nullptr, "CREST-L2 requires a label sink");
  if (CountLabelsSuffice(measure, *sink)) {
    return SweepL2<CountLabelState>(circles, measure, sink, options).Run();
  }
  return SweepL2<SetLabelState>(circles, measure, sink, options).Run();
}

CrestL2Stats RunCrestL2Parallel(
    const std::vector<NnCircle>& circles,
    std::span<const InfluenceMeasure* const> shard_measures,
    std::span<RegionLabelSink* const> shard_sinks,
    const CrestL2Options& options) {
  RNNHM_CHECK_MSG(!shard_sinks.empty(), "need at least one shard sink");
  RNNHM_CHECK_MSG(shard_measures.size() == shard_sinks.size(),
                  "one measure per shard");
  RNNHM_CHECK_MSG(std::isinf(options.clip_lo) && std::isinf(options.clip_hi),
                  "the parallel driver owns the slab clipping");
  const size_t shards = shard_sinks.size();

  // The grouping epsilon must be shared by every shard (and match the
  // sequential sweep) so simultaneous-event groups do not depend on the
  // slab decomposition.
  double span = options.event_group_span;
  if (span < 0.0) span = DiskEventGroupSpan(circles);

  if (shards == 1) {
    CrestL2Options seq = options;
    seq.event_group_span = span;
    return RunCrestL2(circles, *shard_measures[0], shard_sinks[0], seq);
  }

  const std::vector<double> bounds = SlabBoundariesL2(circles, shards);
  std::vector<CrestL2Stats> shard_stats(shards);
  std::vector<uint8_t> ran(shards, 0);
  std::vector<std::thread> workers;
  workers.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    workers.emplace_back([&, s] {
      if (!(bounds[s] < bounds[s + 1])) return;  // empty slab
      CrestL2Options shard = options;
      shard.clip_lo = bounds[s];
      shard.clip_hi = bounds[s + 1];
      shard.event_group_span = span;
      shard_stats[s] =
          RunCrestL2(circles, *shard_measures[s], shard_sinks[s], shard);
      ran[s] = 1;
    });
  }
  for (std::thread& t : workers) t.join();

  // Every shard that ran reports the full input's circle accounting (the
  // sweep dedups and counts before clipping), so the global counts come
  // from any of them — the slab from -inf to +inf guarantees at least one.
  // Sweep counters sum, with boundary-spanning regions counted once per
  // slab they touch.
  CrestL2Stats total;
  for (size_t s = 0; s < shards; ++s) {
    if (ran[s]) {
      total.num_circles = shard_stats[s].num_circles;
      total.num_skipped_circles = shard_stats[s].num_skipped_circles;
      break;
    }
  }
  for (const CrestL2Stats& s : shard_stats) {
    total.num_events += s.num_events;
    total.num_cross_events += s.num_cross_events;
    total.num_labelings += s.num_labelings;
  }
  return total;
}

CrestL2Stats RunCrestL2Parallel(const std::vector<NnCircle>& circles,
                                const InfluenceMeasure& measure,
                                std::span<RegionLabelSink* const> shard_sinks,
                                const CrestL2Options& options) {
  std::vector<const InfluenceMeasure*> measures(shard_sinks.size(),
                                                &measure);
  return RunCrestL2Parallel(
      circles, std::span<const InfluenceMeasure* const>(measures),
      shard_sinks, options);
}

CrestL2Stats RunCrestL2ParallelStrips(const std::vector<NnCircle>& circles,
                                      const InfluenceMeasure& measure,
                                      int num_slabs,
                                      const CrestL2Options& options) {
  RNNHM_CHECK(num_slabs >= 1);
  std::vector<CountingSink> counters(num_slabs);
  std::vector<RegionLabelSink*> sinks;
  sinks.reserve(counters.size());
  for (CountingSink& c : counters) sinks.push_back(&c);
  return RunCrestL2Parallel(circles, measure, sinks, options);
}

double DiskEventGroupSpan(const std::vector<NnCircle>& circles) {
  double span = 0.0;
  for (const NnCircle& c : circles) {
    if (c.radius > 0.0) {
      span = std::max(span, std::fabs(c.center.x) + c.radius);
    }
  }
  return span;
}

}  // namespace rnnhm
