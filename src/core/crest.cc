#include "core/crest.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "core/base_set.h"
#include "core/changed_interval.h"
#include "index/skiplist.h"
#include "nn/nn_circle_builder.h"

namespace rnnhm {

namespace {

// A horizontal side of an NN-circle stored in the line status.
struct SideElement {
  int32_t circle;   // index into the (filtered) circle array
  bool is_lower;    // lower side adds the client, upper side removes it
};

// A vertical side of an NN-circle in the event queue.
struct EventSide {
  double x;
  int32_t circle;
  bool is_left;
};

// ---------------------------------------------------------------------------
// Line-status adapters. Both expose the same interface: ordered multiset of
// (y, SideElement) with stable handles, O(log n) bound searches, and
// bidirectional neighbor access. End() is the null/sentinel handle.
// ---------------------------------------------------------------------------

class SkipListStatus {
 public:
  using List = SkipList<double, SideElement>;
  using Handle = List::Node*;

  Handle End() const { return nullptr; }
  Handle Insert(double key, const SideElement& v) {
    return list_.Insert(key, v);
  }
  void Erase(Handle h) { list_.Erase(h); }
  Handle First() const { return list_.First(); }
  Handle LowerBound(double k) const { return list_.LowerBound(k); }
  Handle UpperBound(double k) const { return list_.UpperBound(k); }
  Handle Next(Handle h) const { return List::Next(h); }
  Handle Prev(Handle h) const { return list_.Prev(h); }
  static double Key(Handle h) { return h->key; }
  static const SideElement& Value(Handle h) { return h->value; }

 private:
  List list_;
};

class MultimapStatus {
 public:
  using Map = std::multimap<double, SideElement>;
  using Handle = Map::iterator;

  Handle End() { return map_.end(); }
  Handle Insert(double key, const SideElement& v) {
    return map_.emplace(key, v);
  }
  void Erase(Handle h) { map_.erase(h); }
  Handle First() { return map_.begin() == map_.end() ? End() : map_.begin(); }
  Handle LowerBound(double k) { return map_.lower_bound(k); }
  Handle UpperBound(double k) { return map_.upper_bound(k); }
  Handle Next(Handle h) { return std::next(h); }
  Handle Prev(Handle h) { return h == map_.begin() ? End() : std::prev(h); }
  static double Key(Handle h) { return h->first; }
  static const SideElement& Value(Handle h) { return h->second; }

 private:
  Map map_;
};

// The sweep state (Algorithm 1). One instance per RunCrest call. `State`
// is SetLabelState or CountLabelState (core/base_set.h).
template <typename Status, typename State>
class Sweep {
 public:
  using Handle = typename Status::Handle;

  Sweep(const std::vector<ColoredRect>& rects,
        const InfluenceMeasure& measure, RegionLabelSink* sink,
        const CrestOptions& options)
      : measure_(measure), sink_(sink), options_(options) {
    // Filter out degenerate (empty-area) rectangles: they enclose no area
    // and cannot change any region's RNN set.
    rects_.reserve(rects.size());
    for (const ColoredRect& r : rects) {
      if (r.box.lo.x < r.box.hi.x && r.box.lo.y < r.box.hi.y) {
        rects_.push_back(r);
      } else {
        ++stats_.num_skipped_circles;
      }
    }
    stats_.num_circles = rects_.size();
    const size_t n = rects_.size();
    handles_lower_.assign(n, Handle{});
    handles_upper_.assign(n, Handle{});
    values_.assign(2 * n, 0.0);
    universe_ = 0;
    for (const ColoredRect& r : rects_) {
      universe_ = std::max(universe_, r.client + 1);
    }
  }

  CrestStats Run() {
    BuildEventQueue();
    State base(universe_, 2 * rects_.size());
    std::vector<ChangedInterval> intervals;
    size_t i = 0;
    double prev_x = 0.0;
    bool have_prev = false;
    while (i < sides_.size()) {
      const double x = sides_[i].x;
      ++stats_.num_events;
      // Emit the finished strip [prev_x, x] before mutating the status,
      // unless the sink reads nothing from it.
      if (options_.strip_sink != nullptr && have_prev && prev_x < x &&
          options_.strip_sink->Samples(prev_x, x)) {
        EmitStrip(prev_x, x);
      }
      // Apply every side with this x-coordinate (one event, Section V-A).
      intervals.clear();
      for (; i < sides_.size() && sides_[i].x == x; ++i) {
        const EventSide& s = sides_[i];
        const Rect& b = rects_[s.circle].box;
        if (s.is_left) {
          handles_lower_[s.circle] =
              status_.Insert(b.lo.y, SideElement{s.circle, true});
          handles_upper_[s.circle] =
              status_.Insert(b.hi.y, SideElement{s.circle, false});
        } else {
          status_.Erase(handles_lower_[s.circle]);
          status_.Erase(handles_upper_[s.circle]);
          // Drop the cached records of the removed sides (line 12).
          base.Drop(2 * s.circle);
          base.Drop(2 * s.circle + 1);
        }
        intervals.push_back(ChangedInterval{b.lo.y, b.hi.y});
      }
      const double next_x = i < sides_.size() ? sides_[i].x : x;
      if (options_.use_changed_intervals) {
        MergeChangedIntervals(intervals);
        stats_.num_merged_intervals += intervals.size();
        for (const ChangedInterval& iv : intervals) {
          ProcessInterval(iv.lo, iv.hi, x, next_x, base);
        }
      } else {
        ProcessWholeStatus(x, next_x, base);
      }
      prev_x = x;
      have_prev = true;
    }
    return stats_;
  }

 private:
  static int32_t KeyOf(const SideElement& e) {
    return 2 * e.circle + (e.is_lower ? 0 : 1);
  }

  void BuildEventQueue() {
    sides_.reserve(rects_.size() * 2);
    for (int32_t i = 0; i < static_cast<int32_t>(rects_.size()); ++i) {
      const Rect& b = rects_[i].box;
      sides_.push_back(EventSide{b.lo.x, i, true});
      sides_.push_back(EventSide{b.hi.x, i, false});
    }
    std::sort(sides_.begin(), sides_.end(),
              [](const EventSide& a, const EventSide& b) {
                if (a.x != b.x) return a.x < b.x;
                // Within one event the order of side applications does not
                // matter; fix it for determinism.
                if (a.is_left != b.is_left) return a.is_left < b.is_left;
                return a.circle < b.circle;
              });
  }

  // Labels the valid pairs inside the changed interval [lo, hi] following
  // Section V-C: start from the cached base set of the element immediately
  // preceding the interval and walk every element whose value lies in
  // [lo, hi], editing the base set and refreshing records on the way.
  void ProcessInterval(double lo, double hi, double x, double next_x,
                       State& base) {
    Handle st = status_.LowerBound(lo);
    Handle end = status_.UpperBound(hi);
    if (st == end) return;  // no element inside the interval
    Handle prev = status_.Prev(st);
    if (prev == status_.End()) {
      base.Clear();
    } else {
      const int32_t key = KeyOf(Status::Value(prev));
      base.Restore(key);
      // The pair (prev, st) may have just become valid with a different
      // second element (e.g. prev was the topmost element and an insertion
      // above revived it); its set is unchanged — prev's record — but the
      // per-pair value cache keyed by prev can be stale from an older
      // pair. Refresh it for the rasterizer without counting a labeling.
      if (options_.strip_sink != nullptr &&
          Status::Key(prev) < Status::Key(st)) {
        values_[key] = base.RecordValue(key, measure_);
      }
    }
    Walk(st, end, x, next_x, base, /*maintain_records=*/true);
  }

  // CREST-A: relabel every valid pair of the current line status.
  void ProcessWholeStatus(double x, double next_x, State& base) {
    base.Clear();
    Walk(status_.First(), status_.End(), x, next_x, base,
         /*maintain_records=*/false);
  }

  // Walks elements [st, end) applying Corollary 1: a lower side adds its
  // client to the base set, an upper side removes it; each valid pair
  // (strictly increasing y) is labeled with the current set.
  void Walk(Handle st, Handle end, double x, double next_x, State& base,
            bool maintain_records) {
    Handle last = status_.End();
    for (Handle node = st; node != end; node = status_.Next(node)) {
      ++stats_.num_elements_walked;
      const SideElement& e = Status::Value(node);
      const std::span<const int32_t> client(&rects_[e.circle].client, 1);
      if (e.is_lower) {
        base.Add(client);
      } else {
        base.Remove(client);
      }
      const int32_t key = KeyOf(e);
      Handle nxt = status_.Next(node);
      const bool valid_pair = nxt != status_.End() && nxt != end &&
                              Status::Key(node) < Status::Key(nxt);
      if (valid_pair) {
        const Labeling label = base.Label(measure_);
        ++stats_.num_labelings;
        values_[key] = label.influence;
        sink_->OnRegionLabel(
            Rect{{x, Status::Key(node)}, {next_x, Status::Key(nxt)}},
            label.rnn, label.influence);
      }
      if (maintain_records) {
        // "For elements of the same value, the record is always maintained
        // only at the last one" (Section V-C2): a non-last element of an
        // equal-value cluster can only become a base-set anchor after the
        // equal element above it is removed — and that removal's changed
        // interval rewalks it. Skipping the O(lambda) copy here turns the
        // degenerate nested-squares cost from cubic to quadratic.
        const bool last_among_equals =
            nxt == status_.End() || Status::Key(node) != Status::Key(nxt);
        if (last_among_equals) base.Save(key);
      }
      last = node;
    }
    // Interval-boundary pair (last, end): its region is unchanged, so it is
    // deliberately not relabeled (Lemma 2). When rasterizing, though, the
    // per-pair value cache is keyed by the pair's *first* element, which may
    // have just changed identity — refresh it without counting a labeling.
    if (options_.strip_sink != nullptr && maintain_records &&
        last != status_.End() && end != status_.End() &&
        Status::Key(last) < Status::Key(end)) {
      values_[KeyOf(Status::Value(last))] = base.Label(measure_).influence;
    }
  }

  // Reports every valid pair of the current status as a heat span for the
  // strip [x0, x1]. Influence values are read from the per-pair cache; any
  // currently valid pair was labeled when its set last changed, so the
  // cache is fresh (see DESIGN.md).
  void EmitStrip(double x0, double x1) {
    for (Handle node = status_.First(); node != status_.End();
         node = status_.Next(node)) {
      Handle nxt = status_.Next(node);
      if (nxt == status_.End()) break;
      if (Status::Key(node) < Status::Key(nxt)) {
        options_.strip_sink->OnSpan(x0, x1, Status::Key(node),
                                    Status::Key(nxt),
                                    values_[KeyOf(Status::Value(node))]);
      }
    }
  }

  const InfluenceMeasure& measure_;
  RegionLabelSink* sink_;
  CrestOptions options_;
  std::vector<ColoredRect> rects_;
  std::vector<EventSide> sides_;
  Status status_;
  std::vector<Handle> handles_lower_;
  std::vector<Handle> handles_upper_;
  std::vector<double> values_;  // cached influence per valid pair
  int32_t universe_ = 0;
  CrestStats stats_;
};

template <typename Status>
CrestStats RunSweep(const std::vector<ColoredRect>& rects,
                    const InfluenceMeasure& measure, RegionLabelSink* sink,
                    const CrestOptions& options) {
  if (CountLabelsSuffice(measure, *sink)) {
    return Sweep<Status, CountLabelState>(rects, measure, sink, options)
        .Run();
  }
  return Sweep<Status, SetLabelState>(rects, measure, sink, options).Run();
}

}  // namespace

CrestStats RunRegionColoring(const std::vector<ColoredRect>& rects,
                             const InfluenceMeasure& measure,
                             RegionLabelSink* sink,
                             const CrestOptions& options) {
  RNNHM_CHECK_MSG(sink != nullptr, "CREST requires a label sink");
  if (options.status_backend == StatusBackend::kStdMultimap) {
    return RunSweep<MultimapStatus>(rects, measure, sink, options);
  }
  return RunSweep<SkipListStatus>(rects, measure, sink, options);
}

CrestStats RunCrest(const std::vector<NnCircle>& circles,
                    const InfluenceMeasure& measure, RegionLabelSink* sink,
                    const CrestOptions& options) {
  std::vector<ColoredRect> rects;
  rects.reserve(circles.size());
  size_t skipped = 0;
  for (const NnCircle& c : circles) {
    if (c.radius > 0.0) {
      rects.push_back(ColoredRect{c.Bounds(), c.client});
    } else {
      ++skipped;  // zero-radius circles are points, not regions
    }
  }
  CrestStats stats = RunRegionColoring(rects, measure, sink, options);
  stats.num_skipped_circles += skipped;
  return stats;
}

CrestStats RunCrestL1(const std::vector<NnCircle>& l1_circles,
                      const InfluenceMeasure& measure, RegionLabelSink* sink,
                      const CrestOptions& options) {
  return RunCrest(RotateCirclesToLInf(l1_circles), measure, sink, options);
}

}  // namespace rnnhm
