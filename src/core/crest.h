// CREST: Constructing RNN hEat maps with the Sweep line sTrategy.
//
// Implements Algorithm 1 of the paper for the L-infinity metric (NN-circles
// are axis-aligned squares) and, via the pi/4 rotation of Section VII-B,
// the L1 metric. Two optimizations over the baseline:
//   1. RNN sets are derived incrementally from the line status (Lemma 1 /
//      Corollary 1) — no point-enclosure queries are ever issued.
//   2. Only pairs inside merged *changed intervals* are relabeled (Lemma 2),
//      with *base sets* cached per line element (Section V-C2), bounding the
//      number of labelings k by Theta(r) (Lemma 3).
// Disabling optimization 2 yields the paper's CREST-A comparison algorithm.
//
// Base sets and records cost O(lambda) to copy. When the measure is the set
// size (InfluenceMeasure::IsSetSize) and the sink does not read sets
// (RegionLabelSink::reads_sets), the sweep carries |RNN set| as a running
// count instead: one integer per record, O(1) per labeling, the sink gets an
// empty `rnn` span, and influences, rasters and CrestStats are unchanged.
#ifndef RNNHM_CORE_CREST_H_
#define RNNHM_CORE_CREST_H_

#include <cstdint>
#include <vector>

#include "core/influence_measure.h"
#include "core/label_sink.h"
#include "geom/geometry.h"

namespace rnnhm {

/// Line-status container choice (ablation of the paper's "balanced search
/// tree with doubly linked leaves" recommendation).
enum class StatusBackend {
  kSkipList,     ///< handle-stable skip list (default)
  kStdMultimap,  ///< std::multimap with stored iterators
};

/// Tuning knobs and optional hooks for a sweep run.
struct CrestOptions {
  /// true  -> full CREST (changed intervals + cached base sets);
  /// false -> CREST-A (every valid pair of every line status is relabeled).
  bool use_changed_intervals = true;
  /// Optional rasterization hook: receives exact heat spans for every
  /// strip it samples (StripSink::Samples).
  StripSink* strip_sink = nullptr;
  /// Ordered container implementing the line status.
  StatusBackend status_backend = StatusBackend::kSkipList;
};

/// Counters reported by a sweep run.
struct CrestStats {
  size_t num_circles = 0;          ///< non-degenerate NN-circles swept
  size_t num_skipped_circles = 0;  ///< zero-radius circles ignored
  size_t num_events = 0;           ///< distinct event x-coordinates
  size_t num_labelings = 0;        ///< k: region labelings
  size_t num_merged_intervals = 0; ///< changed intervals after merging
  size_t num_elements_walked = 0;  ///< line-status elements visited

  /// Field-wise sum: the total of sweeps over disjoint work (tiles,
  /// fragments). Slab totals copy num_circles instead; see crest_parallel.
  CrestStats& operator+=(const CrestStats& other) {
    num_circles += other.num_circles;
    num_skipped_circles += other.num_skipped_circles;
    num_events += other.num_events;
    num_labelings += other.num_labelings;
    num_merged_intervals += other.num_merged_intervals;
    num_elements_walked += other.num_elements_walked;
    return *this;
  }
};

/// An axis-aligned rectangle carrying a client id — the general input of
/// the Region Coloring problem (Definition 2). NN-circles under L-infinity
/// are the square special case; clipped rectangles arise in the parallel
/// slab decomposition.
struct ColoredRect {
  Rect box;
  int32_t client = -1;
};

/// Runs the sweep over arbitrary axis-aligned rectangles: labels every
/// region of their arrangement with the set of rectangles containing it.
/// Degenerate (empty-area) rectangles are skipped and counted.
CrestStats RunRegionColoring(const std::vector<ColoredRect>& rects,
                             const InfluenceMeasure& measure,
                             RegionLabelSink* sink,
                             const CrestOptions& options = {});

/// Runs CREST over L-infinity NN-circles (squares). Every region labeling
/// is reported to `sink` (required). Influence values come from `measure`,
/// evaluated once per labeling, or from a running count when
/// CountLabelsSuffice(measure, *sink) (core/base_set.h).
CrestStats RunCrest(const std::vector<NnCircle>& circles,
                    const InfluenceMeasure& measure, RegionLabelSink* sink,
                    const CrestOptions& options = {});

/// Convenience: solves the RNNHM/RC problem for the L1 metric by rotating
/// the input circles into the L-infinity frame (Section VII-B) and running
/// CREST there. Labeled rectangles live in the *rotated* frame; RNN sets
/// and influence values are frame-independent. Input circles must have been
/// built with Metric::kL1.
CrestStats RunCrestL1(const std::vector<NnCircle>& l1_circles,
                      const InfluenceMeasure& measure, RegionLabelSink* sink,
                      const CrestOptions& options = {});

}  // namespace rnnhm

#endif  // RNNHM_CORE_CREST_H_
