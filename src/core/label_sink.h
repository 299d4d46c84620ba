// Output interfaces of the region-coloring algorithms.
//
// Every RC algorithm (CREST, CREST-A, CREST-L2, the baseline) reports its
// work through a RegionLabelSink: one callback per region labeling, carrying
// a representative rectangle, the region's RNN set, and its influence under
// the configured measure. A sink that declares it never reads sets
// (reads_sets() == false) may be handed an empty set instead, which lets a
// set-size measure run on counts alone. Common sinks (max tracking,
// counting, collecting) are provided here; the heat-map rasterizer in
// heatmap/ is another sink.
#ifndef RNNHM_CORE_LABEL_SINK_H_
#define RNNHM_CORE_LABEL_SINK_H_

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "geom/geometry.h"

namespace rnnhm {

/// Receiver of region labelings.
class RegionLabelSink {
 public:
  virtual ~RegionLabelSink() = default;

  /// One region labeling. `subregion` is a representative axis-aligned box
  /// of the labeled subregion (for the L2 sweep, the bounding box of the
  /// pair over the current strip); `rnn` lists the region's client ids in
  /// unspecified order; `influence` is the measure value for that set.
  virtual void OnRegionLabel(const Rect& subregion,
                             std::span<const int32_t> rnn,
                             double influence) = 0;

  /// False iff this sink ignores `rnn`. A sweep whose measure is the set
  /// size (InfluenceMeasure::IsSetSize) then passes an empty `rnn` span
  /// and keeps only the count, with `influence` unchanged.
  virtual bool reads_sets() const { return true; }
};

/// Receiver of exact vertical heat spans, used for rasterization.
/// For every strip between consecutive sweep events that the sink samples
/// (Samples), the sweep reports every valid pair once: the strip's x-range,
/// the pair's y-range and the cached influence of the region. Spans tile
/// each reported strip exactly.
class StripSink {
 public:
  virtual ~StripSink() = default;
  virtual void OnSpan(double x0, double x1, double y0, double y1,
                      double influence) = 0;

  /// False iff the sink reads nothing from any span of the strip [x0, x1);
  /// the sweep then skips the strip's whole line-status walk. A raster
  /// samples only pixel-column centers, so most strips of a fine
  /// arrangement are skipped. May be called concurrently by slab shards.
  virtual bool Samples(double /*x0*/, double /*x1*/) const { return true; }
};

/// Tracks the maximum influence seen and one witness region.
class MaxInfluenceSink : public RegionLabelSink {
 public:
  void OnRegionLabel(const Rect& subregion, std::span<const int32_t> rnn,
                     double influence) override;

  bool HasResult() const { return has_result_; }
  double max_influence() const { return max_influence_; }
  const Rect& witness() const { return witness_; }
  const std::vector<int32_t>& witness_rnn() const { return witness_rnn_; }

 private:
  bool has_result_ = false;
  double max_influence_ = 0.0;
  Rect witness_ = EmptyRect();
  std::vector<int32_t> witness_rnn_;
};

/// Counts labelings (the paper's k) without storing them.
class CountingSink : public RegionLabelSink {
 public:
  void OnRegionLabel(const Rect&, std::span<const int32_t>,
                     double) override {
    ++count_;
  }
  bool reads_sets() const override { return false; }
  size_t count() const { return count_; }

 private:
  size_t count_ = 0;
};

/// Collects the distinct RNN sets seen, mapped to their influence.
/// Intended for tests and small inputs: keys are sorted client-id vectors.
class DistinctSetSink : public RegionLabelSink {
 public:
  void OnRegionLabel(const Rect& subregion, std::span<const int32_t> rnn,
                     double influence) override;

  const std::map<std::vector<int32_t>, double>& sets() const {
    return sets_;
  }

 private:
  std::map<std::vector<int32_t>, double> sets_;
};

/// Stores every labeling verbatim (tests / tiny inputs only).
class CollectingSink : public RegionLabelSink {
 public:
  struct Label {
    Rect subregion;
    std::vector<int32_t> rnn;  // sorted for comparability
    double influence;
  };

  void OnRegionLabel(const Rect& subregion, std::span<const int32_t> rnn,
                     double influence) override;

  const std::vector<Label>& labels() const { return labels_; }

 private:
  std::vector<Label> labels_;
};

/// Broadcasts labelings to several sinks.
class TeeSink : public RegionLabelSink {
 public:
  explicit TeeSink(std::vector<RegionLabelSink*> sinks)
      : sinks_(std::move(sinks)) {}

  void OnRegionLabel(const Rect& subregion, std::span<const int32_t> rnn,
                     double influence) override {
    for (RegionLabelSink* s : sinks_) s->OnRegionLabel(subregion, rnn, influence);
  }
  bool reads_sets() const override {
    for (const RegionLabelSink* s : sinks_) {
      if (s->reads_sets()) return true;
    }
    return false;
  }

 private:
  std::vector<RegionLabelSink*> sinks_;
};

}  // namespace rnnhm

#endif  // RNNHM_CORE_LABEL_SINK_H_
