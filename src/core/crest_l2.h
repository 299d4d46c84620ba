// CREST under the L2 metric (Section VII-C).
//
// NN-circles are disks; the arrangement has curved edges. The sweep keeps
// the same machinery as the square case with these changes:
//   * line elements are the lower/upper semicircle arcs of the disks cut by
//     the line (a lower arc adds its client to the base set, an upper arc
//     removes it — exactly like lower/upper square sides);
//   * event points are the x-extremes of every disk, disk centers (keeping
//     arcs y-monotone per strip), and all pairwise boundary intersection
//     points (arcs switch positions there).
// Because arcs cannot cross strictly inside a strip (crossings are events),
// the status order is maintained positionally: insertions locate their slot
// by evaluating arc ordinates at the strip midpoint, intersections swap the
// two incident arcs. Changed intervals are positional index ranges; base
// sets are cached per arc under the same 2i / 2i+1 keying as the square
// sweep. Like the square sweep, a set-size measure with a sink that does
// not read sets runs on |RNN set| counts alone (see core/crest.h).
#ifndef RNNHM_CORE_CREST_L2_H_
#define RNNHM_CORE_CREST_L2_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/influence_measure.h"
#include "core/label_sink.h"
#include "geom/geometry.h"

namespace rnnhm {

/// Counters reported by an L2 sweep run.
struct CrestL2Stats {
  size_t num_circles = 0;
  size_t num_skipped_circles = 0;   ///< zero-radius circles ignored
  size_t num_events = 0;            ///< total events processed
  size_t num_cross_events = 0;      ///< intersection events
  size_t num_labelings = 0;         ///< k: region labelings

  /// Field-wise sum, mirroring CrestStats::operator+=.
  CrestL2Stats& operator+=(const CrestL2Stats& other) {
    num_circles += other.num_circles;
    num_skipped_circles += other.num_skipped_circles;
    num_events += other.num_events;
    num_cross_events += other.num_cross_events;
    num_labelings += other.num_labelings;
    return *this;
  }
};

/// Receiver of the curved analogue of StripSink spans: the region between
/// two vertically adjacent arcs over one sweep strip. Consumers evaluate
/// the arc ordinates themselves (ArcYAt) wherever they need them — e.g. a
/// rasterizer samples both arcs at each pixel-column center, which is what
/// makes the painted grid independent of how strips were subdivided.
/// Every strip the sink samples (Samples) is reported; regions of one
/// reported strip tile the y-range between the lowest and highest live arc.
class ArcStripSink {
 public:
  /// One bounding arc: the lower or upper semicircle of a disk.
  struct ArcGeom {
    Point center;
    double radius = 0.0;
    bool is_upper = false;
  };

  virtual ~ArcStripSink() = default;

  /// The region between `lower` and `upper` over x in [x0, x1) carries
  /// `influence`. At every x in the strip, lower's ordinate is <= upper's.
  virtual void OnArcStrip(double x0, double x1, const ArcGeom& lower,
                          const ArcGeom& upper, double influence) = 0;

  /// False iff the sink reads nothing from the strip [x0, x1); see
  /// StripSink::Samples.
  virtual bool Samples(double /*x0*/, double /*x1*/) const { return true; }
};

/// Tuning knobs and hooks for an L2 sweep run.
struct CrestL2Options {
  /// Optional rasterization hook; receives every adjacent-arc region of
  /// every strip it samples (curved analogue of CrestOptions::strip_sink).
  ArcStripSink* arc_sink = nullptr;
  /// Sweep only the vertical slab [clip_lo, clip_hi): disks are clipped to
  /// the slab (arcs entering it behave like a sweep starting mid-way), and
  /// events outside it are dropped. Defaults sweep the whole plane. Used by
  /// RunCrestL2Parallel; labels of a clipped run are correct region labels
  /// whose representative boxes are clipped to the slab.
  double clip_lo = -std::numeric_limits<double>::infinity();
  double clip_hi = std::numeric_limits<double>::infinity();
  /// Override for the coordinate span that scales the simultaneous-event
  /// grouping epsilon. Negative derives it from the swept disks; the
  /// parallel driver passes the whole input's span so every shard groups
  /// events exactly like the sequential sweep.
  double event_group_span = -1.0;
};

/// Runs the L2 CREST sweep over disks built with Metric::kL2. Labeled
/// "rectangles" are per-strip bounding boxes of the curved subregions.
/// Requires the input to be in general position (no two identical disks);
/// exact duplicates are deduplicated defensively by keeping one disk per
/// (center, radius) — the duplicate clients still appear in RNN sets.
/// `stats.num_circles` / `num_skipped_circles` always count the full input,
/// even when `options` clips the sweep to a slab.
CrestL2Stats RunCrestL2(const std::vector<NnCircle>& circles,
                        const InfluenceMeasure& measure,
                        RegionLabelSink* sink,
                        const CrestL2Options& options = {});

/// Slab-parallel L2 sweep: decomposes the x-axis into one vertical slab per
/// sink in `shard_sinks`, cut at crossing-event-density quantiles
/// (SlabBoundariesL2), and sweeps the slabs on independent threads. Disks are clipped
/// to each slab they overlap — x-extremes, centers and pairwise boundary
/// intersections inside a slab stay events there, so per-slab labels are
/// correct region labels; a region spanning a boundary is labeled once per
/// slab it touches (same RNN set). `options.arc_sink`, when set, receives
/// strips from all shards concurrently; shard strips never overlap in x
/// (half-open slabs), so RasterArcSink painting a shared grid is safe and
/// the raster is bit-identical to a sequential sweep's for measures whose
/// value does not depend on RNN-set iteration order.
/// `options.clip_lo`/`clip_hi` must be left at their defaults — the driver
/// owns the slab decomposition. Returns the per-shard sums; num_circles and
/// num_skipped_circles are global counts matching the sequential sweep.
CrestL2Stats RunCrestL2Parallel(const std::vector<NnCircle>& circles,
                                const InfluenceMeasure& measure,
                                std::span<RegionLabelSink* const> shard_sinks,
                                const CrestL2Options& options = {});

/// As above with one measure instance per shard (for measures with
/// per-instance scratch, e.g. CapacityInfluence). `shard_measures` must
/// have the same length as `shard_sinks`.
CrestL2Stats RunCrestL2Parallel(
    const std::vector<NnCircle>& circles,
    std::span<const InfluenceMeasure* const> shard_measures,
    std::span<RegionLabelSink* const> shard_sinks,
    const CrestL2Options& options = {});

/// Convenience for callers that only consume `options.arc_sink` output
/// (parallel rasterization): sweeps with `num_slabs` shards, discarding the
/// region labels through private counting sinks. Returns the summed stats.
CrestL2Stats RunCrestL2ParallelStrips(const std::vector<NnCircle>& circles,
                                      const InfluenceMeasure& measure,
                                      int num_slabs,
                                      const CrestL2Options& options = {});

/// Slab cuts for the parallel L2 sweep: `shards` + 1 ascending boundaries
/// (outer two infinite) at weighted quantiles of the estimated *event
/// density*. Per-disk events (x-extremes, centers) weigh 1 each; pairwise
/// crossing events — the sweep's dominant cost on intersection-heavy
/// inputs — are estimated from a deterministic stride sample of at most
/// `crossing_sample_cap` disks (R-tree probed exactly like the event
/// builder), each observation weighted by the inverse sampling rate. A hot
/// intersection cluster thus splits across slabs instead of serializing
/// one, where plain x-extreme quantiles would underweight it. Boundaries
/// affect load balance only, never output: the raster sinks' center
/// sampling keeps grids bit-identical for every decomposition. No RNG —
/// identical inputs always cut identically.
std::vector<double> SlabBoundariesL2(const std::vector<NnCircle>& circles,
                                     size_t shards,
                                     size_t crossing_sample_cap = 256);

/// The coordinate span that scales the sweep's simultaneous-event grouping
/// epsilon, derived from the full disk set exactly as the sequential sweep
/// derives it. Any clipped sweep over a subset of the plane (a parallel
/// shard, an incremental dirty slab) must pass this via
/// `CrestL2Options::event_group_span` so its event groups match the
/// sequential sweep's bit for bit.
double DiskEventGroupSpan(const std::vector<NnCircle>& circles);

}  // namespace rnnhm

#endif  // RNNHM_CORE_CREST_L2_H_
