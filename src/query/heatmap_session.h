// Dynamic workload sessions (the paper's motivating taxi-sharing setting:
// "the heat map may change as clients move around and need to be
// recomputed frequently").
//
// A HeatmapSession owns a mutable client/facility workload and keeps the
// NN-circles incrementally correct:
//   * moving or adding a client recomputes only that client's circle
//     (one k-d tree query);
//   * adding a facility shrinks exactly the circles it now serves
//     (no index rebuild — a linear radius check);
//   * removing a facility re-queries only the clients it was serving
//     (facility tree rebuilt lazily).
// Rebuild() then runs the sweep over the current circles, which is where
// an efficient RNNHM algorithm matters — CREST's O(n log n + r lambda)
// makes per-tick recomputation feasible. RasterIncremental() goes one step
// further for kLInf/kL2 sessions: it retains the previous raster, tracks
// the 2D rect each edit dirties, and re-sweeps only the sub-rects covering
// them — bit-identical to a from-scratch rebuild at a fraction of the
// work when edits are local.
#ifndef RNNHM_QUERY_HEATMAP_SESSION_H_
#define RNNHM_QUERY_HEATMAP_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/crest.h"
#include "core/crest_l2.h"
#include "core/crest_parallel.h"
#include "core/dirty_interval.h"
#include "core/influence_measure.h"
#include "core/label_sink.h"
#include "geom/geometry.h"
#include "heatmap/heatmap.h"
#include "heatmap/incremental.h"
#include "index/kdtree.h"
#include "query/circle_set_registry.h"
#include "query/heatmap_engine.h"

namespace rnnhm {

/// Outcome of one HeatmapSession::RasterIncremental call.
struct IncrementalRebuildStats {
  /// True when the call swept everything from scratch instead of splicing:
  /// the first raster, a domain/size/measure change, an explicit
  /// InvalidateRaster, or a kL1 session (whose sweep runs in the rotated
  /// frame and is not column-separable). `raster` stays zero then.
  bool full_rebuild = false;
  /// Counters of the splice pass (dirty slabs/columns, clipped-sweep work).
  IncrementalRasterStats raster;
};

/// Mutable bichromatic workload with incrementally maintained NN-circles.
///
/// Concurrency model: a session is thread-compatible, not thread-safe —
/// it holds no locks and every member is owned by whichever single thread
/// drives the session (distinct sessions on distinct threads are fine).
/// The one multi-threaded path, RebuildParallel, fans work out internally
/// through SweepCrestParallel, whose workers write disjoint shard scratch
/// and never touch session state; the session object itself stays
/// confined to the caller for the whole call. This is the same external-
/// synchronization contract the engine gives each queue entry, so no
/// annotated mutex lives here by design (see docs/ARCHITECTURE.md,
/// "Concurrency model & static analysis").
class HeatmapSession {
 public:
  /// Starts a session; requires at least one facility.
  HeatmapSession(std::vector<Point> clients, std::vector<Point> facilities,
                 Metric metric);

  /// Number of clients currently in the workload (edits can grow it).
  size_t num_clients() const { return clients_.size(); }
  /// Number of facilities currently in the workload (always >= 1).
  size_t num_facilities() const { return facilities_.size(); }
  /// The distance metric every circle radius is measured in.
  Metric metric() const { return metric_; }

  /// Moves client `id`; O(log |F|).
  void MoveClient(int32_t id, const Point& to);

  /// Adds a client; returns its id. O(log |F|).
  int32_t AddClient(const Point& at);

  /// Adds a facility; O(|O|) radius shrink pass, no tree rebuild.
  void AddFacility(const Point& at);

  /// Removes facility `id` (swap-removes; the last facility takes its id).
  /// Requires at least two facilities. Rebuilds the facility tree and
  /// re-queries only the clients that were served by the removed facility.
  void RemoveFacility(int32_t id);

  /// The current NN-circles (metric-specific radii), index == client id.
  const std::vector<NnCircle>& circles() const { return circles_; }
  /// Current client locations, index == client id.
  const std::vector<Point>& clients() const { return clients_; }
  /// Current facility locations (RemoveFacility swap-compacts ids).
  const std::vector<Point>& facilities() const { return facilities_; }

  /// Runs the sweep appropriate for the session metric over the current
  /// circles (L1 is swept in the rotated frame, as RunCrestL1).
  void Rebuild(const InfluenceMeasure& measure, RegionLabelSink* sink,
               const CrestOptions& options = {}) const;

  /// As Rebuild with the slab-parallel sweep: shard i labels slab i through
  /// `shard_sinks[i]` (see core/crest_parallel.h for the thread-safety
  /// contract; L1 sessions sweep and label in the rotated frame, L2
  /// sessions run the slab-decomposed arc sweep). Returns the summed
  /// per-shard stats of whichever sweep ran. `options` applies to the
  /// rectilinear sweeps only.
  MetricSweepStats RebuildParallel(
      const InfluenceMeasure& measure,
      std::span<RegionLabelSink* const> shard_sinks,
      const CrestOptions& options = {}) const;

  /// Maintains a retained raster across edits: the first call (or any call
  /// after the domain, size or measure changed) sweeps from scratch; later
  /// calls re-sweep only the pixel-aligned sub-rects covering the dirty
  /// rects the edits since the previous call accumulated, and splice the
  /// recomputed pixels into the retained grid (see heatmap/incremental.h
  /// for why the splice is bit-identical to a from-scratch build). kL1 sessions always
  /// rebuild fully — their sweep runs in the rotated frame. The returned
  /// reference stays valid until the next RasterIncremental or
  /// InvalidateRaster. `measure` is identified by address and must be the
  /// same object across calls for splicing to engage.
  const HeatmapGrid& RasterIncremental(
      const InfluenceMeasure& measure, const Rect& domain, int width,
      int height, IncrementalRebuildStats* stats = nullptr);

  /// Drops the retained raster; the next RasterIncremental rebuilds fully.
  void InvalidateRaster();

  /// Publishes the session's current circles into `registry` and returns
  /// the shared handle. Identical workloads — two sessions at the same
  /// tick, or a session whose edits reverted — deduplicate to the same
  /// handle, so their engine requests share one snapshot and one cache
  /// key. The session releases its previous publication into the same
  /// registry automatically (a ticking session holds at most one
  /// registration there); it never releases into a different registry,
  /// and never on destruction — callers that switch or drop registries
  /// manage those registrations themselves.
  CircleSetHandle PublishCircles(CircleSetRegistry& registry);

  /// Releases the session's current publication (if any) back into its
  /// registry and forgets it. Idempotent and double-release-safe: calling
  /// it twice, or after the registry evicted the entry, is a no-op that
  /// returns false (the registry itself also refuses to underflow a
  /// zero-registration entry). Returns true iff a registration was
  /// actually released. Use before dropping a registry the session
  /// published into; PublishCircles keeps working afterwards.
  bool ReleasePublication();

  /// Turns the edit journal on (or off): while enabled, every mutator
  /// records the CircleSetEdit that reproduces its circle change, in
  /// order, so a tick's edits can travel as a wire v4 delta request
  /// instead of re-shipping the set. Off by default — sessions that never
  /// drain the journal must not accumulate one. Enabling clears any
  /// stale journal.
  void EnableEditJournal(bool on = true);

  /// Drains the journal: returns the edits recorded since the last call
  /// (or since EnableEditJournal) and clears it. Applying them in order
  /// to the previous tick's circle vector reproduces circles() exactly —
  /// same content hash, byte for byte.
  std::vector<CircleSetEdit> TakeCircleEdits();

  /// The undrained journal (empty when disabled).
  const std::vector<CircleSetEdit>& pending_edits() const { return edits_; }

  /// Publishes into `engine.registry()` and executes a v2 request for the
  /// current circles: the serving-path analogue of Rebuild. On a
  /// cache-enabled engine, ticks whose circle set matches one already
  /// served — by this or any other session sharing the engine — come back
  /// `from_cache`, bit-identical to a fresh sweep. Failures come back as
  /// ExecuteChecked reports them; `*response` is engaged only on ok.
  Status RenderThroughEngine(HeatmapEngine& engine, const Rect& domain,
                             int width, int height,
                             std::optional<HeatmapResponse>* response);

  /// The dirty rects (edited circles' footprint bounding boxes) accumulated
  /// since the last RasterIncremental (exposed for tests and monitoring;
  /// consumed — and cleared — by RasterIncremental).
  const DirtyRegionSet& dirty_regions() const { return dirty_; }

 private:
  void EnsureFacilityTree();
  // `record` controls whether the resulting circle change lands in the
  // edit journal as a kReplace (AddClient journals a kAppend itself —
  // the placeholder it replaces does not exist in the previous tick).
  void RequeryClient(int32_t id, bool record = true);
  void MarkCircleDirty(const NnCircle& circle);
  void RecordEdit(const CircleSetEdit& edit);

  Metric metric_;
  std::vector<Point> clients_;
  std::vector<Point> facilities_;
  std::vector<NnCircle> circles_;
  std::vector<int32_t> client_nn_;  // facility currently nearest per client
  std::unique_ptr<KdTree> facility_tree_;  // rebuilt lazily

  // Incremental raster state: the retained grid, the measure it was built
  // with (compared by address only, never dereferenced), and the dirty
  // rects accumulated since it was last brought up to date.
  DirtyRegionSet dirty_;
  std::unique_ptr<HeatmapGrid> raster_;
  const InfluenceMeasure* raster_measure_ = nullptr;

  // The session's latest publication (see PublishCircles): released into
  // the same registry on the next publish so stale ticks don't accumulate.
  CircleSetHandle published_;
  CircleSetRegistry* published_registry_ = nullptr;

  // The edit journal (see EnableEditJournal/TakeCircleEdits).
  bool journal_enabled_ = false;
  std::vector<CircleSetEdit> edits_;
};

}  // namespace rnnhm

#endif  // RNNHM_QUERY_HEATMAP_SESSION_H_
