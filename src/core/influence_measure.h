// Influence measure interface (Definition 1).
//
// An influence measure is any real-valued function of an RNN set. CREST is
// generic over the measure: it hands each labeled region's RNN set to
// Evaluate exactly once per labeling. The one exception is a set-size
// measure (IsSetSize) reporting to a sink that does not read sets
// (RegionLabelSink::reads_sets): there the sweep carries |RNN set| as a
// running count and calls Evaluate not at all, since the count is already
// the value. Concrete measures (size, weighted sum, capacity-constrained,
// connectivity) live in heatmap/influence.h.
#ifndef RNNHM_CORE_INFLUENCE_MEASURE_H_
#define RNNHM_CORE_INFLUENCE_MEASURE_H_

#include <cstdint>
#include <span>

namespace rnnhm {

/// Real-valued function over RNN sets (client-id sets, unordered).
class InfluenceMeasure {
 public:
  virtual ~InfluenceMeasure() = default;

  /// Influence of a region whose RNN set is exactly `clients`.
  /// `clients` carries distinct client ids in unspecified order.
  virtual double Evaluate(std::span<const int32_t> clients) const = 0;

  /// Optimistic bound used by branch-and-bound comparators (the Pruning
  /// algorithm): an upper bound on Evaluate(S) over every S with
  /// committed ⊆ S ⊆ committed ∪ optional. The default evaluates the full
  /// union, which is a valid bound for monotone measures (size, weights,
  /// connectivity); non-monotone measures must override.
  virtual double UpperBound(std::span<const int32_t> committed,
                            std::span<const int32_t> optional) const;

  /// True iff Evaluate(S) == |S| for every S. Lets the sweeps skip
  /// building sets they would only measure the size of.
  virtual bool IsSetSize() const { return false; }
};

}  // namespace rnnhm

#endif  // RNNHM_CORE_INFLUENCE_MEASURE_H_
