// Concrete influence measures (Section I / Section VIII-B).
//
// The paper stresses that CREST is generic over "any influence measure
// computable from RNN sets". This module provides the measures used in the
// paper's examples and experiments:
//   * SizeInfluence        — |R|, the classic Korn & Muthukrishnan measure;
//   * WeightedInfluence    — sum of per-client weights;
//   * CapacityInfluence    — the capacity-constrained utility of [22],
//                            sum over f of min{c(f), |R(f)|} after adding
//                            the candidate location;
//   * ConnectivityInfluence— the taxi-sharing measure of Fig. 3: number of
//                            "close-destination" edges within the RNN set.
#ifndef RNNHM_HEATMAP_INFLUENCE_H_
#define RNNHM_HEATMAP_INFLUENCE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/influence_measure.h"

namespace rnnhm {

/// Influence = |R| (size of the RNN set).
class SizeInfluence : public InfluenceMeasure {
 public:
  double Evaluate(std::span<const int32_t> clients) const override {
    return static_cast<double>(clients.size());
  }
  bool IsSetSize() const override { return true; }
};

/// Influence = sum of client weights.
class WeightedInfluence : public InfluenceMeasure {
 public:
  explicit WeightedInfluence(std::vector<double> weights)
      : weights_(std::move(weights)) {}

  double Evaluate(std::span<const int32_t> clients) const override;
  double UpperBound(std::span<const int32_t> committed,
                    std::span<const int32_t> optional) const override;

 private:
  std::vector<double> weights_;
};

/// The capacity-constrained measure of [22] (see the Introduction):
///   influence(p) = sum_{f in F ∪ {p}} min{c(f), |R(f)|},
/// where adding p steals p's RNN set from the clients' previous NNs.
/// Construction precomputes each client's current NN facility and every
/// facility's RNN count, so Evaluate costs O(|R|).
class CapacityInfluence : public InfluenceMeasure {
 public:
  /// `client_nn[i]` is the facility index currently nearest to client i;
  /// `facility_capacity[j]` is c(f_j); `candidate_capacity` is c(p) for the
  /// evaluated location.
  CapacityInfluence(std::vector<int32_t> client_nn,
                    std::vector<int32_t> facility_capacity,
                    int32_t candidate_capacity);

  double Evaluate(std::span<const int32_t> clients) const override;
  /// The measure is not monotone (stealing clients can lower the existing
  /// facilities' contribution), so the default bound does not apply. This
  /// override returns base_total + min(c(p), |committed| + |optional|),
  /// which dominates every realizable superset.
  double UpperBound(std::span<const int32_t> committed,
                    std::span<const int32_t> optional) const override;

 private:
  std::vector<int32_t> client_nn_;
  std::vector<int32_t> capacity_;
  std::vector<int32_t> rnn_count_;  // |R(f)| without the candidate
  int32_t candidate_capacity_;
  double base_total_ = 0.0;         // sum_f min{c(f), |R(f)|}
  // Scratch for Evaluate (stolen counts per touched facility).
  mutable std::vector<int32_t> stolen_;
  mutable std::vector<int32_t> touched_;
};

/// The taxi-sharing measure of Fig. 3: clients are graph vertices, an edge
/// connects passengers with close destinations, and the influence of a
/// region is the number of edges both of whose endpoints are in the RNN
/// set. Evaluate keeps its membership scratch thread-local, so one
/// instance is safe to share across concurrent sweep shards.
class ConnectivityInfluence : public InfluenceMeasure {
 public:
  /// `num_clients` vertices; `edges` are undirected (i, j) pairs.
  ConnectivityInfluence(int32_t num_clients,
                        const std::vector<std::pair<int32_t, int32_t>>& edges);

  double Evaluate(std::span<const int32_t> clients) const override;

 private:
  std::vector<std::vector<int32_t>> adjacency_;
};

}  // namespace rnnhm

#endif  // RNNHM_HEATMAP_INFLUENCE_H_
