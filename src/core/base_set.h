// The base set of Section V-D.
//
// CREST derives the RNN set of each valid pair by incrementally editing the
// set of the previous pair. The paper prescribes "a linked list [of data
// points] and ... an additional random access data structure indexed by the
// data points" so that insertion and deletion are O(1) and copying is
// O(lambda). BaseSet is exactly that: an intrusive doubly linked list over
// a preallocated node table indexed by client id.
//
// The label states below wrap the base set together with the per-element
// records of Section V-C2, in two forms sharing one interface so each sweep
// writes its walk once: SetLabelState carries the RNN set itself, and
// CountLabelState carries only its size, for runs where nothing reads sets.
#ifndef RNNHM_CORE_BASE_SET_H_
#define RNNHM_CORE_BASE_SET_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "core/influence_measure.h"
#include "core/label_sink.h"

namespace rnnhm {

/// Set of client ids in [0, universe) with O(1) add/remove/contains,
/// O(size) iteration, clearing, and copying.
class BaseSet {
 public:
  /// Creates an empty set over ids 0..universe-1.
  explicit BaseSet(int32_t universe);

  /// Number of elements.
  int32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// True iff id is in the set.
  bool Contains(int32_t id) const { return in_[id]; }

  /// Inserts id. No-op (with DCHECK) if already present.
  void Add(int32_t id);

  /// Removes id. No-op (with DCHECK) if absent.
  void Remove(int32_t id);

  /// Empties the set in O(size).
  void Clear();

  /// Replaces contents with `ids` in O(old size + |ids|).
  void Assign(std::span<const int32_t> ids);

  /// Appends the elements to `out` (cleared first); O(size). The order is
  /// the list order (insertion order), not sorted.
  void CopyTo(std::vector<int32_t>& out) const;

 private:
  static constexpr int32_t kNil = -1;

  int32_t universe_;
  int32_t head_ = kNil;
  int32_t size_ = 0;
  std::vector<int32_t> next_;
  std::vector<int32_t> prev_;
  std::vector<uint8_t> in_;
};

/// One region labeling as produced by a label state.
struct Labeling {
  std::span<const int32_t> rnn;  ///< the RNN set; empty for counts
  double influence = 0.0;
};

/// Label state over the full RNN set: the running BaseSet plus a copied
/// record per status element key. Add/Remove are O(|clients|); Save,
/// Restore and Label are O(lambda). Works for every measure and sink.
class SetLabelState {
 public:
  /// Client ids lie in [0, universe); record keys in [0, num_keys).
  SetLabelState(int32_t universe, size_t num_keys)
      : base_(universe), records_(num_keys), has_record_(num_keys, 0) {}

  void Clear() { base_.Clear(); }
  void Add(std::span<const int32_t> clients) {
    for (const int32_t c : clients) base_.Add(c);
  }
  void Remove(std::span<const int32_t> clients) {
    for (const int32_t c : clients) base_.Remove(c);
  }
  /// Caches the current set as the record of `key`.
  void Save(int32_t key) {
    base_.CopyTo(records_[key]);
    has_record_[key] = 1;
  }
  /// Resets the current set to the record of `key` (which must exist).
  void Restore(int32_t key) {
    RNNHM_DCHECK(has_record_[key]);
    base_.Assign(records_[key]);
  }
  /// Forgets the record of `key` (its element left the line status).
  void Drop(int32_t key) {
    has_record_[key] = 0;
    records_[key].clear();
  }
  /// Evaluates the current set; `rnn` stays valid until the next call.
  Labeling Label(const InfluenceMeasure& measure) {
    base_.CopyTo(scratch_);
    return Labeling{scratch_, measure.Evaluate(scratch_)};
  }
  /// Influence of the record of `key`.
  double RecordValue(int32_t key, const InfluenceMeasure& measure) const {
    return measure.Evaluate(records_[key]);
  }

 private:
  BaseSet base_;
  std::vector<std::vector<int32_t>> records_;
  std::vector<uint8_t> has_record_;
  std::vector<int32_t> scratch_;
};

/// Label state over |RNN set| only: a running count plus one integer
/// record per key, every operation O(1) per client. Exact when the
/// measure is the set size and the sink ignores sets (see
/// CountLabelsSuffice); labelings carry an empty `rnn` span.
class CountLabelState {
 public:
  CountLabelState(int32_t /*universe*/, size_t num_keys)
      : records_(num_keys, 0), has_record_(num_keys, 0) {}

  void Clear() { count_ = 0; }
  void Add(std::span<const int32_t> clients) {
    count_ += static_cast<int32_t>(clients.size());
  }
  void Remove(std::span<const int32_t> clients) {
    RNNHM_DCHECK(count_ >= static_cast<int32_t>(clients.size()));
    count_ -= static_cast<int32_t>(clients.size());
  }
  void Save(int32_t key) {
    records_[key] = count_;
    has_record_[key] = 1;
  }
  void Restore(int32_t key) {
    RNNHM_DCHECK(has_record_[key]);
    count_ = records_[key];
  }
  void Drop(int32_t key) { has_record_[key] = 0; }
  Labeling Label(const InfluenceMeasure&) const {
    return Labeling{{}, static_cast<double>(count_)};
  }
  double RecordValue(int32_t key, const InfluenceMeasure&) const {
    return static_cast<double>(records_[key]);
  }

 private:
  int32_t count_ = 0;
  std::vector<int32_t> records_;
  std::vector<uint8_t> has_record_;
};

/// True iff a sweep may run on CountLabelState: the measure is |S| and the
/// sink never looks at the sets, so counts yield the same influences and
/// the sink the same observable labelings.
inline bool CountLabelsSuffice(const InfluenceMeasure& measure,
                               const RegionLabelSink& sink) {
  return measure.IsSetSize() && !sink.reads_sets();
}

}  // namespace rnnhm

#endif  // RNNHM_CORE_BASE_SET_H_
