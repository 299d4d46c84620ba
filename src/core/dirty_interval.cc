#include "core/dirty_interval.h"

#include <algorithm>

#include "common/check.h"

namespace rnnhm {

void DirtyRegionSet::Add(double x_lo, double x_hi, double y_lo, double y_hi) {
  RNNHM_CHECK_MSG(x_lo <= x_hi && y_lo <= y_hi,
                  "dirty rect needs lo <= hi on both axes");
  // Absorb into the last rect when the x-ranges overlap, so long runs of
  // edits in one neighborhood stay O(1) per edit without a merge pass.
  if (!rects_.empty()) {
    DirtyRect& last = rects_.back();
    if (x_lo >= last.x.lo && x_lo <= last.x.hi) {
      last.x.hi = std::max(last.x.hi, x_hi);
      last.y.lo = std::min(last.y.lo, y_lo);
      last.y.hi = std::max(last.y.hi, y_hi);
      return;
    }
  }
  rects_.push_back(DirtyRect{{x_lo, x_hi}, {y_lo, y_hi}});
  merged_ = false;
}

void DirtyRegionSet::AddRect(const Rect& bounds) {
  Add(bounds.lo.x, bounds.hi.x, bounds.lo.y, bounds.hi.y);
}

const std::vector<DirtyRect>& DirtyRegionSet::Merged() const {
  if (merged_ || rects_.size() <= 1) {
    merged_ = true;
    return rects_;
  }
  std::sort(rects_.begin(), rects_.end(),
            [](const DirtyRect& a, const DirtyRect& b) {
              return a.x.lo < b.x.lo ||
                     (a.x.lo == b.x.lo && a.x.hi < b.x.hi);
            });
  size_t out = 0;
  for (size_t i = 1; i < rects_.size(); ++i) {
    if (rects_[i].x.lo <= rects_[out].x.hi) {
      rects_[out].x.hi = std::max(rects_[out].x.hi, rects_[i].x.hi);
      rects_[out].y.lo = std::min(rects_[out].y.lo, rects_[i].y.lo);
      rects_[out].y.hi = std::max(rects_[out].y.hi, rects_[i].y.hi);
    } else {
      rects_[++out] = rects_[i];
    }
  }
  rects_.resize(out + 1);
  merged_ = true;
  return rects_;
}

void DirtyRegionSet::Clear() {
  rects_.clear();
  merged_ = true;
}

}  // namespace rnnhm
