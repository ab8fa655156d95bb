#include "layout/dist_delta.h"

#include <algorithm>

namespace mc::layout {

void DistDelta::add(Index lo, Index hi) {
  if (hi <= lo) return;
  if (!dirty_ && !iv_.empty()) {
    LinInterval& tail = iv_.back();
    if (lo >= tail.lo) {
      // Common in-order case: extend or append without re-sorting.
      if (lo <= tail.hi) {
        tail.hi = std::max(tail.hi, hi);
        return;
      }
      iv_.push_back({lo, hi});
      return;
    }
    dirty_ = true;
  }
  iv_.push_back({lo, hi});
}

void DistDelta::addRun(Index lin, Index count, Index stride) {
  if (count <= 0) return;
  if (count == 1 || stride == 0) {
    add(lin, lin + 1);
    return;
  }
  if (stride == 1) {
    add(lin, lin + count);
    return;
  }
  for (Index k = 0; k < count; ++k) add(lin + k * stride, lin + k * stride + 1);
}

void DistDelta::unionWith(const DistDelta& other) {
  other.ensureNormalized();
  for (const LinInterval& iv : other.iv_) add(iv.lo, iv.hi);
}

const std::vector<LinInterval>& DistDelta::intervals() const {
  ensureNormalized();
  return iv_;
}

Index DistDelta::migratedElements() const {
  ensureNormalized();
  Index n = 0;
  for (const LinInterval& iv : iv_) n += iv.hi - iv.lo;
  return n;
}

bool DistDelta::contains(Index pos) const {
  ensureNormalized();
  auto it = std::upper_bound(
      iv_.begin(), iv_.end(), pos,
      [](Index p, const LinInterval& iv) { return p < iv.lo; });
  return it != iv_.begin() && pos < std::prev(it)->hi;
}

void DistDelta::ensureNormalized() const {
  if (!dirty_) return;
  std::sort(iv_.begin(), iv_.end(),
            [](const LinInterval& a, const LinInterval& b) {
              return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
            });
  std::vector<LinInterval> merged;
  merged.reserve(iv_.size());
  for (const LinInterval& iv : iv_) {
    if (!merged.empty() && iv.lo <= merged.back().hi) {
      merged.back().hi = std::max(merged.back().hi, iv.hi);
    } else {
      merged.push_back(iv);
    }
  }
  iv_ = std::move(merged);
  dirty_ = false;
}

}  // namespace mc::layout
