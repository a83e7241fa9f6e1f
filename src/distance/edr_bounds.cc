#include "distance/edr_bounds.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace wcop {

EdrBoundsProfile EdrBoundsProfile::Of(const Trajectory& t) {
  EdrBoundsProfile p;
  p.length = static_cast<uint32_t>(t.size());
  if (t.empty()) {
    return p;
  }
  p.min_x = p.max_x = t[0].x;
  p.min_y = p.max_y = t[0].y;
  p.min_t = p.max_t = t[0].t;
  p.sorted = true;
  for (size_t i = 1; i < t.size(); ++i) {
    const Point& pt = t[i];
    p.min_x = std::min(p.min_x, pt.x);
    p.max_x = std::max(p.max_x, pt.x);
    p.min_y = std::min(p.min_y, pt.y);
    p.max_y = std::max(p.max_y, pt.y);
    p.min_t = std::min(p.min_t, pt.t);
    p.max_t = std::max(p.max_t, pt.t);
    if (pt.t < t[i - 1].t) {
      p.sorted = false;
    }
  }
  return p;
}

bool EdrSeparated(const EdrBoundsProfile& a, const EdrBoundsProfile& b,
                  const EdrTolerance& tolerance) {
  if (a.length == 0 || b.length == 0) {
    return true;  // no matchable pair exists; EDR = max length exactly
  }
  return EdrBoxesSeparated(a, b, tolerance);
}

bool EdrBoxesSeparated(const XytBox& a, const XytBox& b,
                       const EdrTolerance& tolerance) {
  // An axis separates when even the closest pair of coordinates is farther
  // apart than the tolerance. The test takes the rounded difference that
  // EdrTolerance::Matches takes: for p in a and q in b, q - p >= b.min -
  // a.max, and rounding is monotone, so fl(q - p) > tol whenever
  // fl(b.min - a.max) > tol. (Comparing a.max + tol < b.min rounds the
  // other side and can separate a pair Matches accepts.) Infinite dt never
  // separates (x > inf is false), so no special case is needed.
  if (b.min_x - a.max_x > tolerance.dx || a.min_x - b.max_x > tolerance.dx) {
    return true;
  }
  if (b.min_y - a.max_y > tolerance.dy || a.min_y - b.max_y > tolerance.dy) {
    return true;
  }
  if (b.min_t - a.max_t > tolerance.dt || a.min_t - b.max_t > tolerance.dt) {
    return true;
  }
  return false;
}

uint32_t EdrLengthLowerBound(const EdrBoundsProfile& a,
                             const EdrBoundsProfile& b) {
  return a.length >= b.length ? a.length - b.length : b.length - a.length;
}

namespace {

/// The tree over the non-empty profiles, keyed by their positions.
BoxTree PackNonEmpty(const std::vector<EdrBoundsProfile>& profiles) {
  std::vector<uint32_t> ids;
  std::vector<XytBox> boxes;
  for (size_t i = 0; i < profiles.size(); ++i) {
    if (profiles[i].length > 0) {
      ids.push_back(static_cast<uint32_t>(i));
      boxes.push_back(profiles[i]);
    }
  }
  return BoxTree(ids, boxes);
}

}  // namespace

EdrReachIndex::EdrReachIndex(const std::vector<EdrBoundsProfile>& profiles)
    : profiles_(profiles), tree_(PackNonEmpty(profiles)) {}

size_t EdrReachIndex::Query(const EdrBoundsProfile& query,
                            const EdrTolerance& tolerance,
                            std::vector<size_t>* out) const {
  if (tree_.empty() || query.length == 0) {
    return 0;  // a length-0 query is separated from everything
  }
  const std::vector<BoxTree::Node>& nodes = tree_.nodes();
  const std::vector<uint32_t>& items = tree_.items();
  if (EdrBoxesSeparated(query, nodes[tree_.root()].box, tolerance)) {
    return 0;
  }
  size_t tested = 0;
  std::vector<uint32_t> stack{tree_.root()};
  while (!stack.empty()) {
    const BoxTree::Node& node = nodes[stack.back()];
    stack.pop_back();
    if (!node.leaf()) {
      for (uint32_t c = node.first; c < node.first + node.count; ++c) {
        if (!EdrBoxesSeparated(query, nodes[c].box, tolerance)) {
          stack.push_back(c);
        }
      }
      continue;
    }
    for (uint32_t c = node.begin; c < node.end; ++c) {
      ++tested;
      const uint32_t j = items[c];
      if (!EdrSeparated(query, profiles_[j], tolerance)) {
        out->push_back(j);
      }
    }
  }
  return tested;
}

namespace {

/// Sliding min/max over one coordinate of `other` as the time window
/// advances: a pair of monotonic deques (indices into `other`), amortized
/// O(1) per push/pop across the whole sweep.
class MinMaxWindow {
 public:
  void Reset(size_t capacity) {
    min_idx_.clear();
    max_idx_.clear();
    min_idx_.reserve(capacity);
    max_idx_.reserve(capacity);
    if (values_.size() < capacity) {
      values_.resize(capacity);
    }
    min_head_ = max_head_ = 0;
  }

  void Push(size_t idx, double value) {
    while (min_idx_.size() > min_head_ && values_at(min_idx_.back()) >= value) {
      min_idx_.pop_back();
    }
    while (max_idx_.size() > max_head_ && values_at(max_idx_.back()) <= value) {
      max_idx_.pop_back();
    }
    values_[idx] = value;
    min_idx_.push_back(idx);
    max_idx_.push_back(idx);
  }

  void EvictBelow(size_t lo) {
    while (min_head_ < min_idx_.size() && min_idx_[min_head_] < lo) {
      ++min_head_;
    }
    while (max_head_ < max_idx_.size() && max_idx_[max_head_] < lo) {
      ++max_head_;
    }
  }

  bool empty() const { return min_head_ >= min_idx_.size(); }
  double Min() const { return values_[min_idx_[min_head_]]; }
  double Max() const { return values_[max_idx_[max_head_]]; }

 private:
  double values_at(size_t idx) const { return values_[idx]; }

  std::vector<size_t> min_idx_;
  std::vector<size_t> max_idx_;
  std::vector<double> values_;
  size_t min_head_ = 0;
  size_t max_head_ = 0;
};

/// Number of points of `a` whose time window over `b` is non-empty and
/// whose coordinates fall inside the window's dilated bounding box — an
/// upper bound on how many points of `a` can participate in a match.
/// Requires both point sequences sorted by time. Window and box compare
/// the rounded differences EdrTolerance::Matches takes (b.t - a.t <= dt,
/// min - a.x <= dx, ...), so a pair Matches accepts is always counted.
uint32_t CountMatchable(const Trajectory& a, const Trajectory& b,
                        const EdrTolerance& tolerance) {
  const size_t n = a.size();
  const size_t m = b.size();
  thread_local MinMaxWindow win_x;
  thread_local MinMaxWindow win_y;
  win_x.Reset(m);
  win_y.Reset(m);
  uint32_t count = 0;
  size_t lo = 0;
  size_t hi = 0;
  for (size_t i = 0; i < n; ++i) {
    const Point& pa = a[i];
    while (hi < m && b[hi].t - pa.t <= tolerance.dt) {
      win_x.Push(hi, b[hi].x);
      win_y.Push(hi, b[hi].y);
      ++hi;
    }
    while (lo < hi && pa.t - b[lo].t > tolerance.dt) {
      ++lo;
    }
    win_x.EvictBelow(lo);
    win_y.EvictBelow(lo);
    if (lo < hi && win_x.Min() - pa.x <= tolerance.dx &&
        pa.x - win_x.Max() <= tolerance.dx &&
        win_y.Min() - pa.y <= tolerance.dy &&
        pa.y - win_y.Max() <= tolerance.dy) {
      ++count;
    }
  }
  return count;
}

}  // namespace

EdrEnvelopeBound EdrEnvelopeLowerBound(const Trajectory& a,
                                       const EdrBoundsProfile& pa,
                                       const Trajectory& b,
                                       const EdrBoundsProfile& pb,
                                       const EdrTolerance& tolerance) {
  EdrEnvelopeBound result;
  const uint32_t maxlen = std::max(pa.length, pb.length);
  const uint32_t minlen = std::min(pa.length, pb.length);
  if (minlen == 0) {
    result.bound = maxlen;
    result.exact = true;
    return result;
  }
  if (!pa.sorted || !pb.sorted) {
    result.bound = maxlen - minlen;  // weak but never wrong
    return result;
  }
  const uint32_t matchable_a = CountMatchable(a, b, tolerance);
  uint32_t m_ub = std::min(matchable_a, minlen);
  if (m_ub > 0) {
    m_ub = std::min(m_ub, CountMatchable(b, a, tolerance));
  }
  result.bound = maxlen - m_ub;
  result.exact = m_ub == 0;  // no match possible: all-substitution optimum
  return result;
}

}  // namespace wcop
