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
  // An axis separates when even the closest pair of coordinates is farther
  // apart than the tolerance. Infinite dt never separates (inf < x is
  // false), so no special case is needed.
  if (a.max_x + tolerance.dx < b.min_x || b.max_x + tolerance.dx < a.min_x) {
    return true;
  }
  if (a.max_y + tolerance.dy < b.min_y || b.max_y + tolerance.dy < a.min_y) {
    return true;
  }
  if (a.max_t + tolerance.dt < b.min_t || b.max_t + tolerance.dt < a.min_t) {
    return true;
  }
  return false;
}

uint32_t EdrLengthLowerBound(const EdrBoundsProfile& a,
                             const EdrBoundsProfile& b) {
  return a.length >= b.length ? a.length - b.length : b.length - a.length;
}

namespace {

/// Box center on axis 0 (x), 1 (y) or 2 (t); only orders the bulk load, so
/// a NaN (from infinite extents) is mapped to 0 to keep the sort's ordering
/// strict-weak.
double Center(const EdrBoundsProfile& p, int axis) {
  double c;
  if (axis == 0) {
    c = 0.5 * p.min_x + 0.5 * p.max_x;
  } else if (axis == 1) {
    c = 0.5 * p.min_y + 0.5 * p.max_y;
  } else {
    c = 0.5 * p.min_t + 0.5 * p.max_t;
  }
  return std::isnan(c) ? 0.0 : c;
}

/// Sort-Tile-Recursive order of `ids[begin, end)`: sorted by center on
/// `axis`, cut into slabs of whole kFanout-sized groups (about
/// groups^(1/remaining axes) slabs), each slab ordered on the next axis.
/// Consecutive runs of kFanout ids are then compact in (x, y, t).
template <typename CenterFn>
void StrOrder(std::vector<uint32_t>* ids, size_t begin, size_t end, int axis,
              const CenterFn& center) {
  std::sort(ids->begin() + begin, ids->begin() + end,
            [&](uint32_t a, uint32_t b) {
              const double ca = center(a, axis);
              const double cb = center(b, axis);
              return ca != cb ? ca < cb : a < b;
            });
  if (axis == 2) {
    return;
  }
  constexpr size_t kFanout = EdrReachIndex::kFanout;
  const size_t groups = (end - begin + kFanout - 1) / kFanout;
  size_t slabs = 1;
  for (;;) {
    size_t power = slabs;
    for (int d = axis + 1; d < 3; ++d) {
      power *= slabs;
    }
    if (power >= groups) {
      break;
    }
    ++slabs;
  }
  const size_t per_slab = (groups + slabs - 1) / slabs * kFanout;
  for (size_t b = begin; b < end; b += per_slab) {
    StrOrder(ids, b, std::min(b + per_slab, end), axis + 1, center);
  }
}

/// Grows `box` to cover `p`.
void Cover(EdrBoundsProfile* box, const EdrBoundsProfile& p) {
  box->min_x = std::min(box->min_x, p.min_x);
  box->max_x = std::max(box->max_x, p.max_x);
  box->min_y = std::min(box->min_y, p.min_y);
  box->max_y = std::max(box->max_y, p.max_y);
  box->min_t = std::min(box->min_t, p.min_t);
  box->max_t = std::max(box->max_t, p.max_t);
}

}  // namespace

EdrReachIndex::EdrReachIndex(const std::vector<EdrBoundsProfile>& profiles)
    : profiles_(profiles) {
  for (size_t i = 0; i < profiles.size(); ++i) {
    if (profiles[i].length > 0) {
      items_.push_back(static_cast<uint32_t>(i));
    }
  }
  if (items_.empty()) {
    return;
  }
  StrOrder(&items_, 0, items_.size(), 0, [&](uint32_t i, int axis) {
    return Center(profiles[i], axis);
  });
  // A node box must not look empty to EdrSeparated, whatever it covers.
  auto node_over = [](const EdrBoundsProfile& first) {
    Node node;
    node.box = first;
    node.box.length = 1;
    return node;
  };
  std::vector<Node> level;
  for (size_t b = 0; b < items_.size(); b += kFanout) {
    const size_t e = std::min(b + kFanout, items_.size());
    Node leaf = node_over(profiles[items_[b]]);
    for (size_t c = b + 1; c < e; ++c) {
      Cover(&leaf.box, profiles[items_[c]]);
    }
    leaf.first = static_cast<uint32_t>(b);
    leaf.count = static_cast<uint32_t>(e - b);
    leaf.leaf = true;
    level.push_back(leaf);
  }
  // Upper levels: STR-order each level's nodes, store them contiguously,
  // and group consecutive runs under parents until one root remains.
  while (level.size() > 1) {
    std::vector<uint32_t> order(level.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<uint32_t>(i);
    }
    StrOrder(&order, 0, order.size(), 0, [&](uint32_t i, int axis) {
      return Center(level[i].box, axis);
    });
    const size_t base = nodes_.size();
    for (uint32_t i : order) {
      nodes_.push_back(level[i]);
    }
    std::vector<Node> parents;
    for (size_t b = 0; b < order.size(); b += kFanout) {
      const size_t e = std::min(b + kFanout, order.size());
      Node parent = node_over(nodes_[base + b].box);
      for (size_t c = b + 1; c < e; ++c) {
        Cover(&parent.box, nodes_[base + c].box);
      }
      parent.first = static_cast<uint32_t>(base + b);
      parent.count = static_cast<uint32_t>(e - b);
      parents.push_back(parent);
    }
    level = std::move(parents);
  }
  nodes_.push_back(level.front());
}

size_t EdrReachIndex::Query(const EdrBoundsProfile& query,
                            const EdrTolerance& tolerance,
                            std::vector<size_t>* out) const {
  if (nodes_.empty() || query.length == 0) {
    return 0;  // a length-0 query is separated from everything
  }
  const uint32_t root = static_cast<uint32_t>(nodes_.size() - 1);
  if (EdrSeparated(query, nodes_[root].box, tolerance)) {
    return 0;
  }
  size_t tested = 0;
  std::vector<uint32_t> stack{root};
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    for (uint32_t c = node.first; c < node.first + node.count; ++c) {
      if (!node.leaf) {
        if (!EdrSeparated(query, nodes_[c].box, tolerance)) {
          stack.push_back(c);
        }
        continue;
      }
      ++tested;
      const uint32_t j = items_[c];
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
/// Requires both point sequences sorted by time.
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
    while (hi < m && b[hi].t <= pa.t + tolerance.dt) {
      win_x.Push(hi, b[hi].x);
      win_y.Push(hi, b[hi].y);
      ++hi;
    }
    while (lo < hi && b[lo].t < pa.t - tolerance.dt) {
      ++lo;
    }
    win_x.EvictBelow(lo);
    win_y.EvictBelow(lo);
    if (lo < hi && pa.x >= win_x.Min() - tolerance.dx &&
        pa.x <= win_x.Max() + tolerance.dx &&
        pa.y >= win_y.Min() - tolerance.dy &&
        pa.y <= win_y.Max() + tolerance.dy) {
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
