#include "distance/edr_bounds.h"

#include <algorithm>
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
  for (size_t i = 1; i < t.size(); ++i) {
    const Point& pt = t[i];
    p.min_x = std::min(p.min_x, pt.x);
    p.max_x = std::max(p.max_x, pt.x);
    p.min_y = std::min(p.min_y, pt.y);
    p.max_y = std::max(p.max_y, pt.y);
    p.min_t = std::min(p.min_t, pt.t);
    p.max_t = std::max(p.max_t, pt.t);
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

}  // namespace wcop
