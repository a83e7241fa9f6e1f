#include "index/box_tree.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace wcop {

namespace {

/// Box center on axis 0 (x), 1 (y) or 2 (t); only orders the bulk load, so
/// a NaN (from infinite extents) is mapped to 0 to keep the sort's ordering
/// strict-weak.
double Center(const XytBox& b, int axis) {
  double c;
  if (axis == 0) {
    c = 0.5 * b.min_x + 0.5 * b.max_x;
  } else if (axis == 1) {
    c = 0.5 * b.min_y + 0.5 * b.max_y;
  } else {
    c = 0.5 * b.min_t + 0.5 * b.max_t;
  }
  return std::isnan(c) ? 0.0 : c;
}

/// A position and its box's centers on x, y and t. The sort moves the
/// keys with the position instead of looking each box up per comparison.
struct Keyed {
  double center[3];
  uint32_t pos;
};

/// Sort-Tile-Recursive order of `a[0, n)`: sorted by center on `axis`,
/// cut into slabs of whole kFanout-sized groups (about
/// groups^(1/remaining axes) slabs), each slab ordered on the next axis.
/// Consecutive runs of kFanout items are then compact in (x, y, t).
void StrSort(Keyed* a, size_t n, int axis) {
  std::sort(a, a + n, [axis](const Keyed& x, const Keyed& y) {
    return x.center[axis] != y.center[axis] ? x.center[axis] < y.center[axis]
                                            : x.pos < y.pos;
  });
  if (axis == 2) {
    return;
  }
  constexpr size_t kFanout = BoxTree::kFanout;
  const size_t groups = (n + kFanout - 1) / kFanout;
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
  for (size_t b = 0; b < n; b += per_slab) {
    StrSort(a + b, std::min(per_slab, n - b), axis + 1);
  }
}

/// Positions 0..n-1 in Sort-Tile-Recursive order of the boxes
/// `box_at(position)`.
template <typename BoxAt>
std::vector<uint32_t> StrOrder(size_t n, const BoxAt& box_at) {
  std::vector<Keyed> keyed(n);
  for (size_t i = 0; i < n; ++i) {
    for (int axis = 0; axis < 3; ++axis) {
      keyed[i].center[axis] = Center(box_at(i), axis);
    }
    keyed[i].pos = static_cast<uint32_t>(i);
  }
  StrSort(keyed.data(), n, 0);
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = keyed[i].pos;
  }
  return order;
}

/// min / max that keep a NaN from either side.
double Lower(double a, double b) { return std::isnan(b) ? b : std::min(a, b); }
double Upper(double a, double b) { return std::isnan(b) ? b : std::max(a, b); }

/// Grows `box` to cover `b`.
void Cover(XytBox* box, const XytBox& b) {
  box->min_x = Lower(box->min_x, b.min_x);
  box->max_x = Upper(box->max_x, b.max_x);
  box->min_y = Lower(box->min_y, b.min_y);
  box->max_y = Upper(box->max_y, b.max_y);
  box->min_t = Lower(box->min_t, b.min_t);
  box->max_t = Upper(box->max_t, b.max_t);
}

}  // namespace

BoxTree::BoxTree(const std::vector<uint32_t>& ids,
                 const std::vector<XytBox>& boxes) {
  const size_t n = ids.size();
  if (n == 0) {
    return;
  }
  const std::vector<uint32_t> order =
      StrOrder(n, [&boxes](size_t i) -> const XytBox& { return boxes[i]; });

  // Leaves: consecutive runs of kFanout; begin/end index `order` until the
  // depth-first relayout below.
  std::vector<Node> level;
  for (size_t b = 0; b < n; b += kFanout) {
    const size_t e = std::min(b + kFanout, n);
    Node leaf;
    leaf.box = boxes[order[b]];
    for (size_t c = b + 1; c < e; ++c) {
      Cover(&leaf.box, boxes[order[c]]);
    }
    leaf.begin = static_cast<uint32_t>(b);
    leaf.end = static_cast<uint32_t>(e);
    level.push_back(leaf);
  }
  height_ = 1;
  // Upper levels: STR-order each level's nodes, store them contiguously,
  // and group consecutive runs under parents until one root remains.
  while (level.size() > 1) {
    const std::vector<uint32_t> node_order = StrOrder(
        level.size(),
        [&level](size_t i) -> const XytBox& { return level[i].box; });
    const size_t base = nodes_.size();
    for (uint32_t i : node_order) {
      nodes_.push_back(level[i]);
    }
    std::vector<Node> parents;
    for (size_t b = 0; b < node_order.size(); b += kFanout) {
      const size_t e = std::min(b + kFanout, node_order.size());
      Node parent;
      parent.box = nodes_[base + b].box;
      for (size_t c = b + 1; c < e; ++c) {
        Cover(&parent.box, nodes_[base + c].box);
      }
      parent.first = static_cast<uint32_t>(base + b);
      parent.count = static_cast<uint32_t>(e - b);
      parents.push_back(parent);
    }
    level = std::move(parents);
    ++height_;
  }
  nodes_.push_back(level.front());

  // Depth-first relayout: leaves take their items in visiting order, so
  // every subtree's items are contiguous; then each inner node spans its
  // first child's begin to its last child's end (children come first in
  // nodes_).
  items_.reserve(n);
  std::vector<uint32_t> stack{root()};
  while (!stack.empty()) {
    const uint32_t index = stack.back();
    stack.pop_back();
    Node& node = nodes_[index];
    if (!node.leaf()) {
      for (uint32_t c = node.first + node.count; c > node.first; --c) {
        stack.push_back(c - 1);
      }
      continue;
    }
    const uint32_t begin = static_cast<uint32_t>(items_.size());
    for (uint32_t o = node.begin; o < node.end; ++o) {
      items_.push_back(ids[order[o]]);
    }
    node.begin = begin;
    node.end = static_cast<uint32_t>(items_.size());
    leaves_.push_back(index);
  }
  for (Node& node : nodes_) {
    if (!node.leaf()) {
      node.begin = nodes_[node.first].begin;
      node.end = nodes_[node.first + node.count - 1].end;
    }
  }
}

}  // namespace wcop
