#ifndef WCOP_INDEX_BOX_TREE_H_
#define WCOP_INDEX_BOX_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wcop {

/// Axis-aligned box in (x, y, t).
struct XytBox {
  double min_x = 0.0;
  double max_x = 0.0;
  double min_y = 0.0;
  double max_y = 0.0;
  double min_t = 0.0;
  double max_t = 0.0;
};

/// Static (x, y, t) box tree, bulk-loaded once with Sort-Tile-Recursive
/// packing: the items are sorted by box center on x, cut into x-slabs of
/// whole kFanout-sized groups, each x-slab sorted on y and cut into
/// y-slabs, each y-slab sorted on t and cut into leaves of kFanout; each
/// upper level packs the level below the same way until one root remains.
/// The one packer behind EdrReachIndex (clustering) and the audit join
/// (attack/candidate_source.h).
///
/// A node box is the plain union of its children's boxes, so any test
/// that is monotone in the box (a rounded min/max, subtraction, sqrt or
/// sum over its bounds) never rejects a node holding an item it would
/// keep. A NaN bound propagates to every ancestor, where a comparison
/// against it is false: a node over a corrupt item is never pruned on
/// that axis either.
///
/// Leaves are laid out in depth-first order, so the items under any node
/// are one contiguous run items()[begin, end), and leaves() lists the
/// leaves in item order.
class BoxTree {
 public:
  static constexpr size_t kFanout = 16;

  struct Node {
    XytBox box;          ///< union of the children's boxes
    uint32_t first = 0;  ///< inner node: first child in nodes()
    uint32_t count = 0;  ///< inner node: child count; 0 for a leaf
    uint32_t begin = 0;  ///< the subtree's items are items()[begin, end)
    uint32_t end = 0;

    bool leaf() const { return count == 0; }
  };

  BoxTree() = default;

  /// Packs item `ids[i]` with box `boxes[i]`, for every position i of
  /// `ids`; the two vectors have the same length. Sort ties break on the
  /// position, so the tree is a function of the ids and their boxes alone.
  BoxTree(const std::vector<uint32_t>& ids, const std::vector<XytBox>& boxes);

  bool empty() const { return nodes_.empty(); }
  /// Index of the root in nodes(); the tree must not be empty.
  uint32_t root() const { return static_cast<uint32_t>(nodes_.size() - 1); }
  /// Every node, level by level from the leaves up, root last: a child's
  /// index is always below its parent's.
  const std::vector<Node>& nodes() const { return nodes_; }
  /// The item ids in leaf order.
  const std::vector<uint32_t>& items() const { return items_; }
  /// Indices in nodes() of the leaves, in item order.
  const std::vector<uint32_t>& leaves() const { return leaves_; }
  /// Nodes on a root-to-leaf path (1 when the root is a leaf).
  size_t height() const { return height_; }

 private:
  std::vector<uint32_t> items_;
  std::vector<Node> nodes_;
  std::vector<uint32_t> leaves_;
  size_t height_ = 0;
};

}  // namespace wcop

#endif  // WCOP_INDEX_BOX_TREE_H_
