#ifndef WCOP_DISTANCE_EDR_BOUNDS_H_
#define WCOP_DISTANCE_EDR_BOUNDS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "distance/edr.h"
#include "index/box_tree.h"
#include "traj/trajectory.h"

namespace wcop {

/// Precomputed per-trajectory summary powering the EDR lower-bound cascade:
/// the (x, y, t) box of the points and their number. Neither bound reads
/// the point order, so unsorted timestamps cannot make either one wrong.
struct EdrBoundsProfile : XytBox {
  uint32_t length = 0;

  static EdrBoundsProfile Of(const Trajectory& t);
};

/// Separation certificate: when the two MBRs are farther apart than the
/// matching tolerance on *any* axis (dx for x, dy for y, dt for t; tested
/// as b.min - a.max > tol, the rounded difference EdrTolerance::Matches
/// takes), no point of `a` can match any point of `b`.
/// Every alignment then costs exactly max(|a|,|b|) operations (substitute
/// min(|a|,|b|) pairs, delete the rest), so the EDR is not merely bounded —
/// it is known: EDR(a, b) = max(|a|, |b|). Degenerate profiles (length 0)
/// report separated, which keeps the same identity (EDR = other length).
bool EdrSeparated(const EdrBoundsProfile& a, const EdrBoundsProfile& b,
                  const EdrTolerance& tolerance);

/// The axis test of EdrSeparated alone, on two boxes of any length: the
/// reach index prunes a node by calling it on the node box.
bool EdrBoxesSeparated(const XytBox& a, const XytBox& b,
                       const EdrTolerance& tolerance);

/// Static (x, y, t) index over a set of profiles whose query returns
/// *exactly* the profiles not EdrSeparated from the query profile — the
/// candidates with which at least one point pair could match.
///
/// Bulk-loaded once into a BoxTree (index/box_tree.h, Sort-Tile-Recursive
/// packing, fanout kFanout); length-0 profiles are not indexed (they are
/// separated from everything). Node boxes are the plain union of their
/// children's boxes, and a node is pruned by EdrBoxesSeparated, the axis
/// test of EdrSeparated itself, so the tolerance enters only the
/// arithmetic of the test, never a stored box. Floating-point subtraction
/// is monotone, so a node holding a non-separated member is never pruned,
/// and dt = infinity needs no special case.
class EdrReachIndex {
 public:
  static constexpr size_t kFanout = BoxTree::kFanout;

  /// Indexes every non-empty profile of `profiles` by its position. The
  /// vector is referenced, not copied: it must outlive the index and stay
  /// unchanged.
  explicit EdrReachIndex(const std::vector<EdrBoundsProfile>& profiles);

  /// Appends to `out`, each once and in unspecified order, every indexed j
  /// with !EdrSeparated(query, profiles[j], tolerance). Returns the number
  /// of indexed profiles tested (the candidates scanned in the leaves the
  /// query reaches; node boxes are not counted).
  size_t Query(const EdrBoundsProfile& query, const EdrTolerance& tolerance,
               std::vector<size_t>* out) const;

 private:
  const std::vector<EdrBoundsProfile>& profiles_;
  BoxTree tree_;  ///< items are the indexed profiles' positions
};

/// The PR-4 length bound: every alignment deletes/creates >= ||a|-|b||
/// points, so EDR >= ||a|-|b||. O(1) from the profiles.
uint32_t EdrLengthLowerBound(const EdrBoundsProfile& a,
                             const EdrBoundsProfile& b);

}  // namespace wcop

#endif  // WCOP_DISTANCE_EDR_BOUNDS_H_
