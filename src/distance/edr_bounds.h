#ifndef WCOP_DISTANCE_EDR_BOUNDS_H_
#define WCOP_DISTANCE_EDR_BOUNDS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "distance/edr.h"
#include "traj/trajectory.h"

namespace wcop {

/// Precomputed per-trajectory summary powering the EDR lower-bound cascade:
/// spatial MBR, temporal extent, length, and whether the timestamps are
/// sorted (Trajectory::Validate guarantees strictly increasing times, but
/// the bounds never *assume* it — unsorted inputs degrade to the length
/// bound instead of returning a wrong certificate).
struct EdrBoundsProfile {
  double min_x = 0.0;
  double max_x = 0.0;
  double min_y = 0.0;
  double max_y = 0.0;
  double min_t = 0.0;
  double max_t = 0.0;
  uint32_t length = 0;
  bool sorted = false;  ///< timestamps non-decreasing (envelope usable)

  static EdrBoundsProfile Of(const Trajectory& t);
};

/// Separation certificate: when the two MBRs, dilated by the matching
/// tolerance on the corresponding axis (dx for x, dy for y, dt for t), are
/// disjoint on *any* axis, no point of `a` can match any point of `b`.
/// Every alignment then costs exactly max(|a|,|b|) operations (substitute
/// min(|a|,|b|) pairs, delete the rest), so the EDR is not merely bounded —
/// it is known: EDR(a, b) = max(|a|, |b|). Degenerate profiles (length 0)
/// report separated, which keeps the same identity (EDR = other length).
bool EdrSeparated(const EdrBoundsProfile& a, const EdrBoundsProfile& b,
                  const EdrTolerance& tolerance);

/// Static (x, y, t) index over a set of profiles whose query returns
/// *exactly* the profiles not EdrSeparated from the query profile — the
/// candidates with which at least one point pair could match.
///
/// Bulk-loaded once with Sort-Tile-Recursive packing into a multi-level
/// tree of fanout kFanout; length-0 profiles are not indexed (they are
/// separated from everything). Node boxes are the plain union of their
/// children's boxes, and a node is pruned by calling EdrSeparated itself
/// on the node box (with a nonzero length), so the tolerance dilates only
/// the arithmetic of the test, never a stored box. Floating-point
/// addition is monotone, so a node holding a non-separated member is never
/// pruned, and dt = infinity needs no special case.
class EdrReachIndex {
 public:
  static constexpr size_t kFanout = 16;

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
  struct Node {
    EdrBoundsProfile box;  ///< union of the children; length is 1
    uint32_t first = 0;    ///< first child in items_ (leaf) or nodes_
    uint32_t count = 0;
    bool leaf = false;
  };

  const std::vector<EdrBoundsProfile>& profiles_;
  std::vector<uint32_t> items_;  ///< indexed profiles, in leaf order
  std::vector<Node> nodes_;      ///< level by level, root last
};

/// The PR-4 length bound: every alignment deletes/creates >= ||a|-|b||
/// points, so EDR >= ||a|-|b||. O(1) from the profiles.
uint32_t EdrLengthLowerBound(const EdrBoundsProfile& a,
                             const EdrBoundsProfile& b);

/// Result of the envelope bound. `bound` is a certified lower bound on the
/// EDR op count; `exact` is true when the bound is additionally known to be
/// the exact distance (zero matchable points on one side forces the
/// all-substitution alignment, cost max(|a|,|b|)).
struct EdrEnvelopeBound {
  uint32_t bound = 0;
  bool exact = false;
};

/// Keogh-style envelope bound adapted to the EDR tolerance triple.
///
/// Let M be the number of matched pairs in an optimal alignment and S the
/// substitutions. Matches and substitutions each consume one point from
/// both sides, so M + S <= min(n, m), and the cost n + m - 2M - S can be
/// rewritten as (n + m - M - (M + S)) >= max(n, m) - M. Any upper bound
/// M_ub on the achievable matches therefore certifies
/// EDR >= max(n, m) - M_ub.
///
/// M_ub here counts, per side, the points that could match *anything* on
/// the other side: point p matches only inside its time window
/// [p.t - dt, p.t + dt], and within that window only if p's coordinates
/// fall inside the window's bounding box dilated by (dx, dy). Both sides'
/// counts are computed in O(n + m) with a two-pointer sweep and monotonic
/// min/max deques over the other trajectory, and
/// M_ub = min(count_a, count_b, min(n, m)).
///
/// Falls back to the plain length bound (never wrong, just weak) when
/// either profile reports unsorted timestamps.
EdrEnvelopeBound EdrEnvelopeLowerBound(const Trajectory& a,
                                       const EdrBoundsProfile& pa,
                                       const Trajectory& b,
                                       const EdrBoundsProfile& pb,
                                       const EdrTolerance& tolerance);

}  // namespace wcop

#endif  // WCOP_DISTANCE_EDR_BOUNDS_H_
