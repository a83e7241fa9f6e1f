// Property tests for the EDR lower-bound cascade and the bit-parallel
// kernel. The filter-and-refine distance engine is only sound if every
// bound really is a lower bound and the kernel agrees bit-for-bit with the
// reference scalar DP (tests/edr_oracle.h) — both are checked here over
// seeded random trajectories, over tolerances on the rounding boundary of
// a point pair's difference, and over the degenerate corners: empty,
// single-point, identical, fully separated, infinite dt, and zero
// tolerance. edr_test checks every length pair against the oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "distance/edr.h"
#include "distance/edr_bounds.h"
#include "distance/edr_kernel.h"
#include "edr_oracle.h"
#include "index/box_tree.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::EdrOpsScalar;
using testing_util::MakeLine;

EdrTolerance Tol(double dx, double dy, double dt) {
  EdrTolerance t;
  t.dx = dx;
  t.dy = dy;
  t.dt = dt;
  return t;
}

/// Random trajectory with increasing timestamps; lengths, spatial spread
/// and time steps are drawn so that some pairs overlap heavily, others
/// barely, and a few not at all.
Trajectory RandomTrajectory(Rng* rng, uint64_t id, size_t max_len,
                            double spread) {
  const size_t n = rng->UniformIndex(max_len + 1);
  std::vector<Point> pts;
  pts.reserve(n);
  double t = rng->UniformReal(0, 100);
  const double cx = rng->UniformReal(-spread, spread);
  const double cy = rng->UniformReal(-spread, spread);
  for (size_t i = 0; i < n; ++i) {
    pts.emplace_back(cx + rng->UniformReal(-spread / 4, spread / 4),
                     cy + rng->UniformReal(-spread / 4, spread / 4), t);
    t += rng->UniformReal(0.5, 20.0);
  }
  return Trajectory(id, std::move(pts));
}

EdrTolerance RandomTolerance(Rng* rng) {
  const double dt = (rng->UniformIndex(4) == 0)
                        ? std::numeric_limits<double>::infinity()
                        : rng->UniformReal(1.0, 200.0);
  return Tol(rng->UniformReal(0.5, 30.0), rng->UniformReal(0.5, 30.0), dt);
}

// ---------------------------------------------------------------------------
// Lower bounds never exceed the exact distance; certificates are exact.
// ---------------------------------------------------------------------------

TEST(EdrBoundsTest, EveryBoundIsALowerBoundOnRandomPairs) {
  Rng rng(2024);
  for (int round = 0; round < 400; ++round) {
    const Trajectory a = RandomTrajectory(&rng, 1, 40, 50.0);
    const Trajectory b = RandomTrajectory(&rng, 2, 40, 50.0);
    const EdrTolerance tol = RandomTolerance(&rng);
    const uint32_t exact = EdrOpsScalar(a, b, tol);
    const uint32_t maxlen =
        static_cast<uint32_t>(std::max(a.size(), b.size()));
    const EdrBoundsProfile pa = EdrBoundsProfile::Of(a);
    const EdrBoundsProfile pb = EdrBoundsProfile::Of(b);

    EXPECT_LE(EdrLengthLowerBound(pa, pb), exact) << "round " << round;

    if (EdrSeparated(pa, pb, tol)) {
      // Separation is not merely a bound: it pins the exact distance.
      EXPECT_EQ(exact, maxlen) << "round " << round;
    }
  }
}

TEST(EdrBoundsTest, BoundsRoundLikeMatches) {
  // fl(400.8692 - 75.982) <= dt, so Matches accepts the pair, while
  // 75.982 + dt rounds below 400.8692: a bound that compared sums instead
  // of differences called the pair separated and bounded the distance at 1.
  const Trajectory a(1, std::vector<Point>{Point(0, 0, 75.981999999999999)});
  const Trajectory b(2, std::vector<Point>{Point(0, 0, 400.86920000000003)});
  const EdrTolerance tol = Tol(1, 1, 324.88720000000001);
  ASSERT_TRUE(tol.Matches(a[0], b[0]));
  EXPECT_EQ(EdrOpsScalar(a, b, tol), 0u);
  EXPECT_EQ(EdrOps(a, b, tol), 0u);
  const EdrBoundsProfile pa = EdrBoundsProfile::Of(a);
  const EdrBoundsProfile pb = EdrBoundsProfile::Of(b);
  EXPECT_FALSE(EdrSeparated(pa, pb, tol));
  EXPECT_FALSE(EdrSeparated(pb, pa, tol));
}

/// A coordinate at millisecond (millimetre) resolution.
double Milli(Rng* rng, double lo, double hi) {
  return std::round(rng->UniformReal(lo, hi) * 1000.0) / 1000.0;
}

/// A tolerance on the boundary of |p - q|: the rounded difference or the
/// difference rounded to a millisecond, moved by up to two ulps.
double BoundaryTolerance(Rng* rng, double p, double q) {
  double tol = std::abs(q - p);
  if (rng->UniformIndex(2) == 0) {
    tol = std::round(tol * 1000.0) / 1000.0;
  }
  const int ulps = static_cast<int>(rng->UniformIndex(5)) - 2;
  for (int i = 0; i < std::abs(ulps); ++i) {
    tol = std::nextafter(tol, ulps > 0 ? 1e300 : 0.0);
  }
  return tol;
}

TEST(EdrBoundsTest, BoundaryTolerancesKeepEveryBoundSound) {
  // Short sorted trajectories at millisecond resolution, with tolerances
  // within two ulps of a point pair's difference on each axis: the cases
  // where comparing a.max + tol < b.min and |a - b| <= tol disagree.
  Rng rng(1173);
  for (int round = 0; round < 20000; ++round) {
    std::vector<Point> pa_pts, pb_pts;
    double ta = Milli(&rng, 0, 500);
    double tb = Milli(&rng, 0, 500);
    const size_t na = 1 + rng.UniformIndex(4);
    const size_t nb = 1 + rng.UniformIndex(4);
    for (size_t i = 0; i < na; ++i) {
      pa_pts.emplace_back(Milli(&rng, 0, 300), Milli(&rng, 0, 300), ta);
      ta += Milli(&rng, 0, 200);
    }
    for (size_t i = 0; i < nb; ++i) {
      pb_pts.emplace_back(Milli(&rng, 0, 300), Milli(&rng, 0, 300), tb);
      tb += Milli(&rng, 0, 200);
    }
    const Trajectory a(1, pa_pts), b(2, pb_pts);
    const Point& p = a[rng.UniformIndex(na)];
    const Point& q = b[rng.UniformIndex(nb)];
    const EdrTolerance tol =
        Tol(BoundaryTolerance(&rng, p.x, q.x),
            BoundaryTolerance(&rng, p.y, q.y),
            BoundaryTolerance(&rng, p.t, q.t));
    const uint32_t exact = EdrOpsScalar(a, b, tol);
    ASSERT_EQ(EdrOps(a, b, tol), exact) << "round " << round;
    const EdrBoundsProfile prof_a = EdrBoundsProfile::Of(a);
    const EdrBoundsProfile prof_b = EdrBoundsProfile::Of(b);
    if (EdrSeparated(prof_a, prof_b, tol)) {
      for (size_t i = 0; i < na; ++i) {
        for (size_t j = 0; j < nb; ++j) {
          ASSERT_FALSE(tol.Matches(a[i], b[j]))
              << "separated pair matches, round " << round;
        }
      }
    }
    ASSERT_LE(EdrLengthLowerBound(prof_a, prof_b), exact) << "round " << round;
  }
}

TEST(EdrBoundsTest, SeparationFiresOnDisjointGeometry) {
  // Far apart in space (tight dt irrelevant).
  const Trajectory a = MakeLine(1, 0, 0, 1, 0, 8);
  const Trajectory b = MakeLine(2, 10000, 10000, 1, 0, 12);
  const EdrBoundsProfile pa = EdrBoundsProfile::Of(a);
  const EdrBoundsProfile pb = EdrBoundsProfile::Of(b);
  EXPECT_TRUE(EdrSeparated(pa, pb, Tol(5, 5, 1e9)));
  EXPECT_EQ(EdrOpsScalar(a, b, Tol(5, 5, 1e9)), 12u);

  // Same place, hours apart in time: only finite dt separates.
  const Trajectory c = MakeLine(3, 0, 0, 1, 0, 8, 1.0, 0.0);
  const Trajectory e = MakeLine(4, 0, 0, 1, 0, 8, 1.0, 50000.0);
  const EdrBoundsProfile pc = EdrBoundsProfile::Of(c);
  const EdrBoundsProfile pe = EdrBoundsProfile::Of(e);
  EXPECT_TRUE(EdrSeparated(pc, pe, Tol(1e9, 1e9, 600)));
  EXPECT_FALSE(EdrSeparated(
      pc, pe, Tol(1e9, 1e9, std::numeric_limits<double>::infinity())));
}

TEST(EdrBoundsTest, CornersBehave) {
  const Trajectory empty;
  const Trajectory one(1, std::vector<Point>{Point(1, 2, 3)});
  const Trajectory line = MakeLine(2, 0, 0, 1, 0, 9);
  const EdrTolerance tol = Tol(1, 1, 1);
  const EdrBoundsProfile p_empty = EdrBoundsProfile::Of(empty);
  const EdrBoundsProfile p_one = EdrBoundsProfile::Of(one);
  const EdrBoundsProfile p_line = EdrBoundsProfile::Of(line);

  // Empty vs anything: bound = exact = other length.
  EXPECT_EQ(EdrLengthLowerBound(p_empty, p_line), 9u);
  EXPECT_EQ(EdrOpsScalar(empty, line, tol), 9u);
  EXPECT_TRUE(EdrSeparated(p_empty, p_line, tol));

  // Identical trajectories: every bound must be zero-compatible.
  EXPECT_EQ(EdrLengthLowerBound(p_line, p_line), 0u);
  EXPECT_FALSE(EdrSeparated(p_line, p_line, tol));
  EXPECT_EQ(EdrOpsScalar(line, line, tol), 0u);

  // Single points, matching and not.
  EXPECT_EQ(EdrOpsScalar(one, one, tol), 0u);
  const Trajectory far(3, std::vector<Point>{Point(100, 2, 3)});
  EXPECT_EQ(EdrOpsScalar(one, far, tol), 1u);
  EXPECT_TRUE(EdrSeparated(p_one, EdrBoundsProfile::Of(far), tol));
}

// ---------------------------------------------------------------------------
// Reach index: a query visits exactly the profiles it is not separated from.
// ---------------------------------------------------------------------------

/// Random box in a random tile of a `tiles` x `tiles` grid `spacing` apart,
/// within one day; `kind` 1 gives a zero-extent one-point box and 2 a
/// length-0 profile.
EdrBoundsProfile RandomBox(Rng* rng, int tiles, double spacing, int kind) {
  EdrBoundsProfile p;
  p.min_x = spacing * static_cast<double>(rng->UniformIndex(tiles)) +
            rng->UniformReal(0, 1000);
  p.min_y = spacing * static_cast<double>(rng->UniformIndex(tiles)) +
            rng->UniformReal(0, 1000);
  p.min_t = rng->UniformReal(0, 86400);
  if (kind == 1) {
    p.max_x = p.min_x;
    p.max_y = p.min_y;
    p.max_t = p.min_t;
    p.length = 1;
    return p;
  }
  p.max_x = p.min_x + rng->UniformReal(0, 300);
  p.max_y = p.min_y + rng->UniformReal(0, 300);
  p.max_t = p.min_t + rng->UniformReal(0, 3600);
  p.length = kind == 2 ? 0 : 2 + static_cast<uint32_t>(rng->UniformIndex(60));
  return p;
}

/// `n` profiles: mostly small boxes, with zero-extent one-point boxes,
/// length-0 profiles, exact duplicates and one box spanning every tile and
/// the whole day.
std::vector<EdrBoundsProfile> RandomProfiles(Rng* rng, size_t n, int tiles,
                                             double spacing) {
  std::vector<EdrBoundsProfile> profiles;
  for (size_t i = 0; i < n; ++i) {
    const int kind = static_cast<int>(rng->UniformIndex(10));
    if (kind == 3 && !profiles.empty()) {
      profiles.push_back(profiles[rng->UniformIndex(profiles.size())]);
    } else {
      profiles.push_back(RandomBox(rng, tiles, spacing, kind));
    }
  }
  if (n > 0) {
    EdrBoundsProfile& span = profiles[rng->UniformIndex(n)];
    span.min_x = span.min_y = span.min_t = 0.0;
    span.max_x = span.max_y = spacing * tiles;
    span.max_t = 90000.0;
    span.length = 500;
  }
  return profiles;
}

TEST(EdrReachIndexTest, QueryVisitsExactlyTheNonSeparatedProfiles) {
  Rng rng(4242);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<EdrTolerance> tolerances = {
      Tol(50, 50, 600), Tol(0, 0, 600), Tol(0, 0, inf), Tol(400, 20, inf),
      Tol(0, 0, 0)};
  for (size_t n : {0, 1, 2, 15, 16, 17, 256, 257, 1000, 5000}) {
    for (int tiles : {1, 4}) {
      const std::vector<EdrBoundsProfile> profiles =
          RandomProfiles(&rng, n, tiles, 1.0e5);
      const EdrReachIndex index(profiles);
      for (const EdrTolerance& tol : tolerances) {
        for (int q = 0; q < 40; ++q) {
          // Indexed profiles, fresh boxes of every kind, and length 0.
          const EdrBoundsProfile query =
              (n > 0 && q % 2 == 0)
                  ? profiles[rng.UniformIndex(n)]
                  : RandomBox(&rng, tiles, 1.0e5, q % 5 == 1 ? 2 : q % 3);
          std::vector<size_t> got;
          const size_t tested = index.Query(query, tol, &got);
          std::vector<size_t> expected;
          for (size_t j = 0; j < n; ++j) {
            if (profiles[j].length > 0 &&
                !EdrSeparated(query, profiles[j], tol)) {
              expected.push_back(j);
            }
          }
          std::sort(got.begin(), got.end());
          EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
              << "an item was visited twice";
          ASSERT_EQ(got, expected)
              << "n=" << n << " tiles=" << tiles << " query " << q;
          EXPECT_GE(tested, got.size());
        }
      }
    }
  }
}

TEST(EdrReachIndexTest, QueryCostFollowsTheReachSet) {
  // On far-apart tiles a point query must prune whole subtrees: the
  // candidates it tests stay a small multiple of the reach set, far below
  // the corpus.
  Rng rng(77);
  const size_t n = 16000;
  const std::vector<EdrBoundsProfile> profiles =
      RandomProfiles(&rng, n, 8, 1.0e5);
  const EdrReachIndex index(profiles);
  size_t tested = 0;
  size_t reached = 0;
  for (int q = 0; q < 200; ++q) {
    std::vector<size_t> got;
    tested += index.Query(RandomBox(&rng, 8, 1.0e5, 1), Tol(50, 50, 600),
                          &got);
    reached += got.size();
  }
  EXPECT_LT(tested, 200 * n / 20) << "reached " << reached;
}

// ---------------------------------------------------------------------------
// The shared packer: every subtree's items are one contiguous run its box
// covers, and a NaN bound reaches every ancestor.
// ---------------------------------------------------------------------------

bool Covers(const XytBox& outer, const XytBox& inner) {
  return outer.min_x <= inner.min_x && outer.max_x >= inner.max_x &&
         outer.min_y <= inner.min_y && outer.max_y >= inner.max_y &&
         outer.min_t <= inner.min_t && outer.max_t >= inner.max_t;
}

TEST(BoxTreeTest, SubtreesAreContiguousRunsTheirBoxesCover) {
  Rng rng(99);
  for (size_t n : {0, 1, 15, 16, 17, 256, 257, 4096, 20000}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<EdrBoundsProfile> profiles =
        RandomProfiles(&rng, n, 4, 1.0e5);
    std::vector<uint32_t> ids;
    std::vector<XytBox> boxes;
    for (size_t i = 0; i < n; ++i) {
      ids.push_back(static_cast<uint32_t>(3 * i + 1));  // any labels
      boxes.push_back(profiles[i]);
    }
    const BoxTree tree(ids, boxes);
    ASSERT_EQ(tree.empty(), n == 0);
    if (n == 0) {
      continue;
    }
    // The items are the ids, each once.
    std::vector<uint32_t> items = tree.items();
    std::sort(items.begin(), items.end());
    ASSERT_EQ(items, ids);
    const std::vector<BoxTree::Node>& nodes = tree.nodes();
    const BoxTree::Node& root = nodes[tree.root()];
    EXPECT_EQ(root.begin, 0u);
    EXPECT_EQ(root.end, n);
    size_t leaf_items = 0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      const BoxTree::Node& node = nodes[i];
      ASSERT_LT(node.begin, node.end);
      for (uint32_t p = node.begin; p < node.end; ++p) {
        ASSERT_TRUE(Covers(node.box, boxes[(tree.items()[p] - 1) / 3]));
      }
      if (node.leaf()) {
        EXPECT_LE(node.end - node.begin, BoxTree::kFanout);
        leaf_items += node.end - node.begin;
        continue;
      }
      // Children come first, are contiguous and tile the parent's run.
      EXPECT_LE(node.count, BoxTree::kFanout);
      uint32_t next = node.begin;
      for (uint32_t c = node.first; c < node.first + node.count; ++c) {
        ASSERT_LT(c, i);
        EXPECT_EQ(nodes[c].begin, next);
        EXPECT_TRUE(Covers(node.box, nodes[c].box));
        next = nodes[c].end;
      }
      EXPECT_EQ(next, node.end);
    }
    EXPECT_EQ(leaf_items, n);
    // leaves() tiles the items in order.
    uint32_t next = 0;
    for (uint32_t leaf : tree.leaves()) {
      ASSERT_TRUE(nodes[leaf].leaf());
      EXPECT_EQ(nodes[leaf].begin, next);
      next = nodes[leaf].end;
    }
    EXPECT_EQ(next, n);
    size_t height = 1;
    for (uint32_t c = tree.root(); !nodes[c].leaf(); c = nodes[c].first) {
      ++height;
    }
    EXPECT_EQ(tree.height(), height);
  }
}

TEST(BoxTreeTest, NaNBoundReachesTheRoot) {
  Rng rng(5);
  const std::vector<EdrBoundsProfile> profiles =
      RandomProfiles(&rng, 1000, 4, 1.0e5);
  std::vector<uint32_t> ids;
  std::vector<XytBox> boxes;
  for (size_t i = 0; i < profiles.size(); ++i) {
    ids.push_back(static_cast<uint32_t>(i));
    boxes.push_back(profiles[i]);
  }
  boxes[617].min_x = std::numeric_limits<double>::quiet_NaN();
  boxes[618].max_t = std::numeric_limits<double>::quiet_NaN();
  const BoxTree tree(ids, boxes);
  const XytBox& root = tree.nodes()[tree.root()].box;
  EXPECT_TRUE(std::isnan(root.min_x));
  EXPECT_TRUE(std::isnan(root.max_t));
  EXPECT_FALSE(std::isnan(root.max_x));
  EXPECT_FALSE(std::isnan(root.min_t));
}

// ---------------------------------------------------------------------------
// Kernel agreement: the bit-parallel kernel is bit-identical to the scalar DP.
// ---------------------------------------------------------------------------

TEST(EdrKernelTest, MatchesScalarOnRandomPairs) {
  Rng rng(99);
  for (int round = 0; round < 300; ++round) {
    const Trajectory a = RandomTrajectory(&rng, 1, 150, 40.0);
    const Trajectory b = RandomTrajectory(&rng, 2, 150, 40.0);
    const EdrTolerance tol = RandomTolerance(&rng);
    EXPECT_EQ(EdrOps(a, b, tol), EdrOpsScalar(a, b, tol)) << "round " << round;
    EXPECT_DOUBLE_EQ(EdrDistance(a, b, tol),
                     static_cast<double>(EdrOpsScalar(a, b, tol)))
        << "round " << round;
  }
}

TEST(EdrKernelTest, ZeroToleranceAndInfiniteDt) {
  // Zero spatial tolerance: only exactly coincident points match.
  const Trajectory a = MakeLine(1, 0, 0, 1, 0, 70);
  const Trajectory b = MakeLine(2, 0, 0, 1, 0, 70);
  const EdrTolerance zero = Tol(0, 0, 0);
  EXPECT_EQ(EdrOpsScalar(a, b, zero), 0u);
  EXPECT_EQ(EdrOps(a, b, zero), 0u);

  // Infinite dt: the time window covers every column.
  const EdrTolerance inf_dt =
      Tol(2, 2, std::numeric_limits<double>::infinity());
  EXPECT_EQ(EdrOps(a, b, inf_dt), EdrOpsScalar(a, b, inf_dt));
}

}  // namespace
}  // namespace wcop
