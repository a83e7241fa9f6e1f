// Property tests for the EDR lower-bound cascade and the vectorized DP
// kernels. The filter-and-refine distance engine is only sound if every
// bound really is a lower bound and every kernel agrees bit-for-bit with
// the reference scalar DP — both are checked here over seeded random
// trajectories (including multi-word lengths for the bit-parallel kernel)
// and over the degenerate corners: empty, single-point, identical, fully
// separated, infinite dt, and zero tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "distance/edr.h"
#include "distance/edr_bounds.h"
#include "distance/edr_kernel.h"
#include "test_util.h"

namespace wcop {
namespace {

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

    const EdrEnvelopeBound env = EdrEnvelopeLowerBound(a, pa, b, pb, tol);
    EXPECT_LE(env.bound, exact) << "round " << round;
    if (env.exact) {
      EXPECT_EQ(env.bound, exact) << "round " << round;
    }
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

TEST(EdrBoundsTest, EnvelopeIsExactWhenNothingMatches) {
  // Interleaved in time but spatially disjoint: separation fires on the
  // spatial axis *and* the envelope independently certifies zero matches.
  const Trajectory a = MakeLine(1, 0, 0, 1, 0, 10);
  const Trajectory b = MakeLine(2, 5000, 0, 1, 0, 6);
  const EdrBoundsProfile pa = EdrBoundsProfile::Of(a);
  const EdrBoundsProfile pb = EdrBoundsProfile::Of(b);
  const EdrTolerance tol = Tol(2, 2, 3);
  const EdrEnvelopeBound env = EdrEnvelopeLowerBound(a, pa, b, pb, tol);
  EXPECT_TRUE(env.exact);
  EXPECT_EQ(env.bound, 10u);
  EXPECT_EQ(EdrOpsScalar(a, b, tol), 10u);
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
  const EdrEnvelopeBound env =
      EdrEnvelopeLowerBound(line, p_line, line, p_line, tol);
  EXPECT_LE(env.bound, EdrOpsScalar(line, line, tol));
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
  p.sorted = true;
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
// Kernel agreement: bit-parallel and the dispatch are bit-identical to scalar.
// ---------------------------------------------------------------------------

TEST(EdrKernelTest, BitParallelMatchesScalarAcrossWordBoundaries) {
  Rng rng(7);
  // Lengths straddling 64 and 128 exercise the multi-block carry chain.
  const size_t lengths[] = {0, 1, 5, 31, 63, 64, 65, 100, 127, 128, 130, 200};
  for (size_t la : lengths) {
    for (size_t lb : lengths) {
      std::vector<Point> pa, pb;
      double t = 0;
      for (size_t i = 0; i < la; ++i) {
        pa.emplace_back(rng.UniformReal(0, 20), rng.UniformReal(0, 20), t);
        t += rng.UniformReal(0.5, 3.0);
      }
      t = rng.UniformReal(0, 30);
      for (size_t i = 0; i < lb; ++i) {
        pb.emplace_back(rng.UniformReal(0, 20), rng.UniformReal(0, 20), t);
        t += rng.UniformReal(0.5, 3.0);
      }
      const Trajectory a(1, pa), b(2, pb);
      const EdrTolerance tol = Tol(4, 4, 10);
      EXPECT_EQ(EdrOpsBitParallel(a, b, tol), EdrOpsScalar(a, b, tol))
          << la << "x" << lb;
    }
  }
}

TEST(EdrKernelTest, BitParallelMatchesScalarOnRandomPairs) {
  Rng rng(99);
  for (int round = 0; round < 300; ++round) {
    const Trajectory a = RandomTrajectory(&rng, 1, 150, 40.0);
    const Trajectory b = RandomTrajectory(&rng, 2, 150, 40.0);
    const EdrTolerance tol = RandomTolerance(&rng);
    EXPECT_EQ(EdrOpsBitParallel(a, b, tol), EdrOpsScalar(a, b, tol))
        << "round " << round;
  }
}

TEST(EdrKernelTest, DispatchAgreesWithScalar) {
  Rng rng(55);
  for (int round = 0; round < 300; ++round) {
    const Trajectory a = RandomTrajectory(&rng, 1, 120, 50.0);
    const Trajectory b = RandomTrajectory(&rng, 2, 120, 50.0);
    const EdrTolerance tol = RandomTolerance(&rng);
    EXPECT_EQ(EdrOps(a, b, tol), EdrOpsScalar(a, b, tol)) << "round " << round;
  }
}

TEST(EdrKernelTest, LegacyEntryPointStillExact) {
  // EdrDistance routes through the kernel dispatch; spot-check it against
  // the scalar kernel on shapes around the dispatch thresholds.
  Rng rng(13);
  for (int round = 0; round < 100; ++round) {
    const Trajectory a = RandomTrajectory(&rng, 1, 90, 40.0);
    const Trajectory b = RandomTrajectory(&rng, 2, 90, 40.0);
    const EdrTolerance tol = RandomTolerance(&rng);
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
  EXPECT_EQ(EdrOpsBitParallel(a, b, zero), 0u);

  // Infinite dt disables the windowed mask build; results must not change.
  const EdrTolerance inf_dt =
      Tol(2, 2, std::numeric_limits<double>::infinity());
  EXPECT_EQ(EdrOpsBitParallel(a, b, inf_dt), EdrOpsScalar(a, b, inf_dt));
}

}  // namespace
}  // namespace wcop
