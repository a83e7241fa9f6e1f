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
