#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "distance/edr.h"
#include "distance/edr_kernel.h"
#include "edr_oracle.h"
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

/// Exponential-time reference EDR for cross-checking the DP.
double BruteForceEdr(const Trajectory& a, const Trajectory& b,
                     const EdrTolerance& tol, size_t i, size_t j) {
  if (i == a.size()) {
    return static_cast<double>(b.size() - j);
  }
  if (j == b.size()) {
    return static_cast<double>(a.size() - i);
  }
  const double subcost = tol.Matches(a[i], b[j]) ? 0.0 : 1.0;
  return std::min({BruteForceEdr(a, b, tol, i + 1, j + 1) + subcost,
                   BruteForceEdr(a, b, tol, i + 1, j) + 1.0,
                   BruteForceEdr(a, b, tol, i, j + 1) + 1.0});
}

TEST(EdrToleranceTest, FromDeltaMaxHeuristic) {
  const EdrTolerance tol = EdrTolerance::FromDeltaMax(250.0, 5.0);
  EXPECT_DOUBLE_EQ(tol.dx, 2500.0);
  EXPECT_DOUBLE_EQ(tol.dy, 2500.0);
  EXPECT_DOUBLE_EQ(tol.dt, 500.0);
}

TEST(EdrToleranceTest, ZeroSpeedYieldsInfiniteTimeTolerance) {
  const EdrTolerance tol = EdrTolerance::FromDeltaMax(250.0, 0.0);
  EXPECT_TRUE(std::isinf(tol.dt));
}

TEST(EdrToleranceTest, MatchesRespectsAllAxes) {
  const EdrTolerance tol = Tol(1.0, 1.0, 1.0);
  EXPECT_TRUE(tol.Matches(Point(0, 0, 0), Point(1, 1, 1)));
  EXPECT_FALSE(tol.Matches(Point(0, 0, 0), Point(1.01, 0, 0)));
  EXPECT_FALSE(tol.Matches(Point(0, 0, 0), Point(0, 1.01, 0)));
  EXPECT_FALSE(tol.Matches(Point(0, 0, 0), Point(0, 0, 1.01)));
}

TEST(EdrDistanceTest, IdenticalIsZero) {
  const Trajectory t = MakeLine(1, 0, 0, 5, 0, 20);
  EXPECT_DOUBLE_EQ(EdrDistance(t, t, Tol(1, 1, 1)), 0.0);
}

TEST(EdrDistanceTest, EmptyCostsOtherLength) {
  const Trajectory t = MakeLine(1, 0, 0, 5, 0, 7);
  const Trajectory empty;
  EXPECT_DOUBLE_EQ(EdrDistance(t, empty, Tol(1, 1, 1)), 7.0);
  EXPECT_DOUBLE_EQ(EdrDistance(empty, t, Tol(1, 1, 1)), 7.0);
}

TEST(EdrDistanceTest, CompletelyDisjointCostsMaxLength) {
  // No point of a matches any of b -> distance = max(|a|, |b|)
  // (substitutions for the overlap, deletions for the overhang).
  const Trajectory a = MakeLine(1, 0, 0, 1, 0, 4);
  const Trajectory b = MakeLine(2, 1000, 1000, 1, 0, 6);
  EXPECT_DOUBLE_EQ(EdrDistance(a, b, Tol(1, 1, 1e9)), 6.0);
}

TEST(EdrDistanceTest, SymmetricUnderSwap) {
  Rng rng(5);
  for (int round = 0; round < 20; ++round) {
    Trajectory a = MakeLine(1, rng.UniformReal(0, 10), 0, 1, 0,
                            3 + rng.UniformIndex(6));
    Trajectory b = MakeLine(2, rng.UniformReal(0, 10), 0, 1, 0,
                            3 + rng.UniformIndex(6));
    const EdrTolerance tol = Tol(2, 2, 3);
    EXPECT_DOUBLE_EQ(EdrDistance(a, b, tol), EdrDistance(b, a, tol));
  }
}

TEST(EdrDistanceTest, MatchesBruteForceOnRandomSmallInputs) {
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    std::vector<Point> pa, pb;
    const size_t na = 1 + rng.UniformIndex(6);
    const size_t nb = 1 + rng.UniformIndex(6);
    for (size_t i = 0; i < na; ++i) {
      pa.emplace_back(rng.UniformReal(0, 5), rng.UniformReal(0, 5),
                      static_cast<double>(i));
    }
    for (size_t i = 0; i < nb; ++i) {
      pb.emplace_back(rng.UniformReal(0, 5), rng.UniformReal(0, 5),
                      static_cast<double>(i));
    }
    const Trajectory a(1, pa), b(2, pb);
    const EdrTolerance tol = Tol(1.5, 1.5, 2.0);
    EXPECT_DOUBLE_EQ(EdrDistance(a, b, tol),
                     BruteForceEdr(a, b, tol, 0, 0));
  }
}

TEST(EdrDistanceTest, NormalizedIsWithinUnitInterval) {
  Rng rng(3);
  for (int round = 0; round < 30; ++round) {
    Trajectory a = MakeLine(1, rng.UniformReal(0, 100), 0, 1, 0,
                            2 + rng.UniformIndex(20));
    Trajectory b = MakeLine(2, rng.UniformReal(0, 100), 0, 1, 0,
                            2 + rng.UniformIndex(20));
    const double d = NormalizedEdrDistance(a, b, Tol(1, 1, 1));
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

TEST(EdrOpSequenceTest, IdenticalYieldsAllMatches) {
  const Trajectory t = MakeLine(1, 0, 0, 1, 0, 10);
  const std::vector<EdrOp> ops = EdrOpSequence(t, t, Tol(0.5, 0.5, 0.5));
  ASSERT_EQ(ops.size(), 10u);
  for (const EdrOp& op : ops) {
    EXPECT_EQ(op.kind, EdrOp::Kind::kMatch);
  }
  EXPECT_TRUE(IsValidOpSequence(ops, 10, 10));
}

TEST(EdrOpSequenceTest, ValidOnRandomInputs) {
  Rng rng(42);
  for (int round = 0; round < 50; ++round) {
    std::vector<Point> pa, pb;
    const size_t na = 1 + rng.UniformIndex(15);
    const size_t nb = 1 + rng.UniformIndex(15);
    for (size_t i = 0; i < na; ++i) {
      pa.emplace_back(rng.UniformReal(0, 8), rng.UniformReal(0, 8),
                      static_cast<double>(i));
    }
    for (size_t i = 0; i < nb; ++i) {
      pb.emplace_back(rng.UniformReal(0, 8), rng.UniformReal(0, 8),
                      static_cast<double>(i));
    }
    const Trajectory a(1, pa), b(2, pb);
    const std::vector<EdrOp> ops = EdrOpSequence(a, b, Tol(2, 2, 3));
    EXPECT_TRUE(IsValidOpSequence(ops, na, nb));
  }
}

TEST(EdrOpSequenceTest, MatchesOnlyWhereToleranceAllows) {
  Rng rng(17);
  for (int round = 0; round < 30; ++round) {
    std::vector<Point> pa, pb;
    for (size_t i = 0; i < 8; ++i) {
      pa.emplace_back(rng.UniformReal(0, 4), 0, static_cast<double>(i));
      pb.emplace_back(rng.UniformReal(0, 4), 0, static_cast<double>(i));
    }
    const Trajectory a(1, pa), b(2, pb);
    const EdrTolerance tol = Tol(1, 1, 2);
    for (const EdrOp& op : EdrOpSequence(a, b, tol)) {
      if (op.kind == EdrOp::Kind::kMatch) {
        EXPECT_TRUE(tol.Matches(a[op.traj_index], b[op.pivot_index]));
      }
    }
  }
}

TEST(EdrOpSequenceTest, PivotSideAlwaysFullyCovered) {
  // Every pivot index must appear exactly once (as match or delete-from-
  // pivot): the translation phase relies on this to produce |pivot| points.
  const Trajectory a = MakeLine(1, 0, 0, 1, 0, 5);
  const Trajectory b = MakeLine(2, 100, 100, 1, 0, 9);
  const std::vector<EdrOp> ops = EdrOpSequence(a, b, Tol(1, 1, 1));
  std::vector<int> pivot_seen(9, 0);
  for (const EdrOp& op : ops) {
    if (op.kind != EdrOp::Kind::kDeleteFromTraj) {
      ++pivot_seen[op.pivot_index];
    }
  }
  for (int c : pivot_seen) {
    EXPECT_EQ(c, 1);
  }
}

/// `n` points in a 20 x 20 square. Timestamps: kind 0 strictly
/// increasing, 1 non-decreasing with runs of duplicates, 2 in random order
/// (with a few duplicates).
Trajectory OracleTrajectory(Rng* rng, int64_t id, size_t n, int kind) {
  std::vector<Point> pts;
  pts.reserve(n);
  double t = rng->UniformReal(0, 30);
  for (size_t i = 0; i < n; ++i) {
    double at = t;
    if (kind == 2) {
      at = std::floor(rng->UniformReal(0, 1.5 * static_cast<double>(n)));
    } else if (kind == 0 || rng->UniformIndex(5) < 3) {
      t += rng->UniformReal(0.5, 3.0);
    }
    pts.emplace_back(rng->UniformReal(0, 20), rng->UniformReal(0, 20), at);
  }
  return Trajectory(id, std::move(pts));
}

TEST(EdrOracleTest, EveryLengthPairMatchesTheOracles) {
  // Every length pair from 0 to 130 (one to three 64-bit words, each side
  // of every word boundary) plus 200 and 500, each pair under one drawn
  // mix of timestamp kinds and dt (finite, zero or infinite). The script
  // must be the table backtrack's, op for op, and the distance the scalar
  // DP's.
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 130; ++n) {
    lengths.push_back(n);
  }
  lengths.push_back(200);
  lengths.push_back(500);
  const double dts[] = {6.0, 0.0, std::numeric_limits<double>::infinity()};
  Rng rng(2026);
  for (size_t la : lengths) {
    for (size_t lb : lengths) {
      const int kind_a = static_cast<int>(rng.UniformIndex(3));
      const int kind_b = static_cast<int>(rng.UniformIndex(3));
      const Trajectory a = OracleTrajectory(&rng, 1, la, kind_a);
      const Trajectory b = OracleTrajectory(&rng, 2, lb, kind_b);
      const EdrTolerance tol = Tol(4, 4, dts[rng.UniformIndex(3)]);
      SCOPED_TRACE(std::to_string(la) + "x" + std::to_string(lb) +
                   " kinds " + std::to_string(kind_a) +
                   std::to_string(kind_b) + " dt " + std::to_string(tol.dt));
      const uint32_t exact = testing_util::EdrOpsScalar(a, b, tol);
      ASSERT_EQ(EdrOps(a, b, tol), exact);
      const std::vector<EdrOp> ops = EdrOpSequence(a, b, tol);
      const std::vector<EdrOp> want =
          testing_util::EdrOpSequenceTable(a, b, tol);
      ASSERT_EQ(ops.size(), want.size());
      for (size_t k = 0; k < ops.size(); ++k) {
        ASSERT_EQ(ops[k].kind, want[k].kind) << "op " << k;
        ASSERT_EQ(ops[k].traj_index, want[k].traj_index) << "op " << k;
        ASSERT_EQ(ops[k].pivot_index, want[k].pivot_index) << "op " << k;
      }
    }
  }
}

TEST(IsValidOpSequenceTest, RejectsBadSequences) {
  // Skipping an index is invalid.
  std::vector<EdrOp> ops = {{EdrOp::Kind::kMatch, 0, 0},
                            {EdrOp::Kind::kMatch, 2, 1}};
  EXPECT_FALSE(IsValidOpSequence(ops, 3, 2));
  // Incomplete coverage is invalid.
  ops = {{EdrOp::Kind::kMatch, 0, 0}};
  EXPECT_FALSE(IsValidOpSequence(ops, 2, 1));
  // Correct full coverage passes.
  ops = {{EdrOp::Kind::kMatch, 0, 0}, {EdrOp::Kind::kDeleteFromTraj, 1, 0}};
  EXPECT_TRUE(IsValidOpSequence(ops, 2, 1));
}

}  // namespace
}  // namespace wcop
