#include <gtest/gtest.h>

#include <cmath>

#include "distance/euclidean.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::MakeLine;

TEST(SynchronizedEuclideanTest, ParallelLinesAtConstantOffset) {
  const Trajectory a = MakeLine(1, 0, 0, 1, 0, 10);
  const Trajectory b = MakeLine(2, 0, 3, 1, 0, 10);  // 3 m north, same times
  EXPECT_NEAR(SynchronizedEuclideanDistance(a, b), 3.0, 1e-9);
}

TEST(SynchronizedEuclideanTest, IdenticalIsZero) {
  const Trajectory a = MakeLine(1, 5, 5, 2, 1, 8);
  EXPECT_NEAR(SynchronizedEuclideanDistance(a, a), 0.0, 1e-12);
}

TEST(SynchronizedEuclideanTest, NoTemporalOverlapIsInfinite) {
  const Trajectory a = MakeLine(1, 0, 0, 1, 0, 5, 1.0, 0.0);    // [0, 4]
  const Trajectory b = MakeLine(2, 0, 0, 1, 0, 5, 1.0, 100.0);  // [100, 104]
  EXPECT_TRUE(std::isinf(SynchronizedEuclideanDistance(a, b)));
}

TEST(SynchronizedEuclideanTest, PartialOverlapUsesOverlapOnly) {
  // a on [0,10] along x=t; b on [5,15] at fixed offset y=4 along x=t.
  const Trajectory a = MakeLine(1, 0, 0, 1, 0, 11);
  const Trajectory b = MakeLine(2, 5, 4, 1, 0, 11, 1.0, 5.0);
  EXPECT_NEAR(SynchronizedEuclideanDistance(a, b), 4.0, 1e-9);
}

TEST(SynchronizedEuclideanTest, DivergingLinesAverageOverTheOverlap) {
  // a fixed at origin over [0,10]; b walks away along x.
  std::vector<Point> stay;
  for (int i = 0; i <= 10; ++i) {
    stay.emplace_back(0, 0, i);
  }
  const Trajectory a(1, stay);
  const Trajectory b = MakeLine(2, 0, 0, 2, 0, 11);
  EXPECT_NEAR(SynchronizedEuclideanDistance(a, b), 10.0, 1e-9);
}

TEST(SynchronizedEuclideanTest, EmptyIsInfinite) {
  const Trajectory a = MakeLine(1, 0, 0, 1, 0, 5);
  EXPECT_TRUE(std::isinf(SynchronizedEuclideanDistance(a, Trajectory())));
}

}  // namespace
}  // namespace wcop
