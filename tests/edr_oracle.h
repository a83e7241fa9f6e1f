#ifndef WCOP_TESTS_EDR_ORACLE_H_
#define WCOP_TESTS_EDR_ORACLE_H_

// The reference EDR implementations the bit-parallel kernel is checked
// against: the classic two-row scalar DP for distances and the full DP
// table with its backtrack for edit scripts. Both test every cell with
// EdrTolerance::Matches and prune nothing.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "distance/edr.h"
#include "traj/trajectory.h"

namespace wcop {
namespace testing_util {

/// EDR op count by the two-row DP. O(|a|*|b|) time.
inline uint32_t EdrOpsScalar(const Trajectory& a, const Trajectory& b,
                             const EdrTolerance& tolerance) {
  const size_t n = a.size();
  const size_t m = b.size();
  std::vector<uint32_t> prev(m + 1);
  std::vector<uint32_t> curr(m + 1);
  for (size_t j = 0; j <= m; ++j) {
    prev[j] = static_cast<uint32_t>(j);
  }
  for (size_t i = 1; i <= n; ++i) {
    curr[0] = static_cast<uint32_t>(i);
    for (size_t j = 1; j <= m; ++j) {
      const uint32_t subcost = tolerance.Matches(a[i - 1], b[j - 1]) ? 0u : 1u;
      curr[j] =
          std::min({prev[j - 1] + subcost, prev[j] + 1u, curr[j - 1] + 1u});
    }
    std::swap(prev, curr);
  }
  return prev[m];
}

/// The edit script by the full DP table and its backtrack, in the tie-break
/// order match > substitution > delete-from-traj > delete-from-pivot.
/// O(|traj|*|pivot|) time and space.
inline std::vector<EdrOp> EdrOpSequenceTable(const Trajectory& traj,
                                             const Trajectory& pivot,
                                             const EdrTolerance& tolerance) {
  const size_t n = traj.size();
  const size_t m = pivot.size();
  // dp[i][j] = EDR(traj[0..i), pivot[0..j)).
  std::vector<std::vector<uint32_t>> dp(n + 1, std::vector<uint32_t>(m + 1));
  for (size_t i = 0; i <= n; ++i) {
    dp[i][0] = static_cast<uint32_t>(i);
  }
  for (size_t j = 0; j <= m; ++j) {
    dp[0][j] = static_cast<uint32_t>(j);
  }
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      const uint32_t subcost =
          tolerance.Matches(traj[i - 1], pivot[j - 1]) ? 0u : 1u;
      dp[i][j] = std::min(
          {dp[i - 1][j - 1] + subcost, dp[i - 1][j] + 1u, dp[i][j - 1] + 1u});
    }
  }
  std::vector<EdrOp> reversed;
  size_t i = n;
  size_t j = m;
  while (i > 0 || j > 0) {
    if (i > 0 && j > 0 && tolerance.Matches(traj[i - 1], pivot[j - 1]) &&
        dp[i][j] == dp[i - 1][j - 1]) {
      reversed.push_back(EdrOp{EdrOp::Kind::kMatch, i - 1, j - 1});
      --i;
      --j;
      continue;
    }
    if (i > 0 && j > 0 && dp[i][j] == dp[i - 1][j - 1] + 1) {
      reversed.push_back(EdrOp{EdrOp::Kind::kDeleteFromPivot, 0, j - 1});
      reversed.push_back(EdrOp{EdrOp::Kind::kDeleteFromTraj, i - 1, 0});
      --i;
      --j;
      continue;
    }
    if (i > 0 && dp[i][j] == dp[i - 1][j] + 1) {
      reversed.push_back(EdrOp{EdrOp::Kind::kDeleteFromTraj, i - 1, 0});
      --i;
      continue;
    }
    reversed.push_back(EdrOp{EdrOp::Kind::kDeleteFromPivot, 0, j - 1});
    --j;
  }
  std::reverse(reversed.begin(), reversed.end());
  return reversed;
}

}  // namespace testing_util
}  // namespace wcop

#endif  // WCOP_TESTS_EDR_ORACLE_H_
