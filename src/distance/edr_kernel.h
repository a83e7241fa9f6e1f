#ifndef WCOP_DISTANCE_EDR_KERNEL_H_
#define WCOP_DISTANCE_EDR_KERNEL_H_

#include <cstdint>

#include "distance/edr.h"
#include "traj/trajectory.h"

namespace wcop {

/// The EDR kernel (Myers 1999 / Hyyrö 2003): EDR is unit-cost edit distance
/// under the tolerance match predicate, so each DP row collapses to
/// O(ceil(|b|/64)) word operations on vertical-delta bit vectors. Each row's
/// match word is built branchlessly over a structure-of-arrays copy of `b`
/// (SSE2 on x86-64, the same expression as a scalar loop elsewhere), only
/// over the columns inside the row point's time window when both sequences
/// are sorted by time. The window is advanced by the same rounded
/// difference EdrTolerance::Matches takes, so every bit is exactly
/// Matches' verdict and the result is bit-identical to the classic scalar
/// DP (its oracle in the tests). O(|a|*ceil(|b|/64) + window) time, O(|b|)
/// thread-local buffers.
uint32_t EdrOps(const Trajectory& a, const Trajectory& b,
                const EdrTolerance& tolerance);

}  // namespace wcop

#endif  // WCOP_DISTANCE_EDR_KERNEL_H_
