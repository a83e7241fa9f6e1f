#ifndef WCOP_DISTANCE_EDR_KERNEL_H_
#define WCOP_DISTANCE_EDR_KERNEL_H_

#include <cstdint>

#include "distance/edr.h"
#include "traj/trajectory.h"

namespace wcop {

/// Reference kernel: the classic two-row scalar DP. O(n*m) time, O(m)
/// scratch (thread-local, reused across calls). Always exact.
uint32_t EdrOpsScalar(const Trajectory& a, const Trajectory& b,
                      const EdrTolerance& tolerance);

/// Bit-parallel kernel (Myers 1999 / Hyyrö 2003): EDR is unit-cost edit
/// distance under the tolerance match predicate, so each DP row collapses
/// to O(ceil(m/64)) word operations on vertical-delta bit vectors. Match
/// masks are rebuilt per row from the row point's time window over `b`
/// (two-pointer sweep; sorted timestamps) — or over all of `b` when a
/// sequence is unsorted or dt covers everything. Always exact and
/// bit-identical to the scalar DP.
uint32_t EdrOpsBitParallel(const Trajectory& a, const Trajectory& b,
                           const EdrTolerance& tolerance);

/// Dispatch: picks the cheaper kernel for the shapes involved (scalar DP
/// for small shapes, bit-parallel for long ones). Both kernels agree
/// bit-for-bit, so the result is always the exact EDR op count.
uint32_t EdrOps(const Trajectory& a, const Trajectory& b,
                const EdrTolerance& tolerance);

}  // namespace wcop

#endif  // WCOP_DISTANCE_EDR_KERNEL_H_
