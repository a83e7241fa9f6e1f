#ifndef WCOP_STORE_WINDOW_IO_H_
#define WCOP_STORE_WINDOW_IO_H_

/// Streamed per-window extraction over a trajectory store — the out-of-core
/// half of the continuous-publication pipeline (DESIGN.md "Continuous
/// publication pipeline").
///
/// ExtractWindow() walks the source store's index, reads only the blocks
/// whose lifetime overlaps the window (one source trajectory in memory at a
/// time), slices each into the window's sub-trajectory with the
/// window-iterator core below, and returns the window's fragments in
/// memory, together with their index rows and the CRC32/size of the store
/// image they encode to — the pipeline anonymizes them directly and
/// records that digest in the window's manifest, without writing or
/// re-reading a window store. A window store file is written only when the
/// caller names one. Fragments too short to publish are not dropped at
/// window boundaries: when the source trajectory continues past the window,
/// the short fragment is spilled to a carry-over store and merged
/// (prepended) into the same user's fragment in the next window, still
/// carrying that user's (k_i, δ_i). Only a short fragment with no
/// continuation is suppressed for good.
///
/// Carry-over records are tiny by construction — a record is spilled only
/// while its accumulated points stay below `min_fragment_points` — so the
/// carry store (and the in-memory map the next window loads it into) is
/// bounded by the number of trajectories alive at the window boundary,
/// never by stream length. Every store written is finished atomically
/// (write-tmp → fsync → rename), and the whole extraction is deterministic:
/// fragments are emitted in source index order with sequentially assigned
/// ids, so re-running a window after a crash reproduces byte-identical
/// stores and digests.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "store/store_file.h"
#include "traj/trajectory.h"

namespace wcop {
namespace store {

// ---------------------------------------------------------------------------
// Window-iterator core: the deterministic window grid and the per-window
// slicing every window of the continuous pipeline goes through.
// ---------------------------------------------------------------------------

/// The deterministic window grid over a time range: window `i` spans
/// [t_min + i*window_seconds, t_min + (i+1)*window_seconds), and a window
/// exists for every i with WindowStart(i) <= t_max.
struct WindowPlan {
  double t_min = 0.0;
  double window_seconds = 0.0;
  size_t num_windows = 0;

  double WindowStart(size_t i) const {
    return t_min + static_cast<double>(i) * window_seconds;
  }
  double WindowEnd(size_t i) const { return WindowStart(i) + window_seconds; }
};

/// Computes the window grid covering [t_min, t_max]. kInvalidArgument when
/// window_seconds is not positive, the range is inverted/non-finite, or
/// window_seconds is so small relative to the time magnitude that the grid
/// cannot advance (t + window_seconds == t in double arithmetic).
Result<WindowPlan> PlanWindows(double t_min, double t_max,
                               double window_seconds);

/// Copies the points of `t` with window_start <= p.t < window_end, in order.
std::vector<Point> SlicePointsInWindow(const Trajectory& t,
                                       double window_start, double window_end);

/// Builds a publishable window fragment: fresh id `fragment_id`, the
/// parent's object id, the parent's requirement (each user's (k_i, δ_i)
/// rides with every fragment), and parent_id = parent.id() linking back to
/// the source trajectory.
Trajectory MakeWindowFragment(int64_t fragment_id, const Trajectory& parent,
                              std::vector<Point> points);

// ---------------------------------------------------------------------------
// Out-of-core window extraction.
// ---------------------------------------------------------------------------

struct WindowExtractOptions {
  double window_start = 0.0;
  double window_end = 0.0;
  /// Fragments with fewer points than this are carried over (when the
  /// trajectory continues) or suppressed (when it does not). Values below 1
  /// are treated as 1.
  size_t min_fragment_points = 2;
  /// First fragment id to assign; ids increase sequentially in emission
  /// order. The pipeline threads this through windows so ids are unique
  /// across the whole stream.
  int64_t next_fragment_id = 0;
  /// Path of the carry-over store written by the previous window; empty or
  /// missing means no carry-in (the first window).
  std::string carry_in_path;
  /// Optional output: also write the window's fragments to a store file
  /// here (the image `WindowExtraction::input` digests). Empty = keep them
  /// in memory only.
  std::string window_out_path;
  /// Output: the carry-over store for the next window. Always written
  /// (possibly empty) so the window's durable state is self-describing.
  std::string carry_out_path;
};

struct WindowExtraction {
  size_t fragments = 0;      ///< fragments in the window (= trajectories.size())
  size_t carried_in = 0;     ///< carry-over records merged from the previous window
  size_t carried_out = 0;    ///< short fragments spilled to the next window
  size_t suppressed = 0;     ///< short fragments with no continuation (dropped)
  int64_t next_fragment_id = 0;  ///< first id unused after this window

  /// The window's fragments in emission order — the anonymizer's input —
  /// and their index rows within the window store image.
  std::vector<Trajectory> trajectories;
  std::vector<StoreEntry> index;
  /// CRC32/size of the window store image (written to window_out_path when
  /// set) and of the carry-over store written to carry_out_path.
  FileDigest input;
  FileDigest carry;
};

/// Extracts one window from `source` per the options above. The carry store
/// (and the window store, when requested) is atomically finished before
/// returning; on any error no output path is created or replaced.
Result<WindowExtraction> ExtractWindow(const TrajectoryStoreReader& source,
                                       const WindowExtractOptions& options);

}  // namespace store
}  // namespace wcop

#endif  // WCOP_STORE_WINDOW_IO_H_
