#ifndef WCOP_ATTACK_LINKAGE_H_
#define WCOP_ATTACK_LINKAGE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "attack/candidate_source.h"
#include "common/result.h"
#include "common/run_context.h"
#include "common/telemetry.h"
#include "distance/edr.h"

namespace wcop {
namespace attack {

/// Cross-release linkage attack over consecutive `window_NNNNN.wst`
/// publications of the continuous pipeline (DESIGN.md §14). Fragment ids
/// are freshly assigned per window, so the published releases carry no
/// common identifier — but an adversary can still try to *join* a user's
/// fragment in window w to its continuation in window w+1 by motion
/// continuity: extrapolate the fragment's end at constant velocity, gate
/// the next release's index by time and dilated MBR, then rank the gated
/// candidates by predicted-position error refined with a tail-to-head EDR
/// match (early-abandoned under the best-so-far cutoff). Ground truth is
/// the fragments' parent (source trajectory) id, which the attack itself
/// never reads.
struct LinkageOptions {
  /// Temporal gate: a candidate continuation must start within
  /// [end - overlap_slack, end + max_gap_seconds] of the fragment's end.
  double max_gap_seconds = 1800.0;
  double overlap_slack_seconds = 120.0;

  /// Spatial gate (metres): candidates whose MBR is farther than this from
  /// the fragment's constant-velocity extrapolation (evaluated at the
  /// candidate's start time) are never read. Gating on the prediction
  /// rather than the fragment's last position keeps fast movers with long
  /// gaps linkable.
  double gate_radius = 1000.0;

  /// EDR refinement: tolerance triple plus how many tail/head points are
  /// aligned. The top `beam` candidates by predicted-position error get
  /// the exact EDR treatment; the rest keep their coarse score.
  EdrTolerance tolerance{100.0, 100.0, 120.0};
  size_t edr_points = 16;
  size_t beam = 8;

  int threads = 1;
  const RunContext* run_context = nullptr;
  /// `attack.linkage.attempted` / `attack.linkage.joined` counters.
  telemetry::Telemetry* telemetry = nullptr;
  /// (boundaries done, boundaries total), on the coordinating thread.
  std::function<void(size_t, size_t)> progress;
};

struct LinkageResult {
  size_t windows = 0;
  size_t boundaries = 0;        ///< consecutive window pairs examined
  uint64_t fragments = 0;       ///< fragments in the earlier window of
                                ///< each boundary
  uint64_t pairs_gated = 0;     ///< candidates surviving the time+MBR gate
  uint64_t joins_attempted = 0; ///< fragments whose user does continue
                                ///< into the next window (ground truth)
  uint64_t joins_correct = 0;   ///< of those, predicted continuation has
                                ///< the right user
  double linkage_rate = 0.0;    ///< joins_correct / joins_attempted
  size_t users_total = 0;       ///< users with >= 1 consecutive-window pair
  size_t users_tracked = 0;     ///< users whose *every* consecutive pair
                                ///< was correctly joined
  double trackable_fraction = 0.0;
};

/// The attack one boundary at a time, for a caller that walks the releases
/// itself (the audit's one-pass windows mode). Feed every consecutive pair
/// of releases, in chronological order, to AddBoundary — an empty release
/// included — then take the result from Finish.
class LinkageAccumulator {
 public:
  /// Joins every fragment of `from` (release w) to its predicted
  /// continuation in `to` (release w+1) and folds the verdicts in, under
  /// the `attack/linkage` span. Byte-identical across thread counts.
  Status AddBoundary(const CandidateSource& from, const CandidateSource& to,
                     const LinkageOptions& options);

  /// The result over a sequence of `windows` releases.
  LinkageResult Finish(size_t windows) const;

 private:
  LinkageResult result_;
  /// Per-user (consecutive pairs, pairs joined correctly) across all
  /// boundaries; ordered, so the trackability fold is deterministic.
  std::map<int64_t, std::pair<uint64_t, uint64_t>> user_pairs_;
};

/// Runs the attack over `window_paths` in the given (chronological) order,
/// two windows open at a time. Fewer than two windows yields an empty
/// result (nothing to join). Results are byte-identical across thread
/// counts.
Result<LinkageResult> RunLinkageAttack(
    const std::vector<std::string>& window_paths,
    const LinkageOptions& options);

/// Lists `window_NNNNN.wst` files under `dir` in window order (the
/// continuous pipeline's naming scheme). kNotFound when the directory
/// holds none.
Result<std::vector<std::string>> ListWindowStores(const std::string& dir);

}  // namespace attack
}  // namespace wcop

#endif  // WCOP_ATTACK_LINKAGE_H_
