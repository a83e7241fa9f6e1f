#ifndef WCOP_ATTACK_REIDENT_H_
#define WCOP_ATTACK_REIDENT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "attack/adversary.h"
#include "attack/candidate_source.h"
#include "common/result.h"
#include "common/run_context.h"
#include "common/telemetry.h"

namespace wcop {
namespace attack {

/// Configuration of the partial-background-knowledge re-identification
/// attack (DESIGN.md §14). Victims are drawn from the *original* source;
/// the attack ranks every *published* candidate by mean spatial distance
/// to the adversary's observations at the observed timestamps.
struct ReidentOptions {
  AdversaryModel adversary;

  /// How many victims to attack (0 = every original trajectory). When a
  /// subset is requested it is chosen by a deterministic shuffle of
  /// `adversary.seed`, independent of thread count.
  size_t num_victims = 0;

  /// Thread count (wcop::parallel resolution rules; 1 = exact serial
  /// path). Results are byte-identical across thread counts.
  int threads = 1;

  /// Optional deadline / cancellation / budget; checked per victim block
  /// and at every parallel chunk boundary. Candidate index walks charge
  /// candidate pairs; exact scorings charge distance computations.
  const RunContext* run_context = nullptr;

  /// Optional metric sink: `attack.victims`, `attack.candidates`,
  /// `attack.candidates.pruned`, `attack.matches.top1`, the join's
  /// `attack.join.row_tests` / `attack.join.node_tests`, and the
  /// `attack.rank` histogram.
  telemetry::Telemetry* telemetry = nullptr;

  /// Optional progress callback, invoked on the coordinating thread after
  /// each victim block: (victims done, victims total). Suppressed victims
  /// count as done from the start.
  std::function<void(size_t, size_t)> progress;
};

struct ReidentResult {
  size_t victims_attacked = 0;    ///< victims present in the publication
  size_t victims_suppressed = 0;  ///< victims with nothing to link to
  /// Expected success rates under uniform tie-breaking: an exactly
  /// collapsed k-anonymity set scores top-1 at 1/k, as it should.
  double top1_success = 0.0;
  double top5_success = 0.0;
  double mean_true_rank = 0.0;  ///< 1 = always first; ties score the
                                ///< block midpoint
  double mean_reciprocal_rank = 0.0;
  uint64_t candidates_total = 0;   ///< victims x candidate universe
  uint64_t candidates_scored = 0;  ///< exact (block-read) scorings
  uint64_t candidates_pruned = 0;  ///< skipped via the box lower bound
};

/// The victims of the attack on one original: their indices in the original
/// (DrawSubset order, ascending) and their truth keys, sorted, so a
/// publication's own entries resolve which victims it holds. Drawn once,
/// a sample serves every release cut from that original.
struct VictimSample {
  std::vector<size_t> victims;
  /// (truth key, position in `victims`), sorted.
  std::vector<std::pair<int64_t, size_t>> by_key;
};

/// DrawSubset(original.size(), num_victims, seed) plus its truth keys.
VictimSample DrawVictims(const CandidateSource& original, size_t num_victims,
                         uint64_t seed);

/// Runs the attack. Victims whose truth key is absent from `published`
/// count as suppressed; a present victim's truth is the first entry that
/// carries its key, found by one walk over the published keys. The
/// present ones are attacked in victim order, in blocks of 256.
/// Each victim of a block is set up once: its observations are sampled
/// and its true candidate's exact score s_true is computed. Then one
/// candidate-major join (JoinCandidates) descends the published index's
/// box tree: a victim whose certified lower bound (the sum of
/// observation-to-box distances, see PointToEntryDistance) exceeds s_true
/// at a node settles the node's whole subtree as pruned, and in the leaves
/// it reaches every candidate is tested against the same bound on its own
/// MBR; a block is read once for the whole victim block and scored exactly
/// only for the victims whose bound does not exceed s_true — a pruned
/// candidate's exact score is provably > s_true, so its relative rank is
/// known without touching its block and the result is identical to the
/// exhaustive scan. Out-of-core: memory is O(index + victim block), and
/// each published block is read at most once per victim block. Counts
/// and rates are identical at every thread count. Fails on empty sources
/// or a zero-observation adversary.
Result<ReidentResult> RunReidentAttack(const CandidateSource& original,
                                       const CandidateSource& published,
                                       const ReidentOptions& options);

/// The same attack on victims drawn beforehand (`options.num_victims` is
/// not read): an audit of many releases of one original draws its sample
/// once with DrawVictims instead of once per release.
Result<ReidentResult> RunReidentAttack(const CandidateSource& original,
                                       const CandidateSource& published,
                                       const VictimSample& sample,
                                       const ReidentOptions& options);

}  // namespace attack
}  // namespace wcop

#endif  // WCOP_ATTACK_REIDENT_H_
