#ifndef WCOP_ATTACK_EFFECTIVE_K_H_
#define WCOP_ATTACK_EFFECTIVE_K_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "attack/adversary.h"
#include "attack/candidate_source.h"
#include "common/result.h"
#include "common/run_context.h"
#include "common/telemetry.h"

namespace wcop {
namespace attack {

/// Per-(k,δ)-policy summary of the effective anonymity-set sizes measured
/// for the users who requested exactly that policy.
struct PolicyEffectiveK {
  int k = 0;           ///< requested k_i
  double delta = 0.0;  ///< requested delta_i
  size_t users = 0;
  size_t violations = 0;  ///< users with effective k < requested k
  double mean = 0.0;
  double p5 = 0.0;  ///< nearest-rank percentiles of effective k
  double p25 = 0.0;
  double p50 = 0.0;
};

struct EffectiveKResult {
  size_t users_measured = 0;
  double mean_effective_k = 0.0;
  /// Fraction of measured users whose effective anonymity-set size under
  /// (τ, ε) sub-trajectory knowledge falls below their requested k_i —
  /// the headline "does the publication deliver what was promised" number.
  double violation_fraction = 0.0;
  std::vector<PolicyEffectiveK> policies;  ///< sorted by (k, delta)
};

struct EffectiveKOptions {
  /// τ (seconds of sub-trajectory the adversary knows) and ε (spatial
  /// tolerance, metres) come from the adversary model; `seed` keys the
  /// deterministic per-user choice of which τ-interval is known.
  AdversaryModel adversary;

  /// Timestamps sampled inside each τ-interval when testing candidate
  /// consistency. More samples = stricter matching.
  size_t samples = 8;

  /// How many published users to measure (0 = all; subsets are chosen by
  /// a deterministic shuffle of `adversary.seed`).
  size_t num_users = 0;

  int threads = 1;
  const RunContext* run_context = nullptr;
  /// `attack.effective_k` histogram + `attack.effective_k.violations`
  /// counter, and the join's `attack.join.row_tests` /
  /// `attack.join.node_tests`.
  telemetry::Telemetry* telemetry = nullptr;
  std::function<void(size_t, size_t)> progress;  ///< (done, total) users
};

/// Gramaglia-style k^{τ,ε} quantifier over a published source: for each
/// measured user, pick a deterministic τ-seconds sub-interval of its
/// published lifetime, sample `samples` timestamps inside it, and count
/// the published candidates that stay within ε metres of the user's
/// positions at *every* sampled timestamp (temporal overlap with the
/// interval required; the user itself always counts, so effective k >= 1).
/// That count is the user's effective anonymity-set size — the number of
/// records an adversary holding this sub-trajectory cannot tell apart —
/// and is compared against the user's requested k_i. Candidates whose
/// index MBR, dilated by ε, excludes any sampled position are skipped
/// without reading their block (certified, see PointToEntryDistance), and
/// a tree node whose box fails the same test, or does not overlap the
/// interval in time, skips its whole subtree. Users are measured in blocks
/// of 256 through one candidate-major join (JoinCandidates): each
/// candidate block is read at most once per user block, and the counts are
/// identical at every thread count.
Result<EffectiveKResult> MeasureEffectiveK(const CandidateSource& published,
                                           const EffectiveKOptions& options);

/// Merges partial results (e.g. per-window measurements of a continuous
/// publication) into one: user counts add, policy rows regroup. Percentile
/// fields are recomputed from the per-policy value lists, which `partials`
/// must carry — use the internal accumulation helpers below.
struct EffectiveKSamples {
  /// One (requested k, requested delta, effective k) triple per user.
  struct Sample {
    int k = 0;
    double delta = 0.0;
    uint64_t effective_k = 0;
  };
  std::vector<Sample> samples;
};

/// Raw-sample variant powering cross-window merges: identical measurement
/// (same blocks, same join), but returns every per-user sample, in
/// measured-user order, so callers can pool windows before summarizing.
Result<EffectiveKSamples> MeasureEffectiveKSamples(
    const CandidateSource& published, const EffectiveKOptions& options);

/// Summarizes pooled samples into the reported result (deterministic:
/// samples are sorted before percentile extraction).
EffectiveKResult SummarizeEffectiveK(const EffectiveKSamples& samples,
                                     telemetry::Telemetry* telemetry);

}  // namespace attack
}  // namespace wcop

#endif  // WCOP_ATTACK_EFFECTIVE_K_H_
