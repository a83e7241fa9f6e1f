#ifndef WCOP_ATTACK_CANDIDATE_SOURCE_H_
#define WCOP_ATTACK_CANDIDATE_SOURCE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "common/run_context.h"
#include "store/store_file.h"
#include "traj/dataset.h"

namespace wcop {
namespace attack {

/// Uniform candidate universe for the attacks: an indexed set of published
/// (or original) trajectories with per-entry metadata cheap enough to walk
/// without touching trajectory bytes, plus on-demand block reads. One
/// abstraction serves both the legacy in-memory Dataset entry points and
/// the out-of-core 500k-store audits — the index rows carry the spatial
/// MBR and lifetime that power the certified lower-bound pruning of the
/// re-identification scan (see reident.h). Both scans walk a source through
/// JoinCandidates below, which reads each block at most once per block of
/// victims.
///
/// Every entry has a *truth key*: the identity an attack's ground truth is
/// keyed on. For plain stores and datasets that is the trajectory id; for
/// the continuous pipeline's window stores — whose fragments get fresh ids
/// per window — it is the fragment's parent_id, i.e. the source trajectory
/// the fragment was cut from, so the same user carries the same key across
/// releases.
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;

  virtual size_t size() const = 0;

  /// Index row of entry `i`: id, num_points, requirement (k, delta),
  /// spatial MBR and lifetime. Never touches the trajectory bytes.
  virtual const store::StoreEntry& entry(size_t i) const = 0;

  /// Materializes entry `i`. Thread-safe.
  virtual Result<Trajectory> Read(size_t i) const = 0;

  /// Truth key of entry `i` (see class comment).
  virtual int64_t KeyOf(size_t i) const = 0;

  /// First entry whose truth key is `key`; kNotFound when absent.
  Result<size_t> FindByKey(int64_t key) const;

 protected:
  /// Derived constructors fill this once the keys are known.
  std::unordered_map<int64_t, size_t> by_key_;
};

/// In-memory adapter over a Dataset (the legacy attack entry points and
/// unit tests). Entries are synthesized from the trajectories; the truth
/// key is the trajectory id. The dataset must outlive the source.
class DatasetCandidateSource : public CandidateSource {
 public:
  explicit DatasetCandidateSource(const Dataset& dataset);

  size_t size() const override { return entries_.size(); }
  const store::StoreEntry& entry(size_t i) const override {
    return entries_[i];
  }
  Result<Trajectory> Read(size_t i) const override;
  int64_t KeyOf(size_t i) const override { return entries_[i].id; }

 private:
  const Dataset* dataset_;
  std::vector<store::StoreEntry> entries_;
};

/// Adapter over a `.wst` store. With kId keys (single releases, original
/// stores) it is out-of-core: opening costs one index load and no block
/// reads, and every Read is a CRC-checked block read, so memory stays one
/// int64 per entry at any store size. With kParentId keys (the continuous
/// pipeline's window stores) the truth key lives only in the block
/// payload, so opening reads, CRC-checks and decodes every block once in
/// any case; the source keeps the decoded fragments and serves Read from
/// memory. A window source therefore holds one window's fragments — the
/// bound the pipeline already holds per window while publishing — and
/// never reads its store again.
class StoreCandidateSource : public CandidateSource {
 public:
  enum class TruthKey { kId, kParentId };

  static Result<StoreCandidateSource> Open(
      const std::string& path, TruthKey truth_key = TruthKey::kId,
      const RunContext* context = nullptr);

  StoreCandidateSource(StoreCandidateSource&&) = default;
  StoreCandidateSource& operator=(StoreCandidateSource&&) = default;

  size_t size() const override { return reader_->size(); }
  const store::StoreEntry& entry(size_t i) const override {
    return reader_->index()[i];
  }
  Result<Trajectory> Read(size_t i) const override;
  int64_t KeyOf(size_t i) const override { return keys_[i]; }

 private:
  StoreCandidateSource() = default;

  // unique_ptr keeps the source movable (Result<T> requires it).
  std::unique_ptr<store::TrajectoryStoreReader> reader_;
  std::vector<int64_t> keys_;
  bool resident_ = false;
  std::vector<Trajectory> fragments_;  ///< kParentId: every entry, decoded
};

/// Spatial distance from `p` to the entry's MBR (0 when inside). Because
/// Trajectory::PositionAt clamps in time but never leaves the spatial MBR,
/// this is a certified lower bound on SpatialDistance(t.PositionAt(any t),
/// p) for the stored trajectory — the pruning predicate of the
/// re-identification scan and the effective-k prefilter. Inline: it runs
/// once per observation of every (victim, candidate) pair.
inline double PointToEntryDistance(const store::StoreEntry& e,
                                   const Point& p) {
  const double dx = std::max({e.min_x - p.x, 0.0, p.x - e.max_x});
  const double dy = std::max({e.min_y - p.y, 0.0, p.y - e.max_y});
  return std::sqrt(dx * dx + dy * dy);
}

/// Integer tallies JoinCandidates keeps per victim. Each scan uses the
/// fields it needs; being integers, their sums over candidate ranges are
/// the same in any order, so they are exact at every thread count.
struct JoinTally {
  uint64_t better = 0;     ///< re-identification: scores below s_true
  uint64_t tied = 0;       ///< re-identification: scores equal to s_true
  uint64_t scored = 0;     ///< pairs whose candidate block was read
  uint64_t pruned = 0;     ///< pairs settled by the index row alone
  uint64_t effective = 0;  ///< effective-k: consistent candidates

  void Add(const JoinTally& other) {
    better += other.better;
    tied += other.tied;
    scored += other.scored;
    pruned += other.pruned;
    effective += other.effective;
  }
};

/// Candidate-major block nested-loop join of `victims` set-up victims
/// (indices 0..victims-1, meaning is the caller's) against every entry of
/// `source`, shared by re-identification and effective-k.
///
///   test(victim, candidate, row, JoinTally*) -> bool   per-pair index
///       test: true when the candidate's block must be read and scored
///       for this victim; it may settle the pair itself by bumping the
///       tally (a certified prune, a self-match).
///   score(victim, const Trajectory&, JoinTally*)       per-pair scorer
///       for a read candidate whose test passed.
///
/// Both are called concurrently for distinct candidates. The entries are
/// cut into a fixed number of contiguous ranges fanned out over `options`
/// (its grain is ignored: one range per task). For each candidate, in
/// index order, every victim is tested in victim order; the block is read
/// and CRC-checked at most once, and only when some victim's test passed,
/// then scored for each such victim in victim order. One distance is
/// charged to `options.context` per scored pair. Returns the per-victim
/// tallies summed over the ranges, or the first failed read in range
/// order. Memory: one tally per (range, victim), however large the
/// source. A template so that the per-pair calls inline: in the sparse
/// regime the pair tests are the whole cost.
template <typename RowTest, typename Scorer>
Result<std::vector<JoinTally>> JoinCandidates(
    const CandidateSource& source, size_t victims, const RowTest& test,
    const Scorer& score, parallel::ParallelOptions options) {
  // A fixed range count, not one proportional to the source: the
  // per-range tallies stay kRanges x victims at 500k candidates, and 64
  // ranges still balance a handful of threads.
  constexpr size_t kRanges = 64;
  const size_t n = source.size();
  const size_t ranges = std::min(kRanges, n);
  std::vector<JoinTally> tallies(ranges * victims);
  std::vector<Status> statuses(ranges);
  options.grain = 1;
  WCOP_RETURN_IF_ERROR(parallel::ParallelFor(
      ranges,
      [&](size_t r) {
        JoinTally* tally = tallies.data() + r * victims;
        std::vector<size_t> survivors;
        survivors.reserve(victims);
        const size_t end = (r + 1) * n / ranges;
        for (size_t j = r * n / ranges; j < end; ++j) {
          const store::StoreEntry& row = source.entry(j);
          survivors.clear();
          for (size_t v = 0; v < victims; ++v) {
            if (test(v, j, row, &tally[v])) {
              survivors.push_back(v);
            }
          }
          if (survivors.empty()) {
            continue;
          }
          Result<Trajectory> candidate = source.Read(j);
          if (!candidate.ok()) {
            statuses[r] = candidate.status();
            return;
          }
          if (options.context != nullptr) {
            options.context->ChargeDistance(survivors.size());
          }
          for (size_t v : survivors) {
            ++tally[v].scored;
            score(v, *candidate, &tally[v]);
          }
        }
      },
      options));
  for (const Status& status : statuses) {
    WCOP_RETURN_IF_ERROR(status);
  }
  std::vector<JoinTally> total(victims);
  for (size_t r = 0; r < ranges; ++r) {
    for (size_t v = 0; v < victims; ++v) {
      total[v].Add(tallies[r * victims + v]);
    }
  }
  return total;
}

}  // namespace attack
}  // namespace wcop

#endif  // WCOP_ATTACK_CANDIDATE_SOURCE_H_
