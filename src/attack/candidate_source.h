#ifndef WCOP_ATTACK_CANDIDATE_SOURCE_H_
#define WCOP_ATTACK_CANDIDATE_SOURCE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "common/run_context.h"
#include "common/telemetry.h"
#include "index/box_tree.h"
#include "store/store_file.h"
#include "traj/dataset.h"

namespace wcop {
namespace attack {

/// Uniform candidate universe for the attacks: an indexed set of published
/// (or original) trajectories with per-entry metadata cheap enough to walk
/// without touching trajectory bytes, plus on-demand block reads. One
/// abstraction serves both in-memory Datasets (the benches, examples and
/// tests) and the out-of-core 500k-store audits — the index rows carry the spatial
/// MBR and lifetime that power the certified lower-bound pruning of the
/// re-identification scan (see reident.h). Both scans walk a source through
/// JoinCandidates below, which descends the rows' box tree and reads each
/// block at most once per block of victims.
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

  /// The index rows packed into one BoxTree over their MBR and lifetime,
  /// whose items are entry indices. Built on the first call and kept, so
  /// re-identification and effective-k share it, and a source that is
  /// never joined builds none. Kept: about 13 B per row (items and
  /// TreePosition 8 B, nodes about 4.5 B). Building it holds up to about
  /// 90 B per row more until it returns: a copy of the boxes, the sort's
  /// keyed items and id arrays. Thread-safe.
  const BoxTree& tree() const;

  /// Position of entry `i` among tree().items().
  uint32_t TreePosition(size_t i) const;

 protected:
  CandidateSource() = default;
  CandidateSource(CandidateSource&&) = default;
  CandidateSource& operator=(CandidateSource&&) = default;

  /// Derived constructors fill this once the keys are known.
  std::unordered_map<int64_t, size_t> by_key_;

 private:
  struct Packed {
    std::once_flag once;
    BoxTree tree;
    std::vector<uint32_t> position;  ///< entry index -> item position
  };
  const Packed& packed() const;

  // Heap-held so that the once_flag does not pin the source in place.
  std::unique_ptr<Packed> packed_ = std::make_unique<Packed>();
};

/// In-memory adapter over a Dataset (the benches, examples and unit
/// tests). Entries are synthesized from the trajectories; the truth
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
/// reads, and every Read is a CRC-checked block read, so memory beyond the
/// index is one int64 key per entry at any store size, plus the box tree
/// of a joined source (see tree(): about 13 B per row kept, up to about
/// 90 B per row more while it is built). With kParentId keys (the continuous
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

/// Spatial distance from `p` to a box's (x, y) extent, 0 when inside: an
/// index row's MBR (store::StoreEntry) or a tree node's box (XytBox).
/// Because Trajectory::PositionAt clamps in time but never leaves the
/// spatial MBR, on a row this is a certified lower bound on
/// SpatialDistance(t.PositionAt(any t), p) for the stored trajectory — the
/// pruning predicate of the re-identification scan and the effective-k
/// prefilter. Every operation in it is monotone in the bounds, so on a
/// node box that covers a row it never exceeds the row's value: the join
/// prunes nodes with the row formula itself and needs no slack. Inline: it
/// runs once per observation of every (victim, row or node) test.
template <typename Box>
inline double PointToEntryDistance(const Box& e, const Point& p) {
  const double dx = std::max({e.min_x - p.x, 0.0, p.x - e.max_x});
  const double dy = std::max({e.min_y - p.y, 0.0, p.y - e.max_y});
  return std::sqrt(dx * dx + dy * dy);
}

/// Integer tallies JoinCandidates keeps per victim. Each scan uses the
/// fields it needs; being integers, their sums over join tasks are the
/// same in any order, so they are exact at every thread count.
struct JoinTally {
  uint64_t better = 0;     ///< re-identification: scores below s_true
  uint64_t tied = 0;       ///< re-identification: scores equal to s_true
  uint64_t scored = 0;     ///< pairs whose candidate block was read
  uint64_t pruned = 0;     ///< pairs settled by a row or node box alone
  uint64_t effective = 0;  ///< effective-k: consistent candidates

  void Add(const JoinTally& other) {
    better += other.better;
    tied += other.tied;
    scored += other.scored;
    pruned += other.pruned;
    effective += other.effective;
  }
};

/// Candidate-major tree join of `victims` set-up victims (indices
/// 0..victims-1, meaning is the caller's) against every entry of `source`,
/// shared by re-identification and effective-k. It descends
/// source.tree(), the rows' (x, y, t) box tree, once per victim block, and
/// row-tests only the rows of the leaves a victim reaches:
///
///   node_test(victim, const BoxTree::Node&, JoinTally*) -> bool
///       per-(victim, node) test: true to descend. False settles the
///       victim for the node's whole subtree (rows items()[begin, end))
///       at once, and the test bumps the tally for those rows itself:
///       re-identification counts them pruned, except the victim's own
///       truth row, which is neither pruned nor scored, as in its row
///       test. It must be the row test's rejection evaluated on the node
///       box. The box is the plain union of the rows' boxes and every
///       operation of the bounds (rounded subtraction, max, sqrt,
///       addition, comparison) is monotone, so a node's value never
///       exceeds a member row's: a node holding a row the row test keeps
///       is never settled, with no slack.
///   row_test(victim, candidate, row, JoinTally*) -> bool
///       per-pair index test: true when the candidate's block must be
///       read and scored for this victim; it may settle the pair itself
///       by bumping the tally (a certified prune, a self-match).
///   score(victim, const Trajectory&, JoinTally*)
///       per-pair scorer for a read candidate whose row test passed.
///
/// A node keeps only the victims that passed its parent and pass it. The
/// leaves are cut into a fixed number of tasks of contiguous leaves (each
/// subtree's rows are contiguous), fanned out over `options` (its grain is
/// ignored: one task per chunk). The nodes that straddle a task cut are
/// tested first, once, on this thread; every other node is tested by the
/// one task that holds it, so each (victim, node) pair is tested at most
/// once, as in a serial descent. In a leaf, each row in leaf order is
/// tested for every victim left, in victim order; its block is read and
/// CRC-checked at most once, and only when some victim's test passed, then
/// scored for each such victim in victim order. One distance is charged to
/// `options.context` per scored pair. The three callbacks are called
/// concurrently for distinct nodes and rows.
///
/// Returns the per-victim tallies summed over the tasks, or the first
/// failed read in task order. Memory: one tally per (task, victim), however
/// large the source. Adds the (victim, node) tests to the
/// `attack.join.node_tests` counter and the (victim, row) tests to
/// `attack.join.row_tests`; both depend only on the source and the victims,
/// never on the thread count. Each task runs under an `attack/join_task`
/// span. A template so that the per-pair calls inline.
template <typename NodeTest, typename RowTest, typename Scorer>
Result<std::vector<JoinTally>> JoinCandidates(
    const CandidateSource& source, size_t victims, const NodeTest& node_test,
    const RowTest& row_test, const Scorer& score,
    parallel::ParallelOptions options) {
  // A fixed task count, not one proportional to the source: the per-task
  // tallies stay kTasks x victims at 500k candidates, and 64 tasks still
  // balance a handful of threads.
  constexpr size_t kTasks = 64;
  std::vector<JoinTally> total(victims);
  if (victims == 0 || source.size() == 0) {
    return total;
  }
  const BoxTree& tree = source.tree();
  const std::vector<BoxTree::Node>& nodes = tree.nodes();
  const std::vector<uint32_t>& items = tree.items();
  const std::vector<uint32_t>& leaves = tree.leaves();
  const size_t tasks = std::min(kTasks, leaves.size());
  // Task r holds the rows items()[cut[r], cut[r + 1]).
  std::vector<uint32_t> cut(tasks + 1);
  for (size_t r = 0; r < tasks; ++r) {
    cut[r] = nodes[leaves[r * leaves.size() / tasks]].begin;
  }
  cut[tasks] = static_cast<uint32_t>(items.size());

  // One tally row per task, plus one (the last) for the straddling nodes.
  std::vector<JoinTally> tallies((tasks + 1) * victims);
  uint64_t node_tests = 0;

  // The straddling nodes, tested here: each node that lies inside one task
  // becomes that task's work, with the victims that passed its parent
  // (an index into `alive`). A leaf never straddles: the cuts are leaf
  // boundaries.
  struct Work {
    uint32_t node;
    uint32_t alive;
  };
  std::vector<std::vector<uint32_t>> alive(1);
  alive[0].resize(victims);
  std::iota(alive[0].begin(), alive[0].end(), 0u);
  std::vector<std::vector<Work>> work(tasks);
  JoinTally* top = tallies.data() + tasks * victims;
  const auto split = [&](const auto& self, uint32_t n, uint32_t from) -> void {
    const BoxTree::Node& node = nodes[n];
    const size_t r = static_cast<size_t>(
        std::upper_bound(cut.begin(), cut.end(), node.begin) - cut.begin() -
        1);
    if (node.end <= cut[r + 1]) {
      work[r].push_back({n, from});
      return;
    }
    std::vector<uint32_t> passed;
    for (uint32_t v : alive[from]) {
      if (node_test(v, node, &top[v])) {
        passed.push_back(v);
      }
    }
    node_tests += alive[from].size();
    if (passed.empty()) {
      return;
    }
    alive.push_back(std::move(passed));
    const uint32_t id = static_cast<uint32_t>(alive.size() - 1);
    for (uint32_t c = node.first; c < node.first + node.count; ++c) {
      self(self, c, id);
    }
  };
  split(split, tree.root(), 0);

  std::vector<Status> statuses(tasks);
  std::vector<uint64_t> task_node_tests(tasks);
  std::vector<uint64_t> task_row_tests(tasks);
  options.grain = 1;
  WCOP_RETURN_IF_ERROR(parallel::ParallelFor(
      tasks,
      [&](size_t r) {
        WCOP_TRACE_SPAN(options.telemetry, "attack/join_task");
        JoinTally* tally = tallies.data() + r * victims;
        // passed[d]: the victims left at the node at depth d below the
        // work item's node.
        std::vector<std::vector<uint32_t>> passed(tree.height());
        std::vector<uint32_t> survivors;
        uint64_t node_count = 0;
        uint64_t row_count = 0;
        // Visits node `n` for the victims that passed its parent; false
        // once a block read failed.
        const auto visit = [&](const auto& self, uint32_t n,
                               const std::vector<uint32_t>& parent,
                               size_t depth) -> bool {
          const BoxTree::Node& node = nodes[n];
          std::vector<uint32_t>& left = passed[depth];
          left.clear();
          for (uint32_t v : parent) {
            if (node_test(v, node, &tally[v])) {
              left.push_back(v);
            }
          }
          node_count += parent.size();
          if (left.empty()) {
            return true;
          }
          if (!node.leaf()) {
            for (uint32_t c = node.first; c < node.first + node.count; ++c) {
              if (!self(self, c, left, depth + 1)) {
                return false;
              }
            }
            return true;
          }
          for (uint32_t p = node.begin; p < node.end; ++p) {
            const size_t j = items[p];
            const store::StoreEntry& row = source.entry(j);
            survivors.clear();
            for (uint32_t v : left) {
              if (row_test(v, j, row, &tally[v])) {
                survivors.push_back(v);
              }
            }
            row_count += left.size();
            if (survivors.empty()) {
              continue;
            }
            Result<Trajectory> candidate = source.Read(j);
            if (!candidate.ok()) {
              statuses[r] = candidate.status();
              return false;
            }
            if (options.context != nullptr) {
              options.context->ChargeDistance(survivors.size());
            }
            for (uint32_t v : survivors) {
              ++tally[v].scored;
              score(v, *candidate, &tally[v]);
            }
          }
          return true;
        };
        for (const Work& w : work[r]) {
          if (!visit(visit, w.node, alive[w.alive], 0)) {
            break;
          }
        }
        task_node_tests[r] = node_count;
        task_row_tests[r] = row_count;
      },
      options));
  for (const Status& status : statuses) {
    WCOP_RETURN_IF_ERROR(status);
  }
  uint64_t row_tests = 0;
  for (size_t r = 0; r < tasks; ++r) {
    node_tests += task_node_tests[r];
    row_tests += task_row_tests[r];
  }
  for (size_t r = 0; r <= tasks; ++r) {
    for (size_t v = 0; v < victims; ++v) {
      total[v].Add(tallies[r * victims + v]);
    }
  }
  if (options.telemetry != nullptr) {
    telemetry::MetricsRegistry& metrics = options.telemetry->metrics();
    metrics.GetCounter("attack.join.node_tests")->Add(node_tests);
    metrics.GetCounter("attack.join.row_tests")->Add(row_tests);
  }
  return total;
}

}  // namespace attack
}  // namespace wcop

#endif  // WCOP_ATTACK_CANDIDATE_SOURCE_H_
