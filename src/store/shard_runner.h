#ifndef WCOP_STORE_SHARD_RUNNER_H_
#define WCOP_STORE_SHARD_RUNNER_H_

/// Sharded anonymization pipeline: partition a trajectory index, anonymize
/// every shard independently with WCOP-CT, audit each shard with the
/// verifier, and merge the published outputs and reports (DESIGN.md
/// "Dataset store & sharding").
///
/// The core runs over an index (store rows: ids, extents, requirements) and
/// a fetch callback that returns the trajectory at an index position, so
/// it serves both a store on disk — the reader overload reads each shard's
/// members straight from the source with CRC-checked `pread`s — and a
/// window's fragments already in memory (the continuous pipeline). No
/// intermediate store is written. Memory stays bounded by the shards in
/// flight plus the merged output; with `stream_output_store` set, the
/// merged output streams to disk too and peak memory is just the largest
/// shard — the out-of-core path the shard_scaling bench exercises at 500k+
/// trajectories.
///
/// Determinism: shards are derived from the index deterministically (see
/// partitioner.h), each shard preserves source order, per-shard runs are
/// deterministic in `wcop.threads` (PR 4's guarantee), and the merge
/// concatenates in shard order — so the published bytes and the merged
/// report (minus timings) are identical across thread counts, and a
/// single-shard run is byte-identical to the monolithic driver.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "anon/types.h"
#include "anon/verifier.h"
#include "common/result.h"
#include "store/partitioner.h"
#include "store/store_file.h"

namespace wcop {
namespace store {

/// Point-in-time progress of a sharded run, published through
/// ShardRunOptions::progress. `shards_done` counts completed shards
/// (checkpoint-restored ones included) and is monotonically increasing
/// across callbacks; `distance_calls` is the cumulative exact-distance
/// count of the completed shards.
struct ShardProgress {
  size_t shards_done = 0;
  size_t shards_total = 0;
  uint64_t distance_calls = 0;
};

struct ShardRunOptions {
  /// Base driver options. Per-shard copies get their own RunContext slice
  /// (parent deadline + cancellation token shared, resource budget divided
  /// evenly) and their own telemetry sink when `wcop.telemetry` is set.
  WcopOptions wcop;

  PartitionOptions partition;

  /// Ignored. Shards are read straight from the source and no shard store
  /// is written; kept only so existing callers that set it still compile.
  std::string shard_dir;

  /// Audit every shard's output against its input (VerifyAnonymity).
  bool verify_shards = true;

  /// When non-empty, each completed shard persists a checkpoint
  /// (`shard_NNNN.ckpt`, snapshot envelope) and a re-run with the same
  /// inputs and options resumes past it instead of re-anonymizing.
  std::string checkpoint_dir;

  /// Concurrent shards (scheduled over wcop::parallel). Values > 1 force
  /// the per-shard `wcop.threads` to 1 so the two parallelism layers do
  /// not oversubscribe. Output is identical for every value.
  int shard_parallelism = 1;

  /// When non-empty, published trajectories stream to this store file in
  /// shard order instead of accumulating in `merged.sanitized` (which then
  /// stays empty). Requires shard_parallelism == 1.
  std::string stream_output_store;

  /// Live progress sink, invoked once with (0, total, 0) before the shard
  /// phase starts and once after each shard completes. Callbacks are
  /// serialized (never concurrent) but may arrive from worker threads;
  /// keep the callback cheap and do not call back into the runner.
  std::function<void(const ShardProgress&)> progress;
};

/// Per-shard outcome retained by the merge.
struct ShardOutcome {
  size_t shard_index = 0;
  size_t input_trajectories = 0;
  AnonymizationReport report;
  VerificationReport verification;
  bool from_checkpoint = false;  ///< restored, not recomputed
};

struct ShardedRunResult {
  /// Concatenated published outputs + summed report. Cluster member
  /// indices are remapped to positions in the concatenated input order of
  /// all shards. `sanitized` is empty when `stream_output_store` is set.
  AnonymizationResult merged;
  Partition partition;
  std::vector<ShardOutcome> shards;
  bool all_verified = true;   ///< every shard audit passed (or audits off)
  size_t resumed_shards = 0;  ///< restored from checkpoints
  /// CRC32/size of the store written to `stream_output_store`, from the
  /// writer that produced it; zero when the output was not streamed.
  FileDigest output;
};

/// Returns the trajectory at position `i` of the run's index. Called once
/// per shard member, concurrently when shard_parallelism > 1.
using TrajectoryFetch = std::function<Result<Trajectory>(size_t i)>;

/// Runs the full pipeline over `index`, fetching each shard's members
/// through `fetch` when that shard starts.
Result<ShardedRunResult> RunShardedWcopCt(const std::vector<StoreEntry>& index,
                                          const TrajectoryFetch& fetch,
                                          const ShardRunOptions& options);

/// Runs the full pipeline over `source` (Open() succeeded), reading each
/// shard's members from it.
Result<ShardedRunResult> RunShardedWcopCt(const TrajectoryStoreReader& source,
                                          const ShardRunOptions& options);

/// Merges `b` into `a` the way the shard merger does: totals summed,
/// averages recomputed from the summed totals, omega / rounds / radius
/// maxed, degraded flags OR-ed, metrics counters summed. Exposed for tests.
void MergeReportInto(AnonymizationReport* a, const AnonymizationReport& b);

}  // namespace store
}  // namespace wcop

#endif  // WCOP_STORE_SHARD_RUNNER_H_
