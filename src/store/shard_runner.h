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
#include <string_view>
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

/// A shard's checkpointed outcome: what a resumed run restores instead of
/// re-anonymizing the shard.
struct ShardCheckpoint {
  AnonymizationResult result;
  VerificationReport verification;
};

/// Snapshot-envelope format version of `shard_NNNNN.ckpt`.
inline constexpr uint32_t kShardCheckpointVersion = 2;

/// Checkpoint payload: fingerprint, report (timings excluded — a resumed
/// merge must be deterministic), verification verdict, deterministic
/// metric counters/gauges (histograms hold timings and are dropped), the
/// trash, the clusters (shard-local indices), and the published
/// trajectories as binary store records (AppendTrajectoryRecord), which
/// start right after the newline that ends the "published <count>" line.
std::string EncodeShardCheckpoint(uint64_t fingerprint,
                                  const ShardCheckpoint& state);

/// Decodes an EncodeShardCheckpoint payload. kFailedPrecondition when it
/// was written for another fingerprint (another shard or configuration);
/// kDataLoss for anything the encoder never writes: a sign on an unsigned
/// field, '+' on a signed one, a flag other than 0/1, a cluster pivot or
/// member outside the shard's input, a k outside int, bytes after "end".
/// Exposed for tests.
Result<ShardCheckpoint> DecodeShardCheckpoint(std::string_view payload,
                                              uint64_t expected_fingerprint);

/// Merges `b` into `a` the way the shard merger does: totals summed,
/// averages recomputed from the summed totals, omega / rounds / radius
/// maxed, degraded flags OR-ed, metrics counters summed. Exposed for tests.
void MergeReportInto(AnonymizationReport* a, const AnonymizationReport& b);

}  // namespace store
}  // namespace wcop

#endif  // WCOP_STORE_SHARD_RUNNER_H_
