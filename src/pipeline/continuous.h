#ifndef WCOP_PIPELINE_CONTINUOUS_H_
#define WCOP_PIPELINE_CONTINUOUS_H_

/// Out-of-core, resumable continuous publication (DESIGN.md "Continuous
/// publication pipeline").
///
/// The engine reads a finished `.wst` trajectory store, slices it into
/// fixed-width time windows, and publishes each window as its own
/// atomically-finished output store plus a record in the output
/// directory's append-only window journal — the durable commit point (see
/// manifest.h). Each window reads its source blocks once and creates one
/// file, its published store. Per window it:
///
///   1. extracts the window's fragments into memory (store/window_io.h),
///      merging the carry-over records the previous window spilled and
///      setting aside this window's own short-but-continuing fragments as
///      the next window's carry; the carry stays in memory,
///   2. re-partitions and anonymizes the fragments in memory through the
///      sharded WCOP-CT runner, streaming published trajectories straight
///      to the final window store (peak memory stays bounded by the
///      window's fragments plus one shard's working set, never the
///      dataset),
///   3. appends the window's journal record — its manifest, whose CRC32/size
///      digests come from the writers that produced the bytes, and its
///      carried-out records — and fsyncs it.
///
/// Robustness contract: `kill -9`, SIGTERM, ENOSPC, short writes, or a
/// torn append at ANY point of the window lifecycle must, on a restarted
/// run with `resume = true`, converge to byte-identical published output.
/// The mechanism is determinism + atomic commits: every window is a pure
/// function of (source store, options, carry-in), every store is published
/// via write-tmp/fsync/rename and every journal record is appended and
/// fsynced. Restart reads the journal once, adopts the longest prefix of
/// valid records whose window stores match their CRC checks (the only time
/// published bytes are read back), and recomputes from the first window
/// that fails, taking its carry-in from the record before it: a torn
/// middle window recomputes from itself, not from window 0.
/// tests/pipeline_chaos_test.cc enforces the contract with a seeded kill
/// matrix and errno-injection schedules over the pipeline.* and snapshot.*
/// failpoints.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "anon/types.h"
#include "common/result.h"
#include "common/retry.h"
#include "pipeline/manifest.h"
#include "store/partitioner.h"
#include "store/store_file.h"

namespace wcop {
namespace pipeline {

/// Live progress of a pipeline run, invoked after every committed window
/// (resumed windows included, so a resumed run replays its progress).
struct PipelineProgress {
  size_t windows_done = 0;
  size_t windows_total = 0;
  uint64_t published_fragments = 0;
  uint64_t suppressed_fragments = 0;
  uint64_t carried = 0;  ///< carry records spilled by the last window
  double last_window_seconds = 0.0;  ///< wall time of the last window
};

struct ContinuousPipelineOptions {
  /// Finished source store (`.wst`) holding the full history to publish.
  std::string source_store;

  /// Published windows land here as `window_NNNNN.wst`, committed by
  /// records of `window_journal.jnl`. Created if missing. The pipeline
  /// writes nothing else.
  std::string output_dir;

  /// Ignored: the carry-over records stay in memory and in the journal, so
  /// the pipeline has no scratch files. Kept for source compatibility.
  std::string work_dir;

  /// Window width in seconds of trajectory time.
  double window_seconds = 3600.0;

  /// Fragments shorter than this are spilled to the next window when their
  /// source trajectory continues, else suppressed (paper §6 semantics).
  /// Values below 1 are treated as 1.
  size_t min_fragment_points = 2;

  /// Publish at most this many windows (0 = the full grid). The journal
  /// stays valid either way, so a capped run is a prefix of — and
  /// resumable into — the full run.
  size_t max_windows = 0;

  /// When false (the default) an output directory that already holds a
  /// window journal (or the `window_00000.mfr` manifest of the older
  /// per-window layout) is kFailedPrecondition — refusing to silently adopt
  /// previous state. When true, valid published windows are verified and
  /// skipped and the run continues from the first window that is missing
  /// or fails verification. An older-layout directory has no journal, so
  /// it recomputes from window 0.
  bool resume = false;

  /// Per-window anonymization options. `threads` is honored inside each
  /// shard; observability fields (telemetry) receive pipeline.* counters
  /// when set. Published bytes are independent of both (PR 4 guarantee).
  WcopOptions wcop;

  /// Per-window re-partitioning options (store/partitioner.h).
  store::PartitionOptions partition;

  /// Audit every shard of every window with VerifyAnonymity (slow; the
  /// chaos and e2e tests turn it on, production defaults off).
  bool verify_shards = false;

  /// When set, each window's whole execute-and-publish step runs under
  /// RetryCall: transient kIoError failures (the injected-ENOSPC class)
  /// re-run the window from extraction, which is idempotent. Non-owning.
  const RetryPolicy* publish_retry = nullptr;

  /// Progress sink; called once per committed window. Keep it cheap.
  std::function<void(const PipelineProgress&)> progress;
};

struct ContinuousPipelineResult {
  size_t windows_total = 0;
  size_t resumed_windows = 0;  ///< verified and skipped, not recomputed
  uint64_t published_fragments = 0;
  uint64_t suppressed_fragments = 0;  ///< includes the trailing carry
  uint64_t total_clusters = 0;
  double total_ttd = 0.0;
  bool degraded = false;
  /// One committed manifest per window, in window order — the manifests of
  /// the journal records stored next to the output stores.
  std::vector<WindowManifest> windows;
};

/// Everything that must match for previously published windows to be
/// adopted on resume: the source store's index (ids, sizes, extents,
/// requirements), the window grid, and the anonymization/partition options.
uint64_t PipelineConfigFingerprint(const store::TrajectoryStoreReader& source,
                                   const ContinuousPipelineOptions& options);

/// Runs (or resumes) the pipeline. See the robustness contract above.
Result<ContinuousPipelineResult> RunContinuousPipeline(
    const ContinuousPipelineOptions& options);

}  // namespace pipeline
}  // namespace wcop

#endif  // WCOP_PIPELINE_CONTINUOUS_H_
