#ifndef WCOP_PIPELINE_CONTINUOUS_H_
#define WCOP_PIPELINE_CONTINUOUS_H_

/// Out-of-core, resumable continuous publication (DESIGN.md "Continuous
/// publication pipeline").
///
/// The engine reads a finished `.wst` trajectory store, slices it into
/// fixed-width time windows, and publishes each window as its own
/// atomically-finished output store plus a manifest record — the durable
/// commit point (see manifest.h). Each window reads its source blocks once
/// and writes each artifact it commits once. Per window it:
///
///   1. extracts the window's fragments into memory (store/window_io.h),
///      merging carry-over records spilled by the previous window and
///      writing this window's own short-but-continuing fragments to the
///      next carry store,
///   2. re-partitions and anonymizes the fragments in memory through the
///      sharded WCOP-CT runner, streaming published trajectories straight
///      to the final window store (peak memory stays bounded by the
///      window's fragments plus one shard's working set, never the
///      dataset),
///   3. commits the manifest, whose CRC32/size digests come from the
///      writers that produced the bytes, then garbage-collects carry stores
///      older than the two-window retention horizon.
///
/// Robustness contract: `kill -9`, SIGTERM, ENOSPC, short writes, or a
/// torn rename at ANY point of the window lifecycle must, on a restarted
/// run with `resume = true`, converge to byte-identical published output.
/// The mechanism is determinism + atomic commits: every window is a pure
/// function of (source store, options, carry-over chain), every store and
/// manifest is published via write-tmp/fsync/rename, and restart replays
/// manifests from window 0, recomputing from the first window whose
/// manifest, output bytes, or input carry chain fail their CRC checks (the
/// only time published bytes are read back).
/// tests/pipeline_chaos_test.cc enforces the contract with a seeded kill
/// matrix and errno-injection schedules over the pipeline.* failpoints.

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

  /// Published windows land here as `window_NNNNN.wst` + `window_NNNNN.mfr`.
  /// Created if missing.
  std::string output_dir;

  /// Scratch space for the carry-over stores. Empty = `<output_dir>/.work`.
  /// Safe to delete between runs (costs recomputation, never correctness).
  std::string work_dir;

  /// Window width in seconds of trajectory time.
  double window_seconds = 3600.0;

  /// Fragments shorter than this are spilled to the next window when their
  /// source trajectory continues, else suppressed (paper §6 semantics).
  /// Values below 1 are treated as 1.
  size_t min_fragment_points = 2;

  /// Publish at most this many windows (0 = the full grid). The manifest
  /// chain stays valid either way, so a capped run is a prefix of — and
  /// resumable into — the full run.
  size_t max_windows = 0;

  /// When false (the default) a non-empty output directory that already
  /// contains `window_00000.mfr` is kFailedPrecondition — refusing to
  /// silently adopt previous state. When true, valid published windows are
  /// verified and skipped and the run continues from the first window that
  /// is missing or fails verification.
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
  /// One committed manifest per window, in window order — the same records
  /// durably stored next to the output stores.
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
