#include "pipeline/continuous.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <system_error>
#include <utility>

#include "anon/checkpoint.h"
#include "common/failpoint.h"
#include "common/log.h"
#include "common/telemetry.h"
#include "store/shard_runner.h"
#include "store/window_io.h"

namespace wcop {
namespace pipeline {

namespace {

namespace fs = std::filesystem;

// FNV-1a, same constants as the checkpoint fingerprints — the pipeline
// hashes its dataset through the store index instead of materialized
// trajectories, so it composes WcopOptionsFingerprint with its own walk.
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void HashU64(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (i * 8)) & 0xffULL;
    *h *= kFnvPrime;
  }
}

void HashI64(uint64_t* h, int64_t v) { HashU64(h, static_cast<uint64_t>(v)); }

void HashDouble(uint64_t* h, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  HashU64(h, bits);
}

std::string IndexName(const char* prefix, size_t window, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%05llu%s", prefix,
                static_cast<unsigned long long>(window), suffix);
  return buf;
}

std::string WindowStorePath(const std::string& output_dir, size_t window) {
  return output_dir + "/" + IndexName("window_", window, ".wst");
}

std::string JournalPath(const std::string& output_dir) {
  return output_dir + "/" + std::string(kWindowJournalName);
}

/// The first manifest of the per-window `.mfr` layout the journal replaced.
/// Its presence marks a directory with published windows as surely as a
/// journal does.
std::string OldFirstManifestPath(const std::string& output_dir) {
  return output_dir + "/" + IndexName("window_", 0, ".mfr");
}

Status EnsureDir(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create directory " + dir + ": " +
                           ec.message());
  }
  return Status::OK();
}

/// Publishes a valid-but-empty store at `path` (atomic tmp -> rename),
/// for windows whose extraction produced no fragments or whose
/// anonymization suppressed everything, and returns its digest.
Result<FileDigest> WriteEmptyStore(const std::string& path,
                                   telemetry::Telemetry* tel) {
  WCOP_TRACE_SPAN(tel, "pipeline/commit");
  WCOP_ASSIGN_OR_RETURN(store::TrajectoryStoreWriter writer,
                        store::TrajectoryStoreWriter::Create(path));
  WCOP_RETURN_IF_ERROR(writer.Finish());
  return writer.digest();
}

/// True when `status` means "this window cannot be anonymized as given"
/// rather than "the run is broken": the window publishes empty with
/// skipped=1, and all of its input fragments count as suppressed.
bool IsWindowSkip(const Status& status) {
  return status.code() == StatusCode::kUnsatisfiable ||
         status.code() == StatusCode::kInvalidArgument;
}

/// Checks a journal record against the published window it commits: its
/// configuration, then the window store's bytes. kFailedPrecondition when
/// the window was published under another configuration; kDataLoss when
/// the store no longer matches the recorded digest.
Status ValidatePublishedWindow(const std::string& output_dir,
                               const WindowManifest& manifest,
                               uint64_t fingerprint) {
  const size_t window = manifest.window_index;
  if (manifest.config_fingerprint != fingerprint) {
    return Status::FailedPrecondition(
        "window " + std::to_string(window) +
        " was published under a different source or configuration");
  }
  WCOP_ASSIGN_OR_RETURN(FileDigest output,
                        DigestFile(WindowStorePath(output_dir, window)));
  if (output.crc != manifest.output_crc || output.size != manifest.output_size) {
    return Status::DataLoss("window store " + std::to_string(window) +
                            " does not match its journal digest");
  }
  return Status::OK();
}

}  // namespace

uint64_t PipelineConfigFingerprint(const store::TrajectoryStoreReader& source,
                                   const ContinuousPipelineOptions& options) {
  uint64_t h = kFnvOffset;
  HashU64(&h, 0x50495045ULL);  // "PIPE" domain separator
  const std::vector<store::StoreEntry>& index = source.index();
  HashU64(&h, index.size());
  for (const store::StoreEntry& entry : index) {
    HashI64(&h, entry.id);
    HashU64(&h, entry.num_points);
    HashI64(&h, entry.k);
    HashDouble(&h, entry.delta);
    HashDouble(&h, entry.min_x);
    HashDouble(&h, entry.min_y);
    HashDouble(&h, entry.max_x);
    HashDouble(&h, entry.max_y);
    HashDouble(&h, entry.t_min);
    HashDouble(&h, entry.t_max);
  }
  HashDouble(&h, options.window_seconds);
  HashU64(&h, options.min_fragment_points);
  // max_windows is deliberately NOT hashed: a capped run is a prefix of the
  // full grid, so raising the cap must resume into the published prefix.
  HashDouble(&h, options.partition.overlap_margin);
  HashU64(&h, options.partition.target_shard_size);
  HashU64(&h, options.partition.max_shard_size);
  HashU64(&h, options.partition.min_shard_size);
  HashU64(&h, options.partition.num_shards);
  HashU64(&h, WcopOptionsFingerprint(options.wcop));
  return h;
}

Result<ContinuousPipelineResult> RunContinuousPipeline(
    const ContinuousPipelineOptions& options) {
  if (options.source_store.empty() || options.output_dir.empty()) {
    return Status::InvalidArgument(
        "continuous pipeline: source_store and output_dir are required");
  }

  WCOP_ASSIGN_OR_RETURN(store::TrajectoryStoreReader source,
                        store::TrajectoryStoreReader::Open(
                            options.source_store));
  if (source.size() == 0) {
    return Status::InvalidArgument("continuous pipeline: source store " +
                                   options.source_store + " is empty");
  }
  WCOP_RETURN_IF_ERROR(EnsureDir(options.output_dir));

  // Window grid over the source's full lifetime. The pipeline partitions
  // time as [WindowStart(i), WindowStart(i+1)) — exact at shared
  // boundaries, so a point belongs to exactly one window and a carry merge
  // can never see a duplicate sample.
  double t_min = std::numeric_limits<double>::infinity();
  double t_max = -std::numeric_limits<double>::infinity();
  for (const store::StoreEntry& entry : source.index()) {
    t_min = std::min(t_min, entry.t_min);
    t_max = std::max(t_max, entry.t_max);
  }
  WCOP_ASSIGN_OR_RETURN(
      const store::WindowPlan plan,
      store::PlanWindows(t_min, t_max, options.window_seconds));
  size_t windows_total = plan.num_windows;
  if (options.max_windows > 0) {
    windows_total = std::min(windows_total, options.max_windows);
  }

  const uint64_t fingerprint = PipelineConfigFingerprint(source, options);

  telemetry::Telemetry* tel = options.wcop.telemetry;
  telemetry::Counter* windows_published = nullptr;
  telemetry::Counter* windows_resumed = nullptr;
  telemetry::Counter* windows_retried = nullptr;
  if (tel != nullptr) {
    windows_published = tel->metrics().GetCounter("pipeline.windows_published");
    windows_resumed = tel->metrics().GetCounter("pipeline.windows_resumed");
    windows_retried = tel->metrics().GetCounter("pipeline.windows_retried");
    tel->metrics().GetGauge("pipeline.windows_total")
        ->Set(static_cast<double>(windows_total));
  }

  ContinuousPipelineResult result;
  result.windows_total = windows_total;

  // ---- Resume scan: adopt the longest valid published prefix. ----------
  const std::string journal_path = JournalPath(options.output_dir);
  if (!options.resume &&
      (fs::exists(journal_path) ||
       fs::exists(OldFirstManifestPath(options.output_dir)))) {
    return Status::FailedPrecondition(
        "output directory " + options.output_dir +
        " already holds published windows; pass resume to continue them");
  }
  WindowJournal journal(journal_path);
  std::vector<WindowRecord> records;
  WCOP_RETURN_IF_ERROR(journal.Read(&records));
  // The carry-over records the next window to run merges: those its
  // predecessor's record committed.
  std::vector<Trajectory> carry;
  size_t first_window = 0;
  for (WindowRecord& record : records) {
    if (first_window == windows_total) {
      break;  // a capped run adopts only its prefix of the grid
    }
    const Status valid = ValidatePublishedWindow(
        options.output_dir, record.manifest, fingerprint);
    if (valid.code() == StatusCode::kFailedPrecondition) {
      return valid;  // config mismatch is never recoverable
    }
    if (!valid.ok()) {
      log::Info("pipeline: window needs recompute",
                {{"window", first_window}, {"reason", valid.ToString()}});
      break;
    }
    const WindowManifest& m = record.manifest;
    result.published_fragments += m.published_fragments;
    result.suppressed_fragments += m.suppressed_delta;
    result.total_clusters += m.clusters;
    result.total_ttd += m.ttd;
    result.degraded = result.degraded || m.degraded;
    result.windows.push_back(m);
    carry = std::move(record.carry);
    ++first_window;
  }
  records.clear();
  result.resumed_windows = first_window;
  if (windows_resumed != nullptr && first_window > 0) {
    windows_resumed->Add(first_window);
  }

  int64_t next_fragment_id =
      first_window == 0 ? 0 : result.windows.back().next_fragment_id;

  // ---- Window loop. ----------------------------------------------------
  for (size_t wi = first_window; wi < windows_total; ++wi) {
    const auto wall_start = std::chrono::steady_clock::now();
    const double window_start = plan.WindowStart(wi);
    const double window_end = plan.WindowStart(wi + 1);
    const std::string output_path = WindowStorePath(options.output_dir, wi);

    WindowRecord committed;
    bool window_degraded = false;
    int attempts = 0;
    auto run_window = [&]() -> Status {
      committed = WindowRecord();
      window_degraded = false;
      WCOP_FAILPOINT("pipeline.window_start");

      // 1. Extract the window's fragments and carry-out into memory.
      store::WindowExtractOptions extract;
      extract.window_start = window_start;
      extract.window_end = window_end;
      extract.min_fragment_points = options.min_fragment_points;
      extract.next_fragment_id = next_fragment_id;
      extract.carry_in = carry;
      Result<store::WindowExtraction> extracted = [&] {
        WCOP_TRACE_SPAN(tel, "pipeline/extract");
        return store::ExtractWindow(source, extract);
      }();
      WCOP_ASSIGN_OR_RETURN(store::WindowExtraction extraction,
                            std::move(extracted));
      WCOP_FAILPOINT("pipeline.window_extracted");

      // The manifest's digests come from the writers that produced the
      // bytes. The input digest pins the extraction (the store image the
      // fragments encode to), the output digest is the byte-identity
      // witness that resume verifies.
      WindowManifest& m = committed.manifest;
      m.config_fingerprint = fingerprint;
      m.window_index = wi;
      m.window_start = window_start;
      m.window_end = window_end;
      m.input_fragments = extraction.fragments;
      m.carried_in = extraction.carried_in;
      m.carried_out = extraction.carried_out;
      m.suppressed_delta = extraction.suppressed;
      m.next_fragment_id = extraction.next_fragment_id;
      m.input_crc = extraction.input.crc;
      m.input_size = extraction.input.size;
      committed.carry = std::move(extraction.carry);

      // 2. Anonymize the fragments in memory, streaming published fragments
      //    straight to the final window store (its Finish() is the atomic
      //    output publish). A stale store from a torn attempt is replaced.
      FileDigest output;
      if (extraction.fragments == 0) {
        WCOP_ASSIGN_OR_RETURN(output, WriteEmptyStore(output_path, tel));
      } else {
        store::ShardRunOptions run;
        run.wcop = options.wcop;
        run.partition = options.partition;
        run.verify_shards = options.verify_shards;
        run.shard_parallelism = 1;  // stream_output_store requires it
        run.stream_output_store = output_path;
        const std::vector<Trajectory>& fragments = extraction.trajectories;
        Result<store::ShardedRunResult> sharded = store::RunShardedWcopCt(
            extraction.index,
            [&fragments](size_t i) -> Result<Trajectory> {
              return fragments[i];
            },
            run);
        if (!sharded.ok() && IsWindowSkip(sharded.status())) {
          log::Warn("pipeline: window skipped",
                    {{"window", wi},
                     {"reason", sharded.status().ToString()}});
          WCOP_ASSIGN_OR_RETURN(output, WriteEmptyStore(output_path, tel));
          m.skipped = true;
          m.suppressed_delta += m.input_fragments;
        } else if (!sharded.ok()) {
          return sharded.status();
        } else {
          const AnonymizationReport& report = sharded->merged.report;
          m.published_fragments =
              m.input_fragments - report.trashed_trajectories;
          m.suppressed_delta += report.trashed_trajectories;
          m.clusters = report.num_clusters;
          m.ttd = report.ttd;
          m.degraded = report.degraded;
          window_degraded = report.degraded;
          output = sharded->output;
        }
      }
      WCOP_FAILPOINT("pipeline.window_anonymized");
      m.output_crc = output.crc;
      m.output_size = output.size;
      WCOP_FAILPOINT("pipeline.window_published");

      // 3. Commit point: the window's journal record. An earlier attempt's
      //    record for this window, if any, is replaced.
      {
        WCOP_TRACE_SPAN(tel, "pipeline/commit");
        WCOP_RETURN_IF_ERROR(journal.Append(committed));
      }
      WCOP_FAILPOINT("pipeline.manifest_saved");
      return Status::OK();
    };

    Status window_status;
    if (options.publish_retry != nullptr) {
      window_status = RetryCall(*options.publish_retry, run_window, &attempts);
      if (attempts > 1 && windows_retried != nullptr) {
        windows_retried->Add(static_cast<uint64_t>(attempts - 1));
      }
    } else {
      window_status = run_window();
    }
    WCOP_RETURN_IF_ERROR(window_status);

    const WindowManifest& m = committed.manifest;
    result.published_fragments += m.published_fragments;
    result.suppressed_fragments += m.suppressed_delta;
    result.total_clusters += m.clusters;
    result.total_ttd += m.ttd;
    result.degraded = result.degraded || window_degraded;
    result.windows.push_back(m);
    next_fragment_id = m.next_fragment_id;
    carry = std::move(committed.carry);
    if (windows_published != nullptr) {
      windows_published->Add();
    }
    if (tel != nullptr) {
      tel->metrics().GetGauge("pipeline.windows_done")
          ->Set(static_cast<double>(wi + 1));
      tel->metrics().GetGauge("pipeline.carry_records")
          ->Set(static_cast<double>(m.carried_out));
    }
    if (options.progress) {
      PipelineProgress progress;
      progress.windows_done = wi + 1;
      progress.windows_total = windows_total;
      progress.published_fragments = result.published_fragments;
      progress.suppressed_fragments = result.suppressed_fragments;
      progress.carried = m.carried_out;
      progress.last_window_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();
      options.progress(progress);
    }
  }

  // A trailing carry never publishes: its source trajectories ended before
  // accumulating min_fragment_points in the final window. Count it as
  // suppressed so fragment accounting closes over the whole run.
  if (!result.windows.empty()) {
    result.suppressed_fragments += result.windows.back().carried_out;
  }
  return result;
}

}  // namespace pipeline
}  // namespace wcop
