#include "store/shard_runner.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "anon/checkpoint.h"
#include "anon/wcop.h"
#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/snapshot.h"
#include "common/stopwatch.h"
#include "common/text_codec.h"

namespace wcop {
namespace store {

namespace {

Status MakeDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create directory " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

std::string ShardFileName(const std::string& dir, const char* stem,
                          size_t shard_index, const char* ext) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s_%05zu%s", stem, shard_index, ext);
  return dir + "/" + buf;
}

// ---- fingerprint -------------------------------------------------------

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FnvMixDouble(uint64_t h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  return FnvMix(h, bits);
}

/// Everything that must match for a shard checkpoint to be replayable:
/// the shard's dataset (ids, requirements, every point) and the driver
/// options that shape its output. `threads` is deliberately excluded —
/// PR 4 guarantees thread-count independence.
uint64_t ShardConfigFingerprint(const Dataset& shard_dataset,
                                const WcopOptions& options) {
  uint64_t h = DatasetFingerprint(shard_dataset);
  h = FnvMixDouble(h, options.trash_fraction);
  h = FnvMix(h, options.trash_max_override);
  h = FnvMixDouble(h, options.radius_max);
  h = FnvMixDouble(h, options.radius_growth);
  h = FnvMix(h, options.max_clustering_rounds);
  h = FnvMix(h, static_cast<uint64_t>(options.distance.kind));
  h = FnvMixDouble(h, options.distance.tolerance.dx);
  h = FnvMixDouble(h, options.distance.tolerance.dy);
  h = FnvMixDouble(h, options.distance.tolerance.dt);
  h = FnvMixDouble(h, options.distance.edr_scale);
  h = FnvMix(h, options.seed);
  h = FnvMix(h, static_cast<uint64_t>(options.pivot_policy));
  h = FnvMix(h, static_cast<uint64_t>(options.clustering_algo));
  h = FnvMix(h, static_cast<uint64_t>(options.delta_policy));
  h = FnvMix(h, options.allow_partial_results ? 1 : 0);
  return h;
}

// ---- checkpoint text codec (snapshot-envelope payload) -----------------
//
// The text sections go through common/text_codec.h; the published
// trajectories are binary store records (ParseTrajectoryRecord). Every
// decode failure is kDataLoss, so a damaged checkpoint falls back to
// recompute.

using text::AppendF64;
using text::AppendI64;
using text::AppendU64;

constexpr std::string_view kCheckpointWhat = "shard checkpoint";

/// 0 or 1, the only values the encoder writes for a flag.
Result<bool> NextFlag(text::TokenScanner* scan) {
  WCOP_ASSIGN_OR_RETURN(uint64_t v, scan->NextU64());
  if (v > 1) {
    return Status::DataLoss("shard checkpoint: bad flag");
  }
  return v == 1;
}

}  // namespace

std::string EncodeShardCheckpoint(uint64_t fingerprint,
                                  const ShardCheckpoint& state) {
  const AnonymizationReport& r = state.result.report;
  std::string out = "wcop-shard-checkpoint ";
  AppendU64(&out, kShardCheckpointVersion);
  out.append("\nfingerprint ");
  AppendU64(&out, fingerprint);
  out.append("\nreport ");
  AppendU64(&out, r.input_trajectories);
  AppendU64(&out, r.num_clusters);
  AppendU64(&out, r.trashed_trajectories);
  AppendU64(&out, r.trashed_points);
  AppendF64(&out, r.discernibility);
  AppendU64(&out, r.created_points);
  AppendU64(&out, r.deleted_points);
  AppendF64(&out, r.total_spatial_translation);
  AppendF64(&out, r.total_temporal_translation);
  AppendF64(&out, r.avg_spatial_translation);
  AppendF64(&out, r.avg_temporal_translation);
  AppendF64(&out, r.omega);
  AppendF64(&out, r.ttd);
  AppendF64(&out, r.editing_distortion);
  AppendF64(&out, r.total_distortion);
  AppendU64(&out, r.clustering_rounds);
  AppendF64(&out, r.final_radius);
  AppendU64(&out, r.degraded ? 1 : 0);
  out.append("\nverification ");
  AppendU64(&out, state.verification.ok ? 1 : 0);
  AppendU64(&out, state.verification.clusters_checked);
  AppendU64(&out, state.verification.violations);
  out.append("\ncounters ");
  AppendU64(&out, r.metrics.counters.size());
  out.push_back('\n');
  for (const auto& [name, value] : r.metrics.counters) {
    out.append(name);
    out.push_back(' ');
    AppendU64(&out, value);
    out.push_back('\n');
  }
  out.append("gauges ");
  AppendU64(&out, r.metrics.gauges.size());
  out.push_back('\n');
  for (const auto& [name, value] : r.metrics.gauges) {
    out.append(name);
    out.push_back(' ');
    AppendF64(&out, value);
    out.push_back('\n');
  }
  out.append("trashed ");
  AppendU64(&out, state.result.trashed_ids.size());
  for (int64_t id : state.result.trashed_ids) {
    AppendI64(&out, id);
  }
  out.append("\nclusters ");
  AppendU64(&out, state.result.clusters.size());
  out.push_back('\n');
  for (const AnonymityCluster& c : state.result.clusters) {
    AppendU64(&out, c.pivot);
    AppendI64(&out, c.k);
    AppendF64(&out, c.delta);
    AppendU64(&out, c.members.size());
    for (size_t m : c.members) {
      AppendU64(&out, m);
    }
    out.push_back('\n');
  }
  out.append("published ");
  AppendU64(&out, state.result.sanitized.size());
  out.push_back('\n');
  for (const Trajectory& t : state.result.sanitized.trajectories()) {
    AppendTrajectoryRecord(&out, t);
  }
  out.append("end\n");
  return out;
}

Result<ShardCheckpoint> DecodeShardCheckpoint(std::string_view payload,
                                              uint64_t expected_fingerprint) {
  text::TokenScanner scan(payload, kCheckpointWhat);
  WCOP_RETURN_IF_ERROR(scan.Expect("wcop-shard-checkpoint"));
  WCOP_ASSIGN_OR_RETURN(uint64_t codec_version, scan.NextU64());
  if (codec_version != kShardCheckpointVersion) {
    return Status::DataLoss("shard checkpoint: unknown codec version");
  }
  WCOP_RETURN_IF_ERROR(scan.Expect("fingerprint"));
  WCOP_ASSIGN_OR_RETURN(uint64_t fingerprint, scan.NextU64());
  if (fingerprint != expected_fingerprint) {
    return Status::FailedPrecondition(
        "shard checkpoint does not match this shard/configuration");
  }
  ShardCheckpoint state;
  AnonymizationReport& r = state.result.report;
  WCOP_RETURN_IF_ERROR(scan.Expect("report"));
  WCOP_ASSIGN_OR_RETURN(r.input_trajectories, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(r.num_clusters, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(r.trashed_trajectories, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(r.trashed_points, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(r.discernibility, scan.NextF64());
  WCOP_ASSIGN_OR_RETURN(r.created_points, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(r.deleted_points, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(r.total_spatial_translation, scan.NextF64());
  WCOP_ASSIGN_OR_RETURN(r.total_temporal_translation, scan.NextF64());
  WCOP_ASSIGN_OR_RETURN(r.avg_spatial_translation, scan.NextF64());
  WCOP_ASSIGN_OR_RETURN(r.avg_temporal_translation, scan.NextF64());
  WCOP_ASSIGN_OR_RETURN(r.omega, scan.NextF64());
  WCOP_ASSIGN_OR_RETURN(r.ttd, scan.NextF64());
  WCOP_ASSIGN_OR_RETURN(r.editing_distortion, scan.NextF64());
  WCOP_ASSIGN_OR_RETURN(r.total_distortion, scan.NextF64());
  WCOP_ASSIGN_OR_RETURN(r.clustering_rounds, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(r.final_radius, scan.NextF64());
  WCOP_ASSIGN_OR_RETURN(r.degraded, NextFlag(&scan));
  WCOP_RETURN_IF_ERROR(scan.Expect("verification"));
  WCOP_ASSIGN_OR_RETURN(state.verification.ok, NextFlag(&scan));
  WCOP_ASSIGN_OR_RETURN(state.verification.clusters_checked, scan.NextU64());
  WCOP_ASSIGN_OR_RETURN(state.verification.violations, scan.NextU64());
  WCOP_RETURN_IF_ERROR(scan.Expect("counters"));
  WCOP_ASSIGN_OR_RETURN(uint64_t num_counters, scan.NextU64());
  if (num_counters > payload.size()) {
    return Status::DataLoss("shard checkpoint: implausible counter count");
  }
  for (uint64_t i = 0; i < num_counters; ++i) {
    WCOP_ASSIGN_OR_RETURN(std::string_view name, scan.Next());
    WCOP_ASSIGN_OR_RETURN(uint64_t value, scan.NextU64());
    r.metrics.counters.emplace_back(std::string(name), value);
  }
  WCOP_RETURN_IF_ERROR(scan.Expect("gauges"));
  WCOP_ASSIGN_OR_RETURN(uint64_t num_gauges, scan.NextU64());
  if (num_gauges > payload.size()) {
    return Status::DataLoss("shard checkpoint: implausible gauge count");
  }
  for (uint64_t i = 0; i < num_gauges; ++i) {
    WCOP_ASSIGN_OR_RETURN(std::string_view name, scan.Next());
    WCOP_ASSIGN_OR_RETURN(double value, scan.NextF64());
    r.metrics.gauges.emplace_back(std::string(name), value);
  }
  WCOP_RETURN_IF_ERROR(scan.Expect("trashed"));
  WCOP_ASSIGN_OR_RETURN(uint64_t num_trashed, scan.NextU64());
  if (num_trashed > payload.size()) {
    return Status::DataLoss("shard checkpoint: implausible trash count");
  }
  state.result.trashed_ids.reserve(num_trashed);
  for (uint64_t i = 0; i < num_trashed; ++i) {
    WCOP_ASSIGN_OR_RETURN(int64_t id, scan.NextI64());
    state.result.trashed_ids.push_back(id);
  }
  WCOP_RETURN_IF_ERROR(scan.Expect("clusters"));
  WCOP_ASSIGN_OR_RETURN(uint64_t num_clusters, scan.NextU64());
  if (num_clusters > payload.size()) {
    return Status::DataLoss("shard checkpoint: implausible cluster count");
  }
  state.result.clusters.reserve(num_clusters);
  for (uint64_t i = 0; i < num_clusters; ++i) {
    // Pivot and members index the shard's input; k was an int.
    AnonymityCluster c;
    WCOP_ASSIGN_OR_RETURN(uint64_t pivot, scan.NextU64());
    if (pivot >= r.input_trajectories) {
      return Status::DataLoss("shard checkpoint: pivot out of range");
    }
    c.pivot = pivot;
    WCOP_ASSIGN_OR_RETURN(c.k, scan.NextInt<int>());
    WCOP_ASSIGN_OR_RETURN(c.delta, scan.NextF64());
    WCOP_ASSIGN_OR_RETURN(uint64_t num_members, scan.NextU64());
    if (num_members > payload.size()) {
      return Status::DataLoss("shard checkpoint: implausible member count");
    }
    c.members.reserve(num_members);
    for (uint64_t m = 0; m < num_members; ++m) {
      WCOP_ASSIGN_OR_RETURN(uint64_t member, scan.NextU64());
      if (member >= r.input_trajectories) {
        return Status::DataLoss("shard checkpoint: member out of range");
      }
      c.members.push_back(member);
    }
    state.result.clusters.push_back(std::move(c));
  }
  WCOP_RETURN_IF_ERROR(scan.Expect("published"));
  WCOP_ASSIGN_OR_RETURN(uint64_t num_published, scan.NextU64());
  if (num_published > payload.size()) {
    return Status::DataLoss("shard checkpoint: implausible published count");
  }
  state.result.sanitized.mutable_trajectories().reserve(num_published);
  // The scanner stops right after the count; the binary records begin after
  // the " \n" that ends its line, and a record's first byte may itself be
  // whitespace, so the separator is matched exactly, never skipped.
  size_t pos = scan.pos();
  if (payload.substr(pos, 2) != " \n") {
    return Status::DataLoss("shard checkpoint: malformed published header");
  }
  pos += 2;
  for (uint64_t i = 0; i < num_published; ++i) {
    WCOP_ASSIGN_OR_RETURN(Trajectory t,
                          ParseTrajectoryRecord(payload, &pos));
    state.result.sanitized.Add(std::move(t));
  }
  text::TokenScanner tail(payload.substr(pos), kCheckpointWhat);
  WCOP_RETURN_IF_ERROR(tail.Expect("end"));
  if (tail.Next().ok()) {
    return Status::DataLoss("shard checkpoint: trailing bytes");
  }
  return state;
}

namespace {

// ---- metrics merge -----------------------------------------------------

void MergeSnapshotInto(telemetry::MetricsSnapshot* a,
                       const telemetry::MetricsSnapshot& b) {
  for (const auto& [name, value] : b.counters) {
    auto it = std::find_if(a->counters.begin(), a->counters.end(),
                           [&](const auto& p) { return p.first == name; });
    if (it == a->counters.end()) {
      a->counters.emplace_back(name, value);
    } else {
      it->second += value;
    }
  }
  for (const auto& [name, value] : b.gauges) {
    auto it = std::find_if(a->gauges.begin(), a->gauges.end(),
                           [&](const auto& p) { return p.first == name; });
    if (it == a->gauges.end()) {
      a->gauges.emplace_back(name, value);
    } else {
      it->second = std::max(it->second, value);
    }
  }
  for (const telemetry::HistogramSummary& h : b.histograms) {
    auto it = std::find_if(a->histograms.begin(), a->histograms.end(),
                           [&](const auto& s) { return s.name == h.name; });
    if (it == a->histograms.end()) {
      a->histograms.push_back(h);
      continue;
    }
    // Exact merge of count/sum/min/max; the percentile fields become
    // count-weighted blends (the underlying buckets are gone).
    const double wa = static_cast<double>(it->count);
    const double wb = static_cast<double>(h.count);
    const double total = std::max(1.0, wa + wb);
    it->p50 = (it->p50 * wa + h.p50 * wb) / total;
    it->p90 = (it->p90 * wa + h.p90 * wb) / total;
    it->p99 = (it->p99 * wa + h.p99 * wb) / total;
    it->count += h.count;
    it->sum += h.sum;
    it->min = std::min(it->min, h.min);
    it->max = std::max(it->max, h.max);
    it->mean = it->count == 0 ? 0.0
                              : static_cast<double>(it->sum) /
                                    static_cast<double>(it->count);
  }
  std::sort(a->counters.begin(), a->counters.end());
  std::sort(a->gauges.begin(), a->gauges.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  std::sort(a->histograms.begin(), a->histograms.end(),
            [](const auto& x, const auto& y) { return x.name < y.name; });
}

}  // namespace

void MergeReportInto(AnonymizationReport* a, const AnonymizationReport& b) {
  a->input_trajectories += b.input_trajectories;
  a->num_clusters += b.num_clusters;
  a->trashed_trajectories += b.trashed_trajectories;
  a->trashed_points += b.trashed_points;
  a->discernibility += b.discernibility;
  a->created_points += b.created_points;
  a->deleted_points += b.deleted_points;
  a->total_spatial_translation += b.total_spatial_translation;
  a->total_temporal_translation += b.total_temporal_translation;
  a->omega = std::max(a->omega, b.omega);
  a->ttd += b.ttd;
  a->editing_distortion += b.editing_distortion;
  a->total_distortion += b.total_distortion;
  a->runtime_seconds += b.runtime_seconds;
  a->clustering_rounds = std::max(a->clustering_rounds, b.clustering_rounds);
  a->final_radius = std::max(a->final_radius, b.final_radius);
  if (b.degraded && !a->degraded) {
    a->degraded = true;
    a->degraded_reason = b.degraded_reason;
  }
  // Recompute the per-published averages from the summed totals — the same
  // formula the monolithic drivers use, so a single-shard merge is exact.
  const size_t published = a->input_trajectories - a->trashed_trajectories;
  a->avg_spatial_translation =
      a->total_spatial_translation /
      static_cast<double>(std::max<size_t>(1, published));
  a->avg_temporal_translation =
      a->total_temporal_translation /
      static_cast<double>(std::max<size_t>(1, published));
  MergeSnapshotInto(&a->metrics, b.metrics);
}

Result<ShardedRunResult> RunShardedWcopCt(const std::vector<StoreEntry>& index,
                                          const TrajectoryFetch& fetch,
                                          const ShardRunOptions& options) {
  if (index.empty()) {
    return Status::InvalidArgument("cannot shard an empty store");
  }
  if (options.shard_parallelism > 1 &&
      !options.stream_output_store.empty()) {
    return Status::InvalidArgument(
        "stream_output_store requires shard_parallelism == 1 (published "
        "outputs must append in shard order)");
  }
  Stopwatch wall;
  telemetry::Telemetry* parent_tel = options.wcop.telemetry;

  ShardedRunResult out;
  WCOP_ASSIGN_OR_RETURN(out.partition,
                        PartitionStoreIndex(index, options.partition));
  const size_t num_shards = out.partition.shards.size();

  if (!options.checkpoint_dir.empty()) {
    WCOP_RETURN_IF_ERROR(MakeDir(options.checkpoint_dir));
    // Janitor pass: a kill between write-tmp and rename of a checkpoint
    // snapshot leaves `*.tmp` orphans behind; sweep them now, before any
    // writer is live, so crashed runs converge instead of accumulating
    // garbage.
    WCOP_RETURN_IF_ERROR(
        SweepStaleArtifacts(options.checkpoint_dir, parent_tel).status());
  }

  // Per-shard RunContext slices: parent deadline and cancellation token
  // shared, resource budget divided evenly up front (a deterministic split
  // — handing out leftovers as shards finish would make shard outcomes
  // depend on scheduling).
  std::vector<std::unique_ptr<RunContext>> contexts(num_shards);
  if (options.wcop.run_context != nullptr) {
    const RunContext* parent = options.wcop.run_context;
    for (size_t s = 0; s < num_shards; ++s) {
      contexts[s] = std::make_unique<RunContext>();
      if (parent->has_deadline()) {
        contexts[s]->set_deadline(*parent->deadline());
      }
      if (parent->cancellation_token().has_value()) {
        contexts[s]->set_cancellation_token(*parent->cancellation_token());
      }
      contexts[s]->set_trace_id(parent->trace_id());
      ResourceBudget slice = parent->budget();
      if (slice.max_distance_computations > 0) {
        slice.max_distance_computations = std::max<uint64_t>(
            1, slice.max_distance_computations / num_shards);
      }
      if (slice.max_candidate_pairs > 0) {
        slice.max_candidate_pairs =
            std::max<uint64_t>(1, slice.max_candidate_pairs / num_shards);
      }
      contexts[s]->set_budget(slice);
    }
  }
  std::vector<std::unique_ptr<telemetry::Telemetry>> shard_tels(num_shards);
  if (parent_tel != nullptr) {
    for (size_t s = 0; s < num_shards; ++s) {
      shard_tels[s] = std::make_unique<telemetry::Telemetry>();
    }
  }

  // Anonymize every shard independently over wcop::parallel.
  std::vector<ShardCheckpoint> states(num_shards);
  std::vector<ShardOutcome> outcomes(num_shards);
  // Live progress: callbacks are serialized under their own mutex so the
  // sink sees strictly monotonic shards_done even with parallel shards.
  std::mutex progress_mu;
  size_t shards_done = 0;
  uint64_t progress_distance_calls = 0;
  auto report_progress = [&](size_t s_done_delta, uint64_t distance_delta) {
    if (!options.progress) {
      return;
    }
    ShardProgress p;
    std::lock_guard<std::mutex> lock(progress_mu);
    shards_done += s_done_delta;
    progress_distance_calls += distance_delta;
    p.shards_done = shards_done;
    p.shards_total = num_shards;
    p.distance_calls = progress_distance_calls;
    options.progress(p);
  };
  report_progress(0, 0);
  const int shard_parallelism = std::max(1, options.shard_parallelism);
  parallel::ParallelOptions pool;
  pool.threads = shard_parallelism;
  pool.grain = 1;
  pool.context = options.wcop.run_context;
  pool.telemetry = parent_tel;
  std::vector<Status> shard_status(num_shards, Status::OK());
  auto run_shard = [&](size_t s) -> Status {
    WCOP_TRACE_SPAN(parent_tel, "shard/run");
        WCOP_FAILPOINT("shard.run");
        const ShardSpec& shard = out.partition.shards[s];
        Dataset shard_dataset;
        shard_dataset.mutable_trajectories().reserve(shard.members.size());
        for (size_t m = 0; m < shard.members.size(); ++m) {
          if (m % 256 == 0) {
            WCOP_RETURN_IF_ERROR(CheckRunContext(contexts[s].get()));
          }
          WCOP_ASSIGN_OR_RETURN(Trajectory t, fetch(shard.members[m]));
          shard_dataset.Add(std::move(t));
        }

        WcopOptions wcop = options.wcop;
        wcop.run_context = contexts[s].get();
        wcop.telemetry = shard_tels[s].get();
        if (shard_parallelism > 1) {
          wcop.threads = 1;  // one parallelism layer at a time
        }
        // The fingerprint hashes every point of the shard; only a
        // checkpoint reads or writes it.
        const std::string ckpt_path =
            options.checkpoint_dir.empty()
                ? std::string()
                : ShardFileName(options.checkpoint_dir, "shard",
                                shard.shard_index, ".ckpt");
        const uint64_t fingerprint =
            ckpt_path.empty() ? 0 : ShardConfigFingerprint(shard_dataset, wcop);
        outcomes[s].shard_index = shard.shard_index;
        outcomes[s].input_trajectories = shard_dataset.size();
        // Exact distance work this shard performed: the RunContext charge
        // counter when a context is attached, else the report's counter
        // (checkpoint-restored shards only have the latter).
        auto shard_distance = [&]() -> uint64_t {
          if (contexts[s] != nullptr &&
              contexts[s]->distance_computations() > 0) {
            return contexts[s]->distance_computations();
          }
          return outcomes[s].report.metrics.CounterValue("distance.calls.edr");
        };

        if (!ckpt_path.empty()) {
          Result<Snapshot> snapshot = ReadSnapshotFile(ckpt_path);
          if (snapshot.ok() &&
              snapshot->format_version == kShardCheckpointVersion) {
            Result<ShardCheckpoint> restored =
                DecodeShardCheckpoint(snapshot->payload, fingerprint);
            if (restored.ok()) {
              states[s] = std::move(restored).value();
              outcomes[s].report = states[s].result.report;
              outcomes[s].verification = states[s].verification;
              outcomes[s].from_checkpoint = true;
              report_progress(1, shard_distance());
              return Status::OK();
            }
          }
          // Missing, damaged, or mismatched checkpoints all fall through
          // to a clean recompute; a torn file never poisons the run.
        }

        WCOP_ASSIGN_OR_RETURN(states[s].result,
                              RunWcopCt(shard_dataset, wcop));
        if (options.verify_shards) {
          states[s].verification =
              VerifyAnonymity(shard_dataset, states[s].result);
        } else {
          states[s].verification.ok = true;
        }
        outcomes[s].report = states[s].result.report;
        outcomes[s].verification = states[s].verification;

        if (!ckpt_path.empty()) {
          WCOP_RETURN_IF_ERROR(WriteSnapshotFile(
              ckpt_path, EncodeShardCheckpoint(fingerprint, states[s]),
              kShardCheckpointVersion));
          WCOP_FAILPOINT("shard.checkpoint_saved");
        }
        report_progress(1, shard_distance());
        return Status::OK();
  };
  Status run_status = parallel::ParallelFor(
      num_shards, [&](size_t s) { shard_status[s] = run_shard(s); }, pool);
  WCOP_RETURN_IF_ERROR(run_status);
  // Report per-shard failures in shard order (deterministic first error).
  for (size_t s = 0; s < num_shards; ++s) {
    WCOP_RETURN_IF_ERROR(shard_status[s]);
  }

  // Charge the parent context with what the slices consumed so the
  // caller's budget accounting matches a monolithic run.
  if (options.wcop.run_context != nullptr) {
    for (size_t s = 0; s < num_shards; ++s) {
      options.wcop.run_context->ChargeDistance(
          contexts[s]->distance_computations());
      options.wcop.run_context->ChargeCandidatePairs(
          contexts[s]->candidate_pairs());
    }
  }

  // Merge in shard order.
  WCOP_TRACE_SPAN(parent_tel, "shard/merge");
  const bool stream_out = !options.stream_output_store.empty();
  std::unique_ptr<TrajectoryStoreWriter> out_writer;
  if (stream_out) {
    WCOP_ASSIGN_OR_RETURN(
        TrajectoryStoreWriter writer,
        TrajectoryStoreWriter::Create(options.stream_output_store));
    out_writer = std::make_unique<TrajectoryStoreWriter>(std::move(writer));
  }
  size_t input_base = 0;
  bool first_report = true;
  for (size_t s = 0; s < num_shards; ++s) {
    ShardCheckpoint& state = states[s];
    out.shards.push_back(outcomes[s]);
    if (outcomes[s].from_checkpoint) {
      ++out.resumed_shards;
    }
    if (!outcomes[s].verification.ok) {
      out.all_verified = false;
    }
    if (first_report) {
      out.merged.report = state.result.report;
      first_report = false;
    } else {
      MergeReportInto(&out.merged.report, state.result.report);
    }
    for (AnonymityCluster cluster : state.result.clusters) {
      cluster.pivot += input_base;
      for (size_t& m : cluster.members) {
        m += input_base;
      }
      out.merged.clusters.push_back(std::move(cluster));
    }
    out.merged.trashed_ids.insert(out.merged.trashed_ids.end(),
                                  state.result.trashed_ids.begin(),
                                  state.result.trashed_ids.end());
    if (stream_out) {
      for (const Trajectory& t : state.result.sanitized.trajectories()) {
        WCOP_RETURN_IF_ERROR(out_writer->Append(t));
      }
    } else {
      for (Trajectory& t : state.result.sanitized.mutable_trajectories()) {
        out.merged.sanitized.Add(std::move(t));
      }
    }
    input_base += outcomes[s].input_trajectories;
    state.result = AnonymizationResult();  // free shard memory eagerly
  }
  if (out_writer != nullptr) {
    WCOP_RETURN_IF_ERROR(out_writer->Finish());
    out.output = out_writer->digest();
  }

  out.merged.report.runtime_seconds = wall.ElapsedSeconds();
  if (parent_tel != nullptr) {
    parent_tel->metrics().GetCounter("shard.completed")->Add(num_shards);
    parent_tel->metrics()
        .GetCounter("shard.resumed")
        ->Add(out.resumed_shards);
    out.merged.report.metrics = parent_tel->metrics().Snapshot();
    for (size_t s = 0; s < num_shards; ++s) {
      MergeSnapshotInto(&out.merged.report.metrics,
                        shard_tels[s]->metrics().Snapshot());
      // Fold each shard's span buffer into the parent recorder as its own
      // trace-process lane (pid 2 + shard index; the coordinator is pid 1)
      // so the exported JSON is one coherent per-job timeline.
      parent_tel->trace().MergeFrom(
          shard_tels[s]->trace(),
          static_cast<uint32_t>(2 + out.partition.shards[s].shard_index));
    }
  }
  return out;
}

Result<ShardedRunResult> RunShardedWcopCt(const TrajectoryStoreReader& source,
                                          const ShardRunOptions& options) {
  return RunShardedWcopCt(
      source.index(), [&source](size_t i) { return source.Read(i); },
      options);
}

}  // namespace store
}  // namespace wcop
