#include "anon/checkpoint.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/text_codec.h"

namespace wcop {

namespace {

// ---------------------------------------------------------------------------
// Fingerprinting (FNV-1a 64).
// ---------------------------------------------------------------------------

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void HashBytes(uint64_t* h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void HashU64(uint64_t* h, uint64_t v) { HashBytes(h, &v, sizeof(v)); }
void HashI64(uint64_t* h, int64_t v) { HashBytes(h, &v, sizeof(v)); }

void HashDouble(uint64_t* h, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  HashU64(h, bits);
}

void HashWcopOptions(uint64_t* h, const WcopOptions& o) {
  HashDouble(h, o.trash_fraction);
  HashU64(h, o.trash_max_override);
  HashDouble(h, o.radius_max);
  HashDouble(h, o.radius_growth);
  HashU64(h, o.max_clustering_rounds);
  HashU64(h, static_cast<uint64_t>(o.distance.kind));
  HashDouble(h, o.distance.tolerance.dx);
  HashDouble(h, o.distance.tolerance.dy);
  HashDouble(h, o.distance.tolerance.dt);
  HashDouble(h, o.distance.edr_scale);
  HashU64(h, o.seed);
  HashU64(h, static_cast<uint64_t>(o.pivot_policy));
  HashU64(h, static_cast<uint64_t>(o.clustering_algo));
  HashU64(h, static_cast<uint64_t>(o.delta_policy));
}

// ---------------------------------------------------------------------------
// Text encoding helpers. Doubles print at %.17g (common/text_codec.h), which
// strtod round-trips exactly, so resumed arithmetic matches the
// uninterrupted run bit-for-bit.
// ---------------------------------------------------------------------------

using text::AppendF64;
using text::AppendI64;
using text::AppendU64;

void AppendWord(std::string* out, std::string_view word) {
  out->append(word);
  out->push_back(' ');
}

/// Length-prefixed raw bytes: "<len> <bytes>". Safe for arbitrary content
/// (degraded reasons quote Status messages).
void AppendBlob(std::string* out, std::string_view blob) {
  AppendU64(out, blob.size());
  out->append(blob);
  out->push_back(' ');
}

void EndLine(std::string* out) {
  if (!out->empty() && out->back() == ' ') {
    out->back() = '\n';
  } else {
    out->push_back('\n');
  }
}

using text::TokenScanner;

/// Reads one field of the type of `*out`: an integer under ParseInt's
/// rules, a %.17g double, a 0/1 flag or a blob.
template <typename Int>
Status ReadField(TokenScanner* in, Int* out) {
  WCOP_ASSIGN_OR_RETURN(*out, in->NextInt<Int>());
  return Status::OK();
}

Status ReadField(TokenScanner* in, double* out) {
  WCOP_ASSIGN_OR_RETURN(*out, in->NextF64());
  return Status::OK();
}

Status ReadField(TokenScanner* in, bool* out) {
  WCOP_ASSIGN_OR_RETURN(const uint64_t v, in->NextU64());
  if (v > 1) {
    return Status::DataLoss("wcop-b checkpoint: bad flag");
  }
  *out = v == 1;
  return Status::OK();
}

Status ReadField(TokenScanner* in, std::string* out) {
  WCOP_ASSIGN_OR_RETURN(const std::string_view blob, in->NextBlob());
  out->assign(blob);
  return Status::OK();
}

/// The line keyword `keyword`, then each field in order.
template <typename... Fields>
Status ReadLine(TokenScanner* in, std::string_view keyword,
                Fields*... fields) {
  Status s = in->Expect(keyword);
  ((s = s.ok() ? ReadField(in, fields) : s), ...);
  return s;
}

// Fixed-width trailer "end <020-digit total>\n" carrying the payload's final
// byte count (trailer included). Tokenized text can't otherwise notice losing
// trailing bytes — e.g. only the final newline — so the decoder checks the
// recorded total against the bytes it was actually handed.
constexpr size_t kEndMarkerSize = 25;  // "end " + 20 digits + '\n'

void AppendEndMarker(std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "end %020" PRIu64 "\n",
                static_cast<uint64_t>(out->size() + kEndMarkerSize));
  out->append(buf);
}

Status CheckEndMarker(TokenScanner* in, size_t payload_size) {
  uint64_t total = 0;
  WCOP_RETURN_IF_ERROR(ReadLine(in, "end", &total));
  if (total != payload_size) {
    return Status::DataLoss(
        "wcop-b checkpoint: bad end marker (truncated or trailing bytes)");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Shared sub-encoders.
// ---------------------------------------------------------------------------

void AppendTrajectory(std::string* out, const Trajectory& t) {
  AppendWord(out, "traj");
  AppendI64(out, t.id());
  AppendI64(out, t.object_id());
  AppendI64(out, t.parent_id());
  AppendI64(out, t.requirement().k);
  AppendF64(out, t.requirement().delta);
  AppendU64(out, t.size());
  for (const Point& p : t.points()) {
    AppendF64(out, p.x);
    AppendF64(out, p.y);
    AppendF64(out, p.t);
  }
  EndLine(out);
}

Status ReadTrajectory(TokenScanner* in, Trajectory* out) {
  int64_t id = 0, object_id = 0, parent_id = 0;
  int k = 0;
  double delta = 0.0;
  WCOP_RETURN_IF_ERROR(
      ReadLine(in, "traj", &id, &object_id, &parent_id, &k, &delta));
  WCOP_ASSIGN_OR_RETURN(const size_t npoints, in->NextCount());
  std::vector<Point> points;
  points.reserve(npoints);
  for (size_t i = 0; i < npoints; ++i) {
    WCOP_ASSIGN_OR_RETURN(const double x, in->NextF64());
    WCOP_ASSIGN_OR_RETURN(const double y, in->NextF64());
    WCOP_ASSIGN_OR_RETURN(const double t, in->NextF64());
    points.emplace_back(x, y, t);
  }
  *out = Trajectory(id, std::move(points), Requirement{k, delta});
  out->set_object_id(object_id);
  out->set_parent_id(parent_id);
  return Status::OK();
}

void AppendCounters(
    std::string* out,
    const std::vector<std::pair<std::string, uint64_t>>& counters) {
  AppendWord(out, "ncounters");
  AppendU64(out, counters.size());
  EndLine(out);
  for (const auto& [name, value] : counters) {
    AppendWord(out, "counter");
    AppendBlob(out, name);
    AppendU64(out, value);
    EndLine(out);
  }
}

Status ReadCounters(TokenScanner* in,
                    std::vector<std::pair<std::string, uint64_t>>* out) {
  WCOP_RETURN_IF_ERROR(in->Expect("ncounters"));
  WCOP_ASSIGN_OR_RETURN(const size_t n, in->NextCount());
  out->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string name;
    uint64_t value = 0;
    WCOP_RETURN_IF_ERROR(ReadLine(in, "counter", &name, &value));
    out->emplace_back(std::move(name), value);
  }
  return Status::OK();
}

void AppendReport(std::string* out, const AnonymizationReport& r) {
  AppendWord(out, "report");
  AppendU64(out, r.input_trajectories);
  AppendU64(out, r.num_clusters);
  AppendU64(out, r.trashed_trajectories);
  AppendU64(out, r.trashed_points);
  AppendF64(out, r.discernibility);
  AppendU64(out, r.created_points);
  AppendU64(out, r.deleted_points);
  AppendF64(out, r.total_spatial_translation);
  AppendF64(out, r.total_temporal_translation);
  AppendF64(out, r.avg_spatial_translation);
  AppendF64(out, r.avg_temporal_translation);
  AppendF64(out, r.omega);
  AppendF64(out, r.ttd);
  AppendF64(out, r.editing_distortion);
  AppendF64(out, r.total_distortion);
  AppendF64(out, r.runtime_seconds);
  AppendU64(out, r.clustering_rounds);
  AppendF64(out, r.final_radius);
  AppendU64(out, r.degraded ? 1 : 0);
  AppendBlob(out, r.degraded_reason);
  EndLine(out);
}

Status ReadReport(TokenScanner* in, AnonymizationReport* r) {
  return ReadLine(in, "report", &r->input_trajectories, &r->num_clusters,
                  &r->trashed_trajectories, &r->trashed_points,
                  &r->discernibility, &r->created_points, &r->deleted_points,
                  &r->total_spatial_translation,
                  &r->total_temporal_translation, &r->avg_spatial_translation,
                  &r->avg_temporal_translation, &r->omega, &r->ttd,
                  &r->editing_distortion, &r->total_distortion,
                  &r->runtime_seconds, &r->clustering_rounds,
                  &r->final_radius, &r->degraded, &r->degraded_reason);
}

void AppendAnonymizationResult(std::string* out,
                               const AnonymizationResult& result) {
  AppendWord(out, "ntraj");
  AppendU64(out, result.sanitized.size());
  EndLine(out);
  for (const Trajectory& t : result.sanitized.trajectories()) {
    AppendTrajectory(out, t);
  }
  AppendWord(out, "ntrashed");
  AppendU64(out, result.trashed_ids.size());
  for (const int64_t id : result.trashed_ids) {
    AppendI64(out, id);
  }
  EndLine(out);
  AppendWord(out, "nclusters");
  AppendU64(out, result.clusters.size());
  EndLine(out);
  for (const AnonymityCluster& c : result.clusters) {
    AppendWord(out, "cluster");
    AppendU64(out, c.pivot);
    AppendI64(out, c.k);
    AppendF64(out, c.delta);
    AppendU64(out, c.members.size());
    for (const size_t m : c.members) {
      AppendU64(out, m);
    }
    EndLine(out);
  }
  AppendReport(out, result.report);
}

Status ReadAnonymizationResult(TokenScanner* in,
                               AnonymizationResult* result) {
  WCOP_RETURN_IF_ERROR(in->Expect("ntraj"));
  WCOP_ASSIGN_OR_RETURN(const size_t ntraj, in->NextCount());
  std::vector<Trajectory> sanitized(ntraj);
  for (Trajectory& t : sanitized) {
    WCOP_RETURN_IF_ERROR(ReadTrajectory(in, &t));
  }
  result->sanitized = Dataset(std::move(sanitized));
  WCOP_RETURN_IF_ERROR(in->Expect("ntrashed"));
  WCOP_ASSIGN_OR_RETURN(const size_t ntrashed, in->NextCount());
  result->trashed_ids.resize(ntrashed);
  for (int64_t& id : result->trashed_ids) {
    WCOP_RETURN_IF_ERROR(ReadField(in, &id));
  }
  WCOP_RETURN_IF_ERROR(in->Expect("nclusters"));
  WCOP_ASSIGN_OR_RETURN(const size_t nclusters, in->NextCount());
  result->clusters.resize(nclusters);
  for (AnonymityCluster& c : result->clusters) {
    WCOP_RETURN_IF_ERROR(ReadLine(in, "cluster", &c.pivot, &c.k, &c.delta));
    WCOP_ASSIGN_OR_RETURN(const size_t nmembers, in->NextCount());
    c.members.resize(nmembers);
    for (size_t& member : c.members) {
      WCOP_RETURN_IF_ERROR(ReadField(in, &member));
    }
  }
  return ReadReport(in, &result->report);
}

}  // namespace

uint64_t DatasetFingerprint(const Dataset& dataset) {
  uint64_t h = kFnvOffset;
  HashU64(&h, dataset.size());
  for (const Trajectory& t : dataset.trajectories()) {
    HashI64(&h, t.id());
    HashI64(&h, t.object_id());
    HashI64(&h, t.parent_id());
    HashI64(&h, t.requirement().k);
    HashDouble(&h, t.requirement().delta);
    HashU64(&h, t.size());
    for (const Point& p : t.points()) {
      HashDouble(&h, p.x);
      HashDouble(&h, p.y);
      HashDouble(&h, p.t);
    }
  }
  return h;
}

uint64_t WcopOptionsFingerprint(const WcopOptions& options) {
  uint64_t h = kFnvOffset;
  HashWcopOptions(&h, options);
  return h;
}

uint64_t WcopBConfigFingerprint(const Dataset& dataset,
                                const WcopOptions& options,
                                const WcopBOptions& b_options) {
  uint64_t h = DatasetFingerprint(dataset);
  HashU64(&h, 0x57434f42ULL);  // "WCOB" domain separator
  HashWcopOptions(&h, options);
  HashDouble(&h, b_options.distort_max);
  HashU64(&h, b_options.step);
  HashDouble(&h, b_options.w1);
  HashDouble(&h, b_options.w2);
  HashU64(&h, b_options.max_edit_size);
  HashU64(&h, static_cast<uint64_t>(b_options.edit_policy));
  HashDouble(&h, b_options.proportional_strength);
  return h;
}

std::string EncodeWcopBCheckpoint(const WcopBCheckpoint& checkpoint) {
  std::string out;
  AppendWord(&out, "wcop-b-checkpoint");
  AppendU64(&out, kWcopBCheckpointVersion);
  EndLine(&out);
  AppendWord(&out, "fingerprint");
  AppendU64(&out, checkpoint.fingerprint);
  EndLine(&out);
  AppendWord(&out, "state");
  AppendU64(&out, checkpoint.next_edit_size);
  AppendU64(&out, checkpoint.terminal ? 1 : 0);
  AppendU64(&out, checkpoint.bound_satisfied ? 1 : 0);
  AppendU64(&out, checkpoint.final_edit_size);
  EndLine(&out);
  AppendWord(&out, "nrounds");
  AppendU64(&out, checkpoint.rounds.size());
  EndLine(&out);
  for (const WcopBRound& r : checkpoint.rounds) {
    AppendWord(&out, "round");
    AppendU64(&out, r.edit_size);
    AppendF64(&out, r.ttd);
    AppendF64(&out, r.editing_distortion);
    AppendF64(&out, r.total_distortion);
    AppendU64(&out, r.num_clusters);
    AppendU64(&out, r.trashed);
    EndLine(&out);
  }
  AppendAnonymizationResult(&out, checkpoint.anonymization);
  AppendCounters(&out, checkpoint.counters);
  AppendEndMarker(&out);
  return out;
}

Result<WcopBCheckpoint> DecodeWcopBCheckpoint(std::string_view payload) {
  TokenScanner in(payload, "wcop-b checkpoint");
  uint64_t version = 0;
  WCOP_RETURN_IF_ERROR(ReadLine(&in, "wcop-b-checkpoint", &version));
  if (version != kWcopBCheckpointVersion) {
    return Status::FailedPrecondition(
        "wcop-b checkpoint version " + std::to_string(version) +
        " unsupported (expected " + std::to_string(kWcopBCheckpointVersion) +
        ")");
  }
  WcopBCheckpoint checkpoint;
  WCOP_RETURN_IF_ERROR(
      ReadLine(&in, "fingerprint", &checkpoint.fingerprint));
  WCOP_RETURN_IF_ERROR(ReadLine(&in, "state", &checkpoint.next_edit_size,
                                &checkpoint.terminal,
                                &checkpoint.bound_satisfied,
                                &checkpoint.final_edit_size));
  WCOP_RETURN_IF_ERROR(in.Expect("nrounds"));
  WCOP_ASSIGN_OR_RETURN(const size_t nrounds, in.NextCount());
  checkpoint.rounds.resize(nrounds);
  for (WcopBRound& r : checkpoint.rounds) {
    WCOP_RETURN_IF_ERROR(ReadLine(&in, "round", &r.edit_size, &r.ttd,
                                  &r.editing_distortion, &r.total_distortion,
                                  &r.num_clusters, &r.trashed));
  }
  WCOP_RETURN_IF_ERROR(ReadAnonymizationResult(&in, &checkpoint.anonymization));
  WCOP_RETURN_IF_ERROR(ReadCounters(&in, &checkpoint.counters));
  WCOP_RETURN_IF_ERROR(CheckEndMarker(&in, payload.size()));
  return checkpoint;
}

}  // namespace wcop
