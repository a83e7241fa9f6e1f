#include "attack/audit.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "pipeline/manifest.h"

namespace wcop {
namespace attack {

namespace {

/// Folds one per-window re-identification result into the running
/// aggregate (rates are re-derived from victim-weighted sums at the end).
struct ReidentAccumulator {
  ReidentResult total;
  double top1_sum = 0.0;
  double top5_sum = 0.0;
  double rank_sum = 0.0;
  double reciprocal_sum = 0.0;

  void Fold(const ReidentResult& r) {
    const double n = static_cast<double>(r.victims_attacked);
    total.victims_attacked += r.victims_attacked;
    total.victims_suppressed += r.victims_suppressed;
    total.candidates_total += r.candidates_total;
    total.candidates_scored += r.candidates_scored;
    total.candidates_pruned += r.candidates_pruned;
    top1_sum += r.top1_success * n;
    top5_sum += r.top5_success * n;
    rank_sum += r.mean_true_rank * n;
    reciprocal_sum += r.mean_reciprocal_rank * n;
  }

  ReidentResult Finish() {
    if (total.victims_attacked > 0) {
      const double n = static_cast<double>(total.victims_attacked);
      total.top1_success = top1_sum / n;
      total.top5_success = top5_sum / n;
      total.mean_true_rank = rank_sum / n;
      total.mean_reciprocal_rank = reciprocal_sum / n;
    }
    return total;
  }
};

Result<DistortionSummary> ReadDistortion(const std::string& windows_dir,
                                         size_t windows) {
  DistortionSummary summary;
  for (size_t w = 0; w < windows; ++w) {
    char name[64];
    std::snprintf(name, sizeof(name), "/window_%05llu.mfr",
                  static_cast<unsigned long long>(w));
    Result<pipeline::WindowManifest> manifest =
        pipeline::ReadWindowManifest(windows_dir + name);
    if (!manifest.ok()) {
      if (manifest.status().code() == StatusCode::kNotFound) {
        continue;  // store published, manifest pruned: skip the window
      }
      return manifest.status();
    }
    ++summary.windows;
    summary.input_fragments += manifest->input_fragments;
    summary.published_fragments += manifest->published_fragments;
    summary.suppressed_fragments += manifest->suppressed_delta;
    summary.clusters += manifest->clusters;
    summary.ttd += manifest->ttd;
    if (manifest->degraded) {
      ++summary.degraded_windows;
    }
    if (manifest->skipped) {
      ++summary.skipped_windows;
    }
  }
  return summary;
}

/// Opens window store `path` as a resident source: every block is read,
/// CRC-checked and decoded here, once, under its own span.
Result<StoreCandidateSource> LoadWindow(const std::string& path,
                                        const AuditOptions& options) {
  WCOP_TRACE_SPAN(options.telemetry, "attack/window_load");
  return StoreCandidateSource::Open(
      path, StoreCandidateSource::TruthKey::kParentId, options.run_context);
}

void AppendDouble(std::ostringstream& os, double value) {
  if (!std::isfinite(value)) {
    os << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  os << buf;
}

void AppendReident(std::ostringstream& os, const ReidentResult& r) {
  os << "{\"victims_attacked\":" << r.victims_attacked
     << ",\"victims_suppressed\":" << r.victims_suppressed
     << ",\"top1_success\":";
  AppendDouble(os, r.top1_success);
  os << ",\"top5_success\":";
  AppendDouble(os, r.top5_success);
  os << ",\"mean_true_rank\":";
  AppendDouble(os, r.mean_true_rank);
  os << ",\"mean_reciprocal_rank\":";
  AppendDouble(os, r.mean_reciprocal_rank);
  os << ",\"candidates_total\":" << r.candidates_total
     << ",\"candidates_scored\":" << r.candidates_scored
     << ",\"candidates_pruned\":" << r.candidates_pruned << "}";
}

void AppendLinkage(std::ostringstream& os, const LinkageResult& r) {
  os << "{\"windows\":" << r.windows << ",\"boundaries\":" << r.boundaries
     << ",\"fragments\":" << r.fragments
     << ",\"pairs_gated\":" << r.pairs_gated
     << ",\"joins_attempted\":" << r.joins_attempted
     << ",\"joins_correct\":" << r.joins_correct << ",\"linkage_rate\":";
  AppendDouble(os, r.linkage_rate);
  os << ",\"users_total\":" << r.users_total
     << ",\"users_tracked\":" << r.users_tracked
     << ",\"trackable_fraction\":";
  AppendDouble(os, r.trackable_fraction);
  os << "}";
}

void AppendEffectiveK(std::ostringstream& os, const EffectiveKResult& r) {
  os << "{\"users_measured\":" << r.users_measured
     << ",\"mean_effective_k\":";
  AppendDouble(os, r.mean_effective_k);
  os << ",\"violation_fraction\":";
  AppendDouble(os, r.violation_fraction);
  os << ",\"policies\":[";
  for (size_t i = 0; i < r.policies.size(); ++i) {
    const PolicyEffectiveK& p = r.policies[i];
    if (i != 0) {
      os << ",";
    }
    os << "{\"k\":" << p.k << ",\"delta\":";
    AppendDouble(os, p.delta);
    os << ",\"users\":" << p.users << ",\"violations\":" << p.violations
       << ",\"mean\":";
    AppendDouble(os, p.mean);
    os << ",\"p5\":";
    AppendDouble(os, p.p5);
    os << ",\"p25\":";
    AppendDouble(os, p.p25);
    os << ",\"p50\":";
    AppendDouble(os, p.p50);
    os << "}";
  }
  os << "]}";
}

void AppendDistortion(std::ostringstream& os, const DistortionSummary& d) {
  os << "{\"windows\":" << d.windows
     << ",\"degraded_windows\":" << d.degraded_windows
     << ",\"skipped_windows\":" << d.skipped_windows
     << ",\"input_fragments\":" << d.input_fragments
     << ",\"published_fragments\":" << d.published_fragments
     << ",\"suppressed_fragments\":" << d.suppressed_fragments
     << ",\"clusters\":" << d.clusters << ",\"ttd\":";
  AppendDouble(os, d.ttd);
  os << "}";
}

}  // namespace

Result<AuditReport> RunAudit(const AuditOptions& options) {
  if (options.published_store.empty() && options.windows_dir.empty()) {
    return Status::InvalidArgument(
        "audit needs a published store or a windows directory");
  }
  if (!options.published_store.empty() && !options.windows_dir.empty()) {
    return Status::InvalidArgument(
        "audit takes either a published store or a windows directory, "
        "not both");
  }
  WCOP_RETURN_IF_ERROR(CheckRunContext(options.run_context));
  WCOP_TRACE_SPAN(options.telemetry, "attack/audit");

  AuditReport report;
  report.adversary = options.adversary;

  auto phase_progress = [&options](const char* phase) {
    return [&options, phase](size_t done, size_t total) {
      if (options.progress) {
        options.progress(phase, done, total);
      }
    };
  };

  ReidentOptions reident_options;
  reident_options.adversary = options.adversary;
  reident_options.num_victims = options.victims;
  reident_options.threads = options.threads;
  reident_options.run_context = options.run_context;
  reident_options.telemetry = options.telemetry;

  EffectiveKOptions effective_options;
  effective_options.adversary = options.adversary;
  effective_options.samples = options.effective_k_samples;
  effective_options.num_users = options.victims;
  effective_options.threads = options.threads;
  effective_options.run_context = options.run_context;
  effective_options.telemetry = options.telemetry;

  std::unique_ptr<StoreCandidateSource> original;
  if (!options.original_store.empty()) {
    WCOP_ASSIGN_OR_RETURN(
        StoreCandidateSource source,
        StoreCandidateSource::Open(options.original_store,
                                   StoreCandidateSource::TruthKey::kId,
                                   options.run_context));
    original =
        std::make_unique<StoreCandidateSource>(std::move(source));
  }

  if (!options.published_store.empty()) {
    // Single release: one published store, keys are trajectory ids.
    reident_options.progress = phase_progress("reident");
    effective_options.progress = phase_progress("effective_k");
    WCOP_ASSIGN_OR_RETURN(
        StoreCandidateSource published,
        StoreCandidateSource::Open(options.published_store,
                                   StoreCandidateSource::TruthKey::kId,
                                   options.run_context));
    if (original != nullptr) {
      WCOP_ASSIGN_OR_RETURN(
          report.reident,
          RunReidentAttack(*original, published, reident_options));
      report.has_reident = true;
    }
    WCOP_ASSIGN_OR_RETURN(report.effective_k,
                          MeasureEffectiveK(published, effective_options));
    report.has_effective_k = true;
    return report;
  }

  // Continuous mode, one pass: each window store is opened and decoded
  // once (a resident kParentId source), joined to its predecessor by the
  // linkage step, then attacked by re-identification and effective-k. At
  // most two windows are resident, and the victim sample is drawn once.
  WCOP_ASSIGN_OR_RETURN(std::vector<std::string> windows,
                        ListWindowStores(options.windows_dir));

  LinkageOptions linkage_options = options.linkage;
  linkage_options.threads = options.threads;
  linkage_options.run_context = options.run_context;
  linkage_options.telemetry = options.telemetry;
  VictimSample victims;
  if (original != nullptr) {
    victims = DrawVictims(*original, options.victims, options.adversary.seed);
  }

  LinkageAccumulator linkage;
  ReidentAccumulator reident_accumulator;
  EffectiveKSamples pooled;
  std::optional<StoreCandidateSource> previous;
  for (size_t w = 0; w < windows.size(); ++w) {
    WCOP_RETURN_IF_ERROR(CheckRunContext(options.run_context));
    WCOP_ASSIGN_OR_RETURN(StoreCandidateSource current,
                          LoadWindow(windows[w], options));
    if (previous.has_value()) {
      WCOP_RETURN_IF_ERROR(
          linkage.AddBoundary(*previous, current, linkage_options));
    }
    if (current.size() > 0) {  // else a fully suppressed window
      if (original != nullptr) {
        WCOP_ASSIGN_OR_RETURN(
            ReidentResult r,
            RunReidentAttack(*original, current, victims, reident_options));
        reident_accumulator.Fold(r);
        report.has_reident = true;
      }
      WCOP_ASSIGN_OR_RETURN(
          EffectiveKSamples samples,
          MeasureEffectiveKSamples(current, effective_options));
      pooled.samples.insert(pooled.samples.end(), samples.samples.begin(),
                            samples.samples.end());
    }
    previous = std::move(current);
    // Progress counts windows: the attacks on one window are too short to
    // report on their own.
    if (options.progress) {
      options.progress("windows", w + 1, windows.size());
    }
  }
  report.linkage = linkage.Finish(windows.size());
  report.has_linkage = true;
  if (report.has_reident) {
    report.reident = reident_accumulator.Finish();
  }
  report.effective_k = SummarizeEffectiveK(pooled, options.telemetry);
  report.has_effective_k = true;

  WCOP_ASSIGN_OR_RETURN(
      report.distortion,
      ReadDistortion(options.windows_dir, windows.size()));
  report.has_distortion = report.distortion.windows > 0;
  return report;
}

std::string AuditReportToJson(const AuditReport& report) {
  std::ostringstream os;
  const AdversaryModel& a = report.adversary;
  os << "{\"adversary\":{\"observations\":" << a.observations
     << ",\"noise\":";
  AppendDouble(os, a.noise);
  os << ",\"pmc_delta\":";
  AppendDouble(os, a.pmc_delta);
  os << ",\"tau_seconds\":";
  AppendDouble(os, a.tau_seconds);
  os << ",\"epsilon\":";
  AppendDouble(os, a.epsilon);
  os << ",\"seed\":" << a.seed << "}";

  os << ",\"reident\":";
  if (report.has_reident) {
    AppendReident(os, report.reident);
  } else {
    os << "null";
  }
  os << ",\"linkage\":";
  if (report.has_linkage) {
    AppendLinkage(os, report.linkage);
  } else {
    os << "null";
  }
  os << ",\"effective_k\":";
  if (report.has_effective_k) {
    AppendEffectiveK(os, report.effective_k);
  } else {
    os << "null";
  }
  os << ",\"distortion\":";
  if (report.has_distortion) {
    AppendDistortion(os, report.distortion);
  } else {
    os << "null";
  }
  os << "}";
  return os.str();
}

}  // namespace attack
}  // namespace wcop
