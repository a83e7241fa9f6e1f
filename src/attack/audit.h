#ifndef WCOP_ATTACK_AUDIT_H_
#define WCOP_ATTACK_AUDIT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "attack/adversary.h"
#include "attack/effective_k.h"
#include "attack/linkage.h"
#include "attack/reident.h"
#include "common/result.h"
#include "common/run_context.h"
#include "common/telemetry.h"

namespace wcop {
namespace attack {

/// Distortion context pulled from the manifests in the continuous
/// pipeline's window journal, so the audit report places attack success
/// next to the utility price paid for it (the paper's Table-3 pairing).
struct DistortionSummary {
  size_t windows = 0;
  size_t degraded_windows = 0;
  size_t skipped_windows = 0;
  uint64_t input_fragments = 0;
  uint64_t published_fragments = 0;
  uint64_t suppressed_fragments = 0;
  uint64_t clusters = 0;
  double ttd = 0.0;  ///< total translation distortion, summed over windows
};

/// One full audit of a publication (DESIGN.md §14): re-identification,
/// cross-release linkage, and the k^{τ,ε} effective-anonymity quantifier,
/// each present only when its inputs were available.
struct AuditReport {
  AdversaryModel adversary;  ///< echoed so the report is self-describing

  bool has_reident = false;
  ReidentResult reident;

  bool has_linkage = false;
  LinkageResult linkage;

  bool has_effective_k = false;
  EffectiveKResult effective_k;

  bool has_distortion = false;
  DistortionSummary distortion;
};

struct AuditOptions {
  /// Single-release mode: the published `.wst` store to audit. Continuous
  /// mode: leave empty and set `windows_dir` to a continuous-publication
  /// output directory (window_NNNNN.wst + window journal) instead — each
  /// window is audited and the linkage attack joins consecutive releases.
  std::string published_store;
  std::string windows_dir;

  /// The pre-publication source store. Required for the
  /// re-identification attack (victims and their true trajectories come
  /// from here); without it the audit runs effective-k (and, in
  /// continuous mode, linkage) only.
  std::string original_store;

  AdversaryModel adversary;

  /// Caps both the re-identification victim count and the effective-k
  /// user sample (0 = everyone). Large stores should cap: both attacks
  /// walk the full candidate index per victim.
  size_t victims = 0;

  /// Timestamps sampled per τ-interval by the effective-k quantifier.
  size_t effective_k_samples = 8;

  /// Gates of the linkage attack (threads/context/telemetry fields are
  /// overridden by the audit-level ones below).
  LinkageOptions linkage;

  int threads = 1;
  const RunContext* run_context = nullptr;
  telemetry::Telemetry* telemetry = nullptr;

  /// Progress callback: (phase name, done, total), on the coordinating
  /// thread. Phases of a single release: "reident", "effective_k"; of a
  /// window directory: "windows" (windows audited, all attacks done).
  std::function<void(const char*, size_t, size_t)> progress;
};

/// Runs every attack the inputs allow and assembles the report. The
/// result is deterministic for fixed inputs and options: byte-identical
/// JSON across thread counts.
Result<AuditReport> RunAudit(const AuditOptions& options);

/// Deterministic JSON serialization (report_json conventions: %.10g
/// doubles, null for non-finite; no timings, no thread-count-dependent
/// values). Sections missing from the report serialize as null.
std::string AuditReportToJson(const AuditReport& report);

}  // namespace attack
}  // namespace wcop

#endif  // WCOP_ATTACK_AUDIT_H_
