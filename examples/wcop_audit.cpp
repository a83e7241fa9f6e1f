// Privacy red-team auditor: what does an adversary actually achieve
// against a published `.wst` release (or the window sequence of a
// continuous publication)? Runs the wcop::attack subsystem end-to-end —
// partial-background-knowledge re-identification, cross-release linkage,
// and the k^{τ,ε} effective-anonymity quantifier — and reports attack
// success next to the distortion the publication paid (DESIGN.md §14).
//
// Single release:    ./wcop_audit --store=published.wst --original=src.wst
// Continuous output: ./wcop_audit --windows-dir=DIR --original=src.wst
//
// Flags:
//   --adversary=weak|moderate|strong   preset (default moderate); individual
//     knobs override: --observations=N --noise=M --pmc-delta=M --tau=SEC
//     --epsilon=M --seed=N
//   --victims=N      cap on re-identification victims / effective-k users
//                    (0 = everyone; cap this on large stores)
//   --samples=N      timestamps per τ-interval in the effective-k test
//   --max-gap=SEC --gate-radius=M   linkage join gates
//   --threads=N      parallelism (JSON output is byte-identical across N)
//   --json-out=FILE  deterministic machine-readable report
//   --metrics-out=FILE  telemetry snapshot (not deterministic across N)
//   --deadline-ms=N --max-distance=N --max-pairs=N   RunContext limits
//   --progress       per-phase progress lines on stderr

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "anon/report_json.h"
#include "attack/audit.h"
#include "common/arg_parser.h"
#include "common/stopwatch.h"

using namespace wcop;

namespace {

constexpr const char* kUsage =
    "usage: wcop_audit (--store=FILE.wst | --windows-dir=DIR)\n"
    "         [--original=FILE.wst] [--adversary=weak|moderate|strong]\n"
    "         [--observations=N] [--noise=M] [--pmc-delta=M]\n"
    "         [--tau=SEC] [--epsilon=M] [--seed=N] [--victims=N]\n"
    "         [--samples=N] [--max-gap=SEC] [--gate-radius=M]\n"
    "         [--threads=N] [--json-out=FILE] [--metrics-out=FILE]\n"
    "         [--deadline-ms=N] [--max-distance=N] [--max-pairs=N]\n"
    "         [--progress]";

int Fail(const Status& status) {
  std::cerr << "wcop_audit: " << status << "\n";
  return 1;
}

void PrintReident(const attack::ReidentResult& r) {
  std::printf("re-identification (%zu victims, %zu suppressed)\n",
              r.victims_attacked, r.victims_suppressed);
  std::printf("  top-1 success        %.4f\n", r.top1_success);
  std::printf("  top-5 success        %.4f\n", r.top5_success);
  std::printf("  mean true rank       %.2f\n", r.mean_true_rank);
  std::printf("  mean reciprocal rank %.4f\n", r.mean_reciprocal_rank);
  std::printf("  candidates           %llu scored, %llu pruned of %llu\n",
              static_cast<unsigned long long>(r.candidates_scored),
              static_cast<unsigned long long>(r.candidates_pruned),
              static_cast<unsigned long long>(r.candidates_total));
}

void PrintLinkage(const attack::LinkageResult& r) {
  std::printf("cross-release linkage (%zu windows, %zu boundaries)\n",
              r.windows, r.boundaries);
  std::printf("  joins                %llu correct of %llu attempted "
              "(rate %.4f)\n",
              static_cast<unsigned long long>(r.joins_correct),
              static_cast<unsigned long long>(r.joins_attempted),
              r.linkage_rate);
  std::printf("  trackable users      %zu of %zu (%.4f)\n", r.users_tracked,
              r.users_total, r.trackable_fraction);
}

void PrintEffectiveK(const attack::EffectiveKResult& r) {
  std::printf("effective anonymity k^{tau,eps} (%zu users)\n",
              r.users_measured);
  std::printf("  mean effective k     %.2f\n", r.mean_effective_k);
  std::printf("  violation fraction   %.4f\n", r.violation_fraction);
  for (const attack::PolicyEffectiveK& p : r.policies) {
    std::printf("  policy k=%d delta=%g: %zu users, p5=%g p25=%g p50=%g "
                "mean=%.2f, %zu violations\n",
                p.k, p.delta, p.users, p.p5, p.p25, p.p50, p.mean,
                p.violations);
  }
}

void PrintDistortion(const attack::DistortionSummary& d) {
  std::printf("distortion context (%zu windows, %zu degraded, %zu "
              "skipped)\n",
              d.windows, d.degraded_windows, d.skipped_windows);
  std::printf("  published            %llu of %llu fragments "
              "(%llu suppressed, %llu clusters)\n",
              static_cast<unsigned long long>(d.published_fragments),
              static_cast<unsigned long long>(d.input_fragments),
              static_cast<unsigned long long>(d.suppressed_fragments),
              static_cast<unsigned long long>(d.clusters));
  std::printf("  total ttd            %.1f\n", d.ttd);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (args.Has("help") ||
      (!args.Has("store") && !args.Has("windows-dir"))) {
    std::puts(kUsage);
    return args.Has("help") ? 0 : 2;
  }
  // Counts and limits are never negative: the counts are cast to unsigned
  // below, where -1 would wrap to 2^64 - 1 (an unbounded limit, or a
  // failed allocation), and a negative deadline would silently mean none.
  for (const char* flag : {"observations", "victims", "samples",
                           "deadline-ms", "max-distance", "max-pairs"}) {
    if (args.GetInt(flag, 0) < 0) {
      std::cerr << "wcop_audit: --" << flag << " must not be negative\n"
                << kUsage << "\n";
      return 2;
    }
  }

  Result<attack::AdversaryModel> preset =
      attack::AdversaryPreset(args.GetString("adversary", "moderate"));
  if (!preset.ok()) {
    return Fail(preset.status());
  }
  attack::AuditOptions options;
  options.adversary = *preset;
  options.adversary.observations = static_cast<size_t>(args.GetInt(
      "observations", static_cast<int64_t>(options.adversary.observations)));
  options.adversary.noise = args.GetDouble("noise", options.adversary.noise);
  options.adversary.pmc_delta =
      args.GetDouble("pmc-delta", options.adversary.pmc_delta);
  options.adversary.tau_seconds =
      args.GetDouble("tau", options.adversary.tau_seconds);
  options.adversary.epsilon =
      args.GetDouble("epsilon", options.adversary.epsilon);
  options.adversary.seed = static_cast<uint64_t>(
      args.GetInt("seed", static_cast<int64_t>(options.adversary.seed)));

  options.published_store = args.GetString("store", "");
  options.windows_dir = args.GetString("windows-dir", "");
  options.original_store = args.GetString("original", "");
  options.victims = static_cast<size_t>(args.GetInt("victims", 0));
  options.effective_k_samples =
      static_cast<size_t>(args.GetInt("samples", 8));
  options.linkage.max_gap_seconds =
      args.GetDouble("max-gap", options.linkage.max_gap_seconds);
  options.linkage.gate_radius =
      args.GetDouble("gate-radius", options.linkage.gate_radius);
  options.threads = static_cast<int>(args.GetInt("threads", 1));

  RunContext context;
  const int64_t deadline_ms = args.GetInt("deadline-ms", 0);
  if (deadline_ms > 0) {
    context.set_deadline_after(std::chrono::milliseconds(deadline_ms));
  }
  ResourceBudget budget;
  budget.max_distance_computations =
      static_cast<uint64_t>(args.GetInt("max-distance", 0));
  budget.max_candidate_pairs =
      static_cast<uint64_t>(args.GetInt("max-pairs", 0));
  context.set_budget(budget);
  options.run_context = &context;

  telemetry::Telemetry telemetry;
  options.telemetry = &telemetry;

  if (args.Has("progress")) {
    options.progress = [](const char* phase, size_t done, size_t total) {
      std::fprintf(stderr, "wcop_audit: %s %zu/%zu\n", phase, done, total);
    };
  }

  Stopwatch stopwatch;
  Result<attack::AuditReport> report = attack::RunAudit(options);
  if (!report.ok()) {
    return Fail(report.status());
  }

  if (report->has_reident) {
    PrintReident(report->reident);
  }
  if (report->has_linkage) {
    PrintLinkage(report->linkage);
  }
  if (report->has_effective_k) {
    PrintEffectiveK(report->effective_k);
  }
  if (report->has_distortion) {
    PrintDistortion(report->distortion);
  }
  std::printf("audit finished in %.2fs\n", stopwatch.ElapsedSeconds());

  // The JSON report is deterministic (no timings, no thread-dependent
  // values): byte-identical across --threads, which CI gates on.
  const std::string json_out = args.GetString("json-out", "");
  if (!json_out.empty()) {
    Status status =
        WriteJsonFile(attack::AuditReportToJson(*report), json_out);
    if (!status.ok()) {
      return Fail(status);
    }
  }
  const std::string metrics_out = args.GetString("metrics-out", "");
  if (!metrics_out.empty()) {
    Status status = WriteJsonFile(
        MetricsToJson(telemetry.metrics().Snapshot()), metrics_out);
    if (!status.ok()) {
      return Fail(status);
    }
  }
  return 0;
}
