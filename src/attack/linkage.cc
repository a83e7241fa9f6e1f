#include "attack/linkage.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sys/stat.h>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "geo/point.h"

namespace wcop {
namespace attack {

namespace {

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Last `n` / first `n` points as a standalone trajectory for the EDR
/// tail-to-head refinement.
Trajectory TailOf(const Trajectory& t, size_t n) {
  const size_t count = std::min(n, t.size());
  std::vector<Point> points(t.points().end() - count, t.points().end());
  return Trajectory(0, std::move(points));
}

Trajectory HeadOf(const Trajectory& t, size_t n) {
  const size_t count = std::min(n, t.size());
  std::vector<Point> points(t.points().begin(),
                            t.points().begin() + count);
  return Trajectory(0, std::move(points));
}

/// One fragment's join verdict at one boundary.
struct JoinOutcome {
  Status status;
  int64_t user = 0;            ///< truth key of the fragment
  bool has_continuation = false;
  bool predicted = false;      ///< the attack committed to some candidate
  bool correct = false;
  uint64_t gated = 0;
};

JoinOutcome JoinFragment(const CandidateSource& from,
                         const CandidateSource& to, size_t i,
                         const LinkageOptions& options) {
  JoinOutcome out;
  out.user = from.KeyOf(i);
  out.has_continuation = to.FindByKey(out.user).ok();

  Result<Trajectory> frag = from.Read(i);
  if (!frag.ok()) {
    out.status = frag.status();
    return out;
  }
  if (frag->empty()) {
    return out;
  }
  const Point tail = frag->back();
  // Constant-velocity motion model from the fragment's last leg.
  double vx = 0.0, vy = 0.0;
  if (frag->size() >= 2) {
    const Point& prev = (*frag)[frag->size() - 2];
    const double dt = tail.t - prev.t;
    if (dt > 0.0) {
      vx = (tail.x - prev.x) / dt;
      vy = (tail.y - prev.y) / dt;
    }
  }

  // Gate the next release's index by time and dilated MBR; only survivors
  // are read.
  struct Scored {
    double coarse;  ///< predicted-position error at the candidate's start
    int64_t key;    ///< deterministic tie-break
    size_t index;
  };
  std::vector<Scored> gated;
  for (size_t j = 0; j < to.size(); ++j) {
    const store::StoreEntry& e = to.entry(j);
    if (e.t_min < tail.t - options.overlap_slack_seconds ||
        e.t_min > tail.t + options.max_gap_seconds) {
      continue;
    }
    const double dt = std::max(e.t_min - tail.t, 0.0);
    const Point predicted{tail.x + vx * dt, tail.y + vy * dt, e.t_min};
    if (PointToEntryDistance(e, predicted) > options.gate_radius) {
      continue;
    }
    gated.push_back({0.0, to.KeyOf(j), j});
  }
  out.gated = gated.size();
  if (gated.empty()) {
    return out;
  }
  if (options.run_context != nullptr) {
    options.run_context->ChargeCandidatePairs(gated.size());
  }

  // Coarse score: exact predicted-position error at each survivor's first
  // fix (one block read each).
  for (Scored& s : gated) {
    Result<Trajectory> candidate = to.Read(s.index);
    if (!candidate.ok()) {
      out.status = candidate.status();
      return out;
    }
    const Point& head = candidate->front();
    const double dt = std::max(head.t - tail.t, 0.0);
    const Point predicted{tail.x + vx * dt, tail.y + vy * dt, head.t};
    s.coarse = SpatialDistance(predicted, head);
  }
  std::sort(gated.begin(), gated.end(), [](const Scored& a, const Scored& b) {
    if (a.coarse != b.coarse) {
      return a.coarse < b.coarse;
    }
    if (a.key != b.key) {
      return a.key < b.key;
    }
    return a.index < b.index;
  });

  // EDR refinement over the beam: align the fragment's tail with each
  // finalist's head under the best-so-far cutoff (early-abandoned), and
  // commit to the lowest (edr, coarse, key).
  const size_t beam = std::min(options.beam, gated.size());
  const Trajectory tail_traj = TailOf(*frag, options.edr_points);
  size_t best = 0;
  double best_edr = std::numeric_limits<double>::infinity();
  for (size_t b = 0; b < beam; ++b) {
    Result<Trajectory> candidate = to.Read(gated[b].index);
    if (!candidate.ok()) {
      out.status = candidate.status();
      return out;
    }
    if (options.run_context != nullptr) {
      options.run_context->ChargeDistance();
    }
    const Trajectory head_traj = HeadOf(*candidate, options.edr_points);
    bool abandoned = false;
    const double edr =
        EdrDistance(tail_traj, head_traj, options.tolerance,
                    std::isfinite(best_edr) ? best_edr
                                            : std::numeric_limits<double>::max(),
                    &abandoned);
    if (edr < best_edr) {
      best_edr = edr;
      best = b;
    }
  }
  out.predicted = true;
  out.correct = gated[best].key == out.user;
  return out;
}

}  // namespace

Result<std::vector<std::string>> ListWindowStores(const std::string& dir) {
  // The pipeline publishes windows as a contiguous window_NNNNN.wst
  // sequence from 0 (manifest replay guarantees no holes), so an existence
  // scan is both simpler and more deterministic than directory order.
  std::vector<std::string> paths;
  for (size_t w = 0;; ++w) {
    char name[64];
    std::snprintf(name, sizeof(name), "/window_%05llu.wst",
                  static_cast<unsigned long long>(w));
    const std::string path = dir + name;
    if (!FileExists(path)) {
      break;
    }
    paths.push_back(path);
  }
  if (paths.empty()) {
    return Status::NotFound("no window_NNNNN.wst stores under " + dir);
  }
  return paths;
}

Status LinkageAccumulator::AddBoundary(const CandidateSource& from,
                                       const CandidateSource& to,
                                       const LinkageOptions& options) {
  WCOP_TRACE_SPAN(options.telemetry, "attack/linkage");
  parallel::ParallelOptions popts;
  popts.threads = options.threads;
  popts.grain = 1;
  popts.context = options.run_context;
  popts.telemetry = options.telemetry;
  WCOP_ASSIGN_OR_RETURN(
      std::vector<JoinOutcome> outcomes,
      parallel::ParallelMap<JoinOutcome>(
          from.size(),
          [&](size_t i) { return JoinFragment(from, to, i, options); },
          popts));
  uint64_t attempted = 0;
  uint64_t joined = 0;
  for (const JoinOutcome& out : outcomes) {
    WCOP_RETURN_IF_ERROR(out.status);
    ++result_.fragments;
    result_.pairs_gated += out.gated;
    if (out.has_continuation) {
      ++attempted;
      auto& tally = user_pairs_[out.user];
      ++tally.first;
      if (out.predicted && out.correct) {
        ++joined;
        ++tally.second;
      }
    }
  }
  ++result_.boundaries;
  result_.joins_attempted += attempted;
  result_.joins_correct += joined;
  if (options.telemetry != nullptr) {
    telemetry::MetricsRegistry& metrics = options.telemetry->metrics();
    metrics.GetCounter("attack.linkage.attempted")->Add(attempted);
    metrics.GetCounter("attack.linkage.joined")->Add(joined);
  }
  return Status::OK();
}

LinkageResult LinkageAccumulator::Finish(size_t windows) const {
  LinkageResult result = result_;
  result.windows = windows;
  if (result.joins_attempted > 0) {
    result.linkage_rate = static_cast<double>(result.joins_correct) /
                          static_cast<double>(result.joins_attempted);
  }
  for (const auto& [user, tally] : user_pairs_) {
    (void)user;
    ++result.users_total;
    if (tally.second == tally.first) {
      ++result.users_tracked;
    }
  }
  if (result.users_total > 0) {
    result.trackable_fraction = static_cast<double>(result.users_tracked) /
                                static_cast<double>(result.users_total);
  }
  return result;
}

Result<LinkageResult> RunLinkageAttack(
    const std::vector<std::string>& window_paths,
    const LinkageOptions& options) {
  WCOP_RETURN_IF_ERROR(CheckRunContext(options.run_context));
  LinkageAccumulator linkage;
  if (window_paths.size() >= 2) {
    // The later window of boundary b is the earlier one of boundary b+1.
    WCOP_ASSIGN_OR_RETURN(
        StoreCandidateSource from,
        StoreCandidateSource::Open(window_paths[0],
                                   StoreCandidateSource::TruthKey::kParentId,
                                   options.run_context));
    for (size_t b = 1; b < window_paths.size(); ++b) {
      WCOP_ASSIGN_OR_RETURN(
          StoreCandidateSource to,
          StoreCandidateSource::Open(window_paths[b],
                                     StoreCandidateSource::TruthKey::kParentId,
                                     options.run_context));
      WCOP_RETURN_IF_ERROR(linkage.AddBoundary(from, to, options));
      if (options.progress) {
        options.progress(b, window_paths.size() - 1);
      }
      WCOP_RETURN_IF_ERROR(CheckRunContext(options.run_context));
      from = std::move(to);
    }
  }
  return linkage.Finish(window_paths.size());
}

}  // namespace attack
}  // namespace wcop
