#include "attack/effective_k.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <utility>

#include "common/parallel.h"
#include "common/rng.h"
#include "geo/point.h"

namespace wcop {
namespace attack {

namespace {

/// A measured user, set up once per user block: the known τ-interval
/// and the positions sampled inside it.
struct UserSetup {
  Status status;
  size_t user = 0;       ///< index in the published source
  bool skipped = false;  ///< degenerate lifetime, nothing to measure
  double start = 0.0;
  double end = 0.0;
  std::vector<Point> known;
};

UserSetup SetUpUser(const CandidateSource& published, size_t user,
                    const EffectiveKOptions& options) {
  UserSetup setup;
  setup.user = user;
  Result<Trajectory> traj = published.Read(user);
  if (!traj.ok()) {
    setup.status = traj.status();
    return setup;
  }
  if (traj->empty()) {
    setup.skipped = true;
    return setup;
  }
  const double duration = traj->Duration();
  const double tau = std::min(options.adversary.tau_seconds, duration);

  // Deterministic choice of *which* τ-interval the adversary knows: a
  // per-user stream draws the interval start, so the measurement depends
  // only on (seed, user key), never on scheduling.
  Rng rng(MixSeed(options.adversary.seed, static_cast<uint64_t>(
                                              published.KeyOf(user))));
  const double slack = duration - tau;
  setup.start =
      traj->StartTime() + (slack > 0.0 ? rng.UniformReal(0.0, slack) : 0.0);
  setup.end = setup.start + tau;

  const size_t samples = std::max<size_t>(options.samples, 1);
  setup.known.reserve(samples);
  for (size_t s = 0; s < samples; ++s) {
    const double frac =
        samples == 1 ? 0.0
                     : static_cast<double>(s) /
                           static_cast<double>(samples - 1);
    const double t = setup.start + frac * (setup.end - setup.start);
    setup.known.push_back(traj->PositionAt(t));
  }
  return setup;
}

double NearestRankPercentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n));
  rank = std::min(std::max<size_t>(rank, 1), sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

}  // namespace

Result<EffectiveKSamples> MeasureEffectiveKSamples(
    const CandidateSource& published, const EffectiveKOptions& options) {
  if (published.size() == 0) {
    return Status::InvalidArgument("effective-k needs a non-empty source");
  }
  WCOP_RETURN_IF_ERROR(CheckRunContext(options.run_context));
  WCOP_TRACE_SPAN(options.telemetry, "attack/effective_k");

  const std::vector<size_t> users =
      DrawSubset(published.size(), options.num_users, options.adversary.seed);

  EffectiveKSamples result;
  result.samples.reserve(users.size());
  // User blocks of kBlock, each set up once, then walked by one
  // candidate-major join (see JoinCandidates) that reads a block at most
  // once per user block.
  constexpr size_t kBlock = 256;
  parallel::ParallelOptions popts;
  popts.threads = options.threads;
  popts.grain = 1;
  popts.context = options.run_context;
  popts.telemetry = options.telemetry;
  const double epsilon = options.adversary.epsilon;
  std::vector<UserSetup> setups;
  const auto test = [&](size_t u, size_t j, const store::StoreEntry& row,
                        JoinTally* tally) {
    const UserSetup& s = setups[u];
    // A record that does not overlap the known interval in time is
    // distinguishable from the victim outright.
    if (s.skipped || row.t_max < s.start || row.t_min > s.end) {
      return false;
    }
    // Certified prefilter: PositionAt never leaves the spatial MBR, so a
    // candidate whose ε-dilated MBR excludes any known position cannot be
    // within ε of it — skip without reading the block.
    for (const Point& p : s.known) {
      if (PointToEntryDistance(row, p) > epsilon) {
        return false;
      }
    }
    if (j == s.user) {
      ++tally->effective;  // the user itself, unread
      return false;
    }
    return true;
  };
  const auto score = [&](size_t u, const Trajectory& candidate,
                         JoinTally* tally) {
    for (const Point& p : setups[u].known) {
      if (SpatialDistance(candidate.PositionAt(p.t), p) > epsilon) {
        return;
      }
    }
    ++tally->effective;
  };

  for (size_t begin = 0; begin < users.size(); begin += kBlock) {
    const size_t count = std::min(kBlock, users.size() - begin);
    if (options.run_context != nullptr) {
      options.run_context->ChargeCandidatePairs(count * published.size());
    }
    WCOP_ASSIGN_OR_RETURN(
        setups, parallel::ParallelMap<UserSetup>(
                    count,
                    [&](size_t i) {
                      return SetUpUser(published, users[begin + i], options);
                    },
                    popts));
    for (UserSetup& s : setups) {
      WCOP_RETURN_IF_ERROR(s.status);
      s.known = std::vector<Point>(s.known);  // re-homed, as in reident.cc
    }
    WCOP_ASSIGN_OR_RETURN(std::vector<JoinTally> tallies,
                          JoinCandidates(published, count, test, score,
                                         popts));
    for (size_t i = 0; i < count; ++i) {
      if (setups[i].skipped) {
        continue;
      }
      const store::StoreEntry& self = published.entry(setups[i].user);
      EffectiveKSamples::Sample sample;
      sample.k = static_cast<int>(self.k);
      sample.delta = self.delta;
      sample.effective_k = tallies[i].effective;
      result.samples.push_back(sample);
    }
    if (options.progress) {
      options.progress(begin + count, users.size());
    }
    WCOP_RETURN_IF_ERROR(CheckRunContext(options.run_context));
  }
  return result;
}

EffectiveKResult SummarizeEffectiveK(const EffectiveKSamples& samples,
                                     telemetry::Telemetry* telemetry) {
  telemetry::Histogram* histogram = nullptr;
  telemetry::Counter* violations_counter = nullptr;
  if (telemetry != nullptr) {
    histogram = telemetry->metrics().GetHistogram("attack.effective_k");
    violations_counter =
        telemetry->metrics().GetCounter("attack.effective_k.violations");
  }

  EffectiveKResult result;
  // Group by the exact requested (k, δ) pair; the map keeps policies in
  // deterministic (k, δ) order for the report.
  std::map<std::pair<int, double>, std::vector<uint64_t>> by_policy;
  double total = 0.0;
  size_t violations = 0;
  for (const EffectiveKSamples::Sample& s : samples.samples) {
    by_policy[{s.k, s.delta}].push_back(s.effective_k);
    total += static_cast<double>(s.effective_k);
    if (s.effective_k < static_cast<uint64_t>(std::max(s.k, 0))) {
      ++violations;
    }
    if (histogram != nullptr) {
      histogram->Record(s.effective_k);
    }
  }
  result.users_measured = samples.samples.size();
  if (result.users_measured > 0) {
    result.mean_effective_k = total / static_cast<double>(
                                          result.users_measured);
    result.violation_fraction =
        static_cast<double>(violations) /
        static_cast<double>(result.users_measured);
  }
  telemetry::CounterAdd(violations_counter, violations);
  for (auto& [policy, values] : by_policy) {
    std::sort(values.begin(), values.end());
    PolicyEffectiveK row;
    row.k = policy.first;
    row.delta = policy.second;
    row.users = values.size();
    row.mean = static_cast<double>(
                   std::accumulate(values.begin(), values.end(),
                                   static_cast<uint64_t>(0))) /
               static_cast<double>(values.size());
    row.p5 = NearestRankPercentile(values, 0.05);
    row.p25 = NearestRankPercentile(values, 0.25);
    row.p50 = NearestRankPercentile(values, 0.50);
    for (uint64_t v : values) {
      if (v < static_cast<uint64_t>(std::max(row.k, 0))) {
        ++row.violations;
      }
    }
    result.policies.push_back(row);
  }
  return result;
}

Result<EffectiveKResult> MeasureEffectiveK(const CandidateSource& published,
                                           const EffectiveKOptions& options) {
  WCOP_ASSIGN_OR_RETURN(EffectiveKSamples samples,
                        MeasureEffectiveKSamples(published, options));
  return SummarizeEffectiveK(samples, options.telemetry);
}

}  // namespace attack
}  // namespace wcop
