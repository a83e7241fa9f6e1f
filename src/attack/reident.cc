#include "attack/reident.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "geo/point.h"

namespace wcop {
namespace attack {

namespace {

/// A present victim, set up once per victim block: the adversary's
/// observations and the exact score of the true published candidate,
/// against which every other candidate's certified bound is compared.
struct VictimSetup {
  Status status;
  size_t truth_index = 0;
  std::vector<Point> observations;
  double s_true = 0.0;
};

VictimSetup SetUpVictim(const CandidateSource& original,
                        const CandidateSource& published, size_t victim,
                        size_t truth_index, const AdversaryModel& adversary) {
  VictimSetup setup;
  setup.truth_index = truth_index;
  Result<Trajectory> truth = original.Read(victim);
  if (!truth.ok()) {
    setup.status = truth.status();
    return setup;
  }
  setup.observations = SampleObservations(
      *truth, adversary, static_cast<uint64_t>(original.KeyOf(victim)));
  Result<Trajectory> truth_published = published.Read(truth_index);
  if (!truth_published.ok()) {
    setup.status = truth_published.status();
    return setup;
  }
  for (const Point& obs : setup.observations) {
    setup.s_true +=
        SpatialDistance(truth_published->PositionAt(obs.t), obs);
  }
  return setup;
}

}  // namespace

VictimSample DrawVictims(const CandidateSource& original, size_t num_victims,
                         uint64_t seed) {
  VictimSample sample;
  sample.victims = DrawSubset(original.size(), num_victims, seed);
  sample.by_key.reserve(sample.victims.size());
  for (size_t v = 0; v < sample.victims.size(); ++v) {
    sample.by_key.emplace_back(original.KeyOf(sample.victims[v]), v);
  }
  std::sort(sample.by_key.begin(), sample.by_key.end());
  return sample;
}

Result<ReidentResult> RunReidentAttack(const CandidateSource& original,
                                       const CandidateSource& published,
                                       const ReidentOptions& options) {
  // Victim selection: a deterministic shuffle of the victim universe,
  // independent of thread count (the per-victim observation streams are
  // keyed on the truth key, not on draw order).
  return RunReidentAttack(
      original, published,
      DrawVictims(original, options.num_victims, options.adversary.seed),
      options);
}

Result<ReidentResult> RunReidentAttack(const CandidateSource& original,
                                       const CandidateSource& published,
                                       const VictimSample& sample,
                                       const ReidentOptions& options) {
  if (original.size() == 0 || published.size() == 0) {
    return Status::InvalidArgument("attack needs non-empty datasets");
  }
  if (options.adversary.observations == 0) {
    return Status::InvalidArgument("need at least one observation");
  }
  WCOP_RETURN_IF_ERROR(CheckRunContext(options.run_context));
  WCOP_TRACE_SPAN(options.telemetry, "attack/reident");

  telemetry::Counter* victims_counter = nullptr;
  telemetry::Counter* candidates_counter = nullptr;
  telemetry::Counter* pruned_counter = nullptr;
  telemetry::Counter* top1_counter = nullptr;
  telemetry::Histogram* rank_histogram = nullptr;
  if (options.telemetry != nullptr) {
    auto& metrics = options.telemetry->metrics();
    victims_counter = metrics.GetCounter("attack.victims");
    candidates_counter = metrics.GetCounter("attack.candidates");
    pruned_counter = metrics.GetCounter("attack.candidates.pruned");
    top1_counter = metrics.GetCounter("attack.matches.top1");
    rank_histogram = metrics.GetHistogram("attack.rank");
  }

  ReidentResult result;
  double top1_sum = 0.0;
  double top5_sum = 0.0;
  double rank_sum = 0.0;
  double reciprocal_sum = 0.0;

  // Presence first, from the keys alone: victims with nothing to link to
  // are suppressed, and only present ones fill the victim blocks — a
  // window holding a few sampled victims is then walked once, not once
  // per block of the whole sample. One walk over the published keys
  // finds each present victim's first entry (the one FindByKey returns);
  // sorting by victim position restores victim order.
  const std::vector<size_t>& victims = sample.victims;
  std::vector<std::pair<size_t, size_t>> present;  // (position, truth index)
  for (size_t j = 0; j < published.size(); ++j) {
    const int64_t key = published.KeyOf(j);
    auto it = std::lower_bound(
        sample.by_key.begin(), sample.by_key.end(), key,
        [](const std::pair<int64_t, size_t>& e, int64_t k) {
          return e.first < k;
        });
    for (; it != sample.by_key.end() && it->first == key; ++it) {
      present.emplace_back(it->second, j);
    }
  }
  std::sort(present.begin(), present.end());
  present.erase(std::unique(present.begin(), present.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                present.end());
  result.victims_suppressed = victims.size() - present.size();

  // Victim blocks of kBlock: set each victim up once (in parallel), then
  // one candidate-major join reads each surviving block once for the
  // whole block and keeps integer tallies per victim. The coordinator
  // folds the outcomes in victim order, so the doubles are summed in one
  // fixed order; memory stays O(index + block).
  constexpr size_t kBlock = 256;
  parallel::ParallelOptions popts;
  popts.threads = options.threads;
  popts.grain = 1;
  popts.context = options.run_context;
  popts.telemetry = options.telemetry;
  const size_t candidates = published.size();
  std::vector<VictimSetup> setups;
  const auto test = [&setups](size_t v, size_t j,
                              const store::StoreEntry& row,
                              JoinTally* tally) {
    // A candidate whose lower bound (sum of observation-to-MBR distances)
    // strictly exceeds s_true scores strictly worse than the truth: it can
    // neither outrank nor tie it, so it counts as "worse" unread.
    const VictimSetup& s = setups[v];
    if (j == s.truth_index) {
      return false;
    }
    double bound = 0.0;
    for (const Point& obs : s.observations) {
      bound += PointToEntryDistance(row, obs);
      if (bound > s.s_true) {
        ++tally->pruned;
        return false;
      }
    }
    return true;
  };
  // Exact scoring keeps the tie semantics: == on the score sum.
  const auto score = [&setups](size_t v, const Trajectory& candidate,
                               JoinTally* tally) {
    const VictimSetup& s = setups[v];
    double sum = 0.0;
    for (const Point& obs : s.observations) {
      sum += SpatialDistance(candidate.PositionAt(obs.t), obs);
    }
    if (sum < s.s_true) {
      ++tally->better;
    } else if (sum == s.s_true) {
      ++tally->tied;
    }
  };

  for (size_t begin = 0; begin < present.size(); begin += kBlock) {
    const size_t count = std::min(kBlock, present.size() - begin);
    if (options.run_context != nullptr) {
      options.run_context->ChargeCandidatePairs(count * candidates);
    }
    WCOP_ASSIGN_OR_RETURN(
        setups, parallel::ParallelMap<VictimSetup>(
                    count,
                    [&](size_t i) {
                      return SetUpVictim(original, published,
                                         victims[present[begin + i].first],
                                         present[begin + i].second,
                                         options.adversary);
                    },
                    popts));
    for (VictimSetup& s : setups) {
      WCOP_RETURN_IF_ERROR(s.status);
      // Re-home the observations on this thread: every join thread reads
      // them for every candidate, and where a setup worker allocated them
      // they can share cache lines with that worker's transient block
      // reads (see DESIGN.md "Attack subsystem").
      s.observations = std::vector<Point>(s.observations);
    }
    WCOP_ASSIGN_OR_RETURN(std::vector<JoinTally> tallies,
                          JoinCandidates(published, count, test, score,
                                         popts));
    for (const JoinTally& t : tallies) {
      // Uniform tie-breaking over the tied block (the truth plus its exact
      // ties): expected rank is the block midpoint; the truth lands in the
      // top-m when it draws one of the first m - better slots.
      const double block = static_cast<double>(t.tied + 1);
      const double rank = static_cast<double>(t.better) + (block + 1.0) / 2.0;
      ++result.victims_attacked;
      top1_sum += t.better == 0 ? 1.0 / block : 0.0;
      if (t.better < 5) {
        top5_sum +=
            std::min(block, 5.0 - static_cast<double>(t.better)) / block;
      }
      rank_sum += rank;
      reciprocal_sum += 1.0 / rank;
      result.candidates_total += candidates;
      result.candidates_scored += t.scored + 1;  // + the truth itself
      result.candidates_pruned += t.pruned;
      if (rank_histogram != nullptr) {
        rank_histogram->Record(static_cast<uint64_t>(std::llround(rank)));
      }
    }
    if (options.progress) {
      options.progress(result.victims_suppressed + begin + count,
                       victims.size());
    }
    WCOP_RETURN_IF_ERROR(CheckRunContext(options.run_context));
  }
  if (present.empty() && options.progress) {
    options.progress(victims.size(), victims.size());
  }

  if (result.victims_attacked > 0) {
    const double n = static_cast<double>(result.victims_attacked);
    result.top1_success = top1_sum / n;
    result.top5_success = top5_sum / n;
    result.mean_true_rank = rank_sum / n;
    result.mean_reciprocal_rank = reciprocal_sum / n;
  }
  telemetry::CounterAdd(victims_counter, result.victims_attacked);
  telemetry::CounterAdd(candidates_counter, result.candidates_scored);
  telemetry::CounterAdd(pruned_counter, result.candidates_pruned);
  telemetry::CounterAdd(
      top1_counter, static_cast<uint64_t>(std::llround(top1_sum)));
  return result;
}

}  // namespace attack
}  // namespace wcop
