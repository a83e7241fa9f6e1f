// The red-team subsystem audits publications; these tests audit the red
// team: the out-of-core store path must agree with the in-memory dataset
// path, the block-join scans must agree exactly with the victim-major
// scans kept here as their oracle and read each block at most once per
// victim block, the one-pass windows audit must reproduce the two-pass
// streaming audit kept here as its oracle byte for byte and read each
// window block once, the audit JSON must be byte-identical across thread
// counts, the effective-k quantifier must flag a deliberately weakened
// publication (and must not cry wolf on a genuinely collapsed one), and
// the linkage attack must recover hand-built ground truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "anon/attack.h"
#include "anon/wcop.h"
#include "attack/audit.h"
#include "attack/candidate_source.h"
#include "attack/effective_k.h"
#include "attack/linkage.h"
#include "attack/reident.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "pipeline/continuous.h"
#include "pipeline/manifest.h"
#include "store/store_file.h"
#include "test_util.h"

namespace wcop {
namespace attack {
namespace {

using testing_util::MakeLineWithReq;
using testing_util::SmallSynthetic;

std::string TempPath(const std::string& name) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(path);
  return path;
}

// Writes `dataset` to a fresh store and opens it as a candidate source.
Result<StoreCandidateSource> StoreSourceFor(const Dataset& dataset,
                                            const std::string& name) {
  const std::string path = TempPath(name);
  WCOP_RETURN_IF_ERROR(store::WriteDatasetStore(dataset, path));
  return StoreCandidateSource::Open(path);
}

// ---------------------------------------------------------------------------
// Dataset source and store source must produce identical attack results.
// ---------------------------------------------------------------------------

TEST(ReidentEquivalence, StoreMatchesDatasetExactly) {
  const Dataset original = SmallSynthetic(30, 40, 4, 250.0, 21);
  WcopOptions wcop;
  wcop.seed = 5;
  Result<AnonymizationResult> anonymized = RunWcopCt(original, wcop);
  ASSERT_TRUE(anonymized.ok()) << anonymized.status();

  ReidentOptions options;
  options.adversary.observations = 4;
  options.adversary.noise = 20.0;

  const DatasetCandidateSource mem_original(original);
  const DatasetCandidateSource mem_published(anonymized->sanitized);
  Result<ReidentResult> mem =
      RunReidentAttack(mem_original, mem_published, options);
  ASSERT_TRUE(mem.ok()) << mem.status();

  Result<StoreCandidateSource> disk_original =
      StoreSourceFor(original, "attack_eq_orig.wst");
  ASSERT_TRUE(disk_original.ok()) << disk_original.status();
  Result<StoreCandidateSource> disk_published =
      StoreSourceFor(anonymized->sanitized, "attack_eq_pub.wst");
  ASSERT_TRUE(disk_published.ok()) << disk_published.status();
  Result<ReidentResult> disk =
      RunReidentAttack(*disk_original, *disk_published, options);
  ASSERT_TRUE(disk.ok()) << disk.status();

  EXPECT_EQ(mem->victims_attacked, disk->victims_attacked);
  EXPECT_EQ(mem->victims_suppressed, disk->victims_suppressed);
  EXPECT_DOUBLE_EQ(mem->top1_success, disk->top1_success);
  EXPECT_DOUBLE_EQ(mem->top5_success, disk->top5_success);
  EXPECT_DOUBLE_EQ(mem->mean_true_rank, disk->mean_true_rank);
  EXPECT_DOUBLE_EQ(mem->mean_reciprocal_rank, disk->mean_reciprocal_rank);
  EXPECT_EQ(mem->candidates_total, disk->candidates_total);
  // Pruning counts may differ (the dataset adapter synthesizes the same
  // MBRs, so in fact they should not) — but correctness only requires the
  // *scores* to agree; assert the strong property anyway to pin the
  // adapter's MBR synthesis.
  EXPECT_EQ(mem->candidates_pruned, disk->candidates_pruned);
}

// ---------------------------------------------------------------------------
// Oracle: the victim-major scans the candidate-major block join replaced.
// Each victim walks every index row itself and reads every candidate that
// survives the bound; the join must reproduce every count and every score
// comparison exactly.
// ---------------------------------------------------------------------------

struct OracleVictim {
  bool suppressed = false;
  double top1 = 0.0;
  double top5 = 0.0;
  double rank = 0.0;
  double reciprocal = 0.0;
  uint64_t scored = 0;
  uint64_t pruned = 0;
};

OracleVictim OracleAttackVictim(const CandidateSource& original,
                                const CandidateSource& published,
                                size_t victim, const AdversaryModel& model) {
  OracleVictim out;
  const int64_t key = original.KeyOf(victim);
  Result<size_t> truth_index = published.FindByKey(key);
  if (!truth_index.ok()) {
    out.suppressed = true;
    return out;
  }
  Result<Trajectory> truth = original.Read(victim);
  EXPECT_TRUE(truth.ok()) << truth.status();
  const std::vector<Point> observations =
      SampleObservations(*truth, model, static_cast<uint64_t>(key));
  Result<Trajectory> truth_published = published.Read(*truth_index);
  EXPECT_TRUE(truth_published.ok()) << truth_published.status();
  double s_true = 0.0;
  for (const Point& obs : observations) {
    s_true += SpatialDistance(truth_published->PositionAt(obs.t), obs);
  }
  out.scored = 1;
  size_t better = 0;
  size_t tied = 1;
  for (size_t j = 0; j < published.size(); ++j) {
    if (j == *truth_index) {
      continue;
    }
    double bound = 0.0;
    for (const Point& obs : observations) {
      bound += PointToEntryDistance(published.entry(j), obs);
      if (bound > s_true) {
        break;
      }
    }
    if (bound > s_true) {
      ++out.pruned;
      continue;
    }
    Result<Trajectory> candidate = published.Read(j);
    EXPECT_TRUE(candidate.ok()) << candidate.status();
    double score = 0.0;
    for (const Point& obs : observations) {
      score += SpatialDistance(candidate->PositionAt(obs.t), obs);
    }
    ++out.scored;
    if (score < s_true) {
      ++better;
    } else if (score == s_true) {
      ++tied;
    }
  }
  const double block = static_cast<double>(tied);
  out.rank = static_cast<double>(better) + (block + 1.0) / 2.0;
  out.top1 = better == 0 ? 1.0 / block : 0.0;
  if (better < 5) {
    out.top5 = std::min(block, 5.0 - static_cast<double>(better)) / block;
  }
  out.reciprocal = 1.0 / out.rank;
  return out;
}

// The seeded shuffle DrawSubset uses to pick a capped subset, spelled out
// again for the oracle.
std::vector<size_t> OracleSubset(size_t universe, size_t cap,
                                 uint64_t seed) {
  std::vector<size_t> picked(universe);
  std::iota(picked.begin(), picked.end(), 0);
  if (cap > 0 && cap < picked.size()) {
    Rng rng(seed);
    std::shuffle(picked.begin(), picked.end(), rng.engine());
    picked.resize(cap);
    std::sort(picked.begin(), picked.end());
  }
  return picked;
}

ReidentResult OracleReident(const CandidateSource& original,
                            const CandidateSource& published,
                            const ReidentOptions& options) {
  ReidentResult result;
  double top1_sum = 0.0;
  double top5_sum = 0.0;
  double rank_sum = 0.0;
  double reciprocal_sum = 0.0;
  for (size_t victim : OracleSubset(original.size(), options.num_victims,
                                    options.adversary.seed)) {
    const OracleVictim out =
        OracleAttackVictim(original, published, victim, options.adversary);
    if (out.suppressed) {
      ++result.victims_suppressed;
      continue;
    }
    ++result.victims_attacked;
    top1_sum += out.top1;
    top5_sum += out.top5;
    rank_sum += out.rank;
    reciprocal_sum += out.reciprocal;
    result.candidates_total += published.size();
    result.candidates_scored += out.scored;
    result.candidates_pruned += out.pruned;
  }
  if (result.victims_attacked > 0) {
    const double n = static_cast<double>(result.victims_attacked);
    result.top1_success = top1_sum / n;
    result.top5_success = top5_sum / n;
    result.mean_true_rank = rank_sum / n;
    result.mean_reciprocal_rank = reciprocal_sum / n;
  }
  return result;
}

EffectiveKSamples OracleEffectiveKSamples(const CandidateSource& published,
                                          const EffectiveKOptions& options) {
  EffectiveKSamples result;
  const double epsilon = options.adversary.epsilon;
  for (size_t user : OracleSubset(published.size(), options.num_users,
                                  options.adversary.seed)) {
    Result<Trajectory> traj = published.Read(user);
    EXPECT_TRUE(traj.ok()) << traj.status();
    if (traj->empty()) {
      continue;
    }
    const double duration = traj->Duration();
    const double tau = std::min(options.adversary.tau_seconds, duration);
    Rng rng(MixSeed(options.adversary.seed,
                    static_cast<uint64_t>(published.KeyOf(user))));
    const double slack = duration - tau;
    const double start = traj->StartTime() +
                         (slack > 0.0 ? rng.UniformReal(0.0, slack) : 0.0);
    const double end = start + tau;
    const size_t samples = std::max<size_t>(options.samples, 1);
    std::vector<Point> known;
    for (size_t s = 0; s < samples; ++s) {
      const double frac = samples == 1 ? 0.0
                                       : static_cast<double>(s) /
                                             static_cast<double>(samples - 1);
      known.push_back(traj->PositionAt(start + frac * (end - start)));
    }
    uint64_t effective = 0;
    for (size_t j = 0; j < published.size(); ++j) {
      const store::StoreEntry& e = published.entry(j);
      if (e.t_max < start || e.t_min > end) {
        continue;
      }
      bool possible = true;
      for (const Point& p : known) {
        if (PointToEntryDistance(e, p) > epsilon) {
          possible = false;
          break;
        }
      }
      if (!possible) {
        continue;
      }
      if (j == user) {
        ++effective;
        continue;
      }
      Result<Trajectory> candidate = published.Read(j);
      EXPECT_TRUE(candidate.ok()) << candidate.status();
      bool consistent = true;
      for (const Point& p : known) {
        if (SpatialDistance(candidate->PositionAt(p.t), p) > epsilon) {
          consistent = false;
          break;
        }
      }
      if (consistent) {
        ++effective;
      }
    }
    EffectiveKSamples::Sample sample;
    sample.k = static_cast<int>(published.entry(user).k);
    sample.delta = published.entry(user).delta;
    sample.effective_k = effective;
    result.samples.push_back(sample);
  }
  return result;
}

void ExpectSameReident(const ReidentResult& want, const ReidentResult& got) {
  EXPECT_EQ(want.victims_attacked, got.victims_attacked);
  EXPECT_EQ(want.victims_suppressed, got.victims_suppressed);
  EXPECT_EQ(want.top1_success, got.top1_success);
  EXPECT_EQ(want.top5_success, got.top5_success);
  EXPECT_EQ(want.mean_true_rank, got.mean_true_rank);
  EXPECT_EQ(want.mean_reciprocal_rank, got.mean_reciprocal_rank);
  EXPECT_EQ(want.candidates_total, got.candidates_total);
  EXPECT_EQ(want.candidates_scored, got.candidates_scored);
  EXPECT_EQ(want.candidates_pruned, got.candidates_pruned);
}

void ExpectSameSamples(const EffectiveKSamples& want,
                       const EffectiveKSamples& got) {
  ASSERT_EQ(want.samples.size(), got.samples.size());
  for (size_t i = 0; i < want.samples.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    EXPECT_EQ(want.samples[i].k, got.samples[i].k);
    EXPECT_EQ(want.samples[i].delta, got.samples[i].delta);
    EXPECT_EQ(want.samples[i].effective_k, got.samples[i].effective_k);
  }
}

// A seeded adversarial audit corpus. The original holds `present` victims
// that appear in the publication plus `absent` ones that were suppressed.
// The publication holds each present victim jittered, `clones` exact
// copies of published victims under fresh ids (their re-identification
// scores tie the truth's exactly, and they are co-located for effective-
// k), `duplicates` extra entries reusing a present victim's truth key,
// and unrelated trajectories up to `n` entries, in shuffled order.
struct OracleCorpus {
  Dataset original;
  std::vector<std::pair<int64_t, Trajectory>> published;  // (truth key, t)
};

Trajectory RandomWalk(int64_t id, Rng* rng) {
  const size_t points = 3 + rng->UniformIndex(6);
  double x = rng->UniformReal(0.0, 3000.0);
  double y = rng->UniformReal(0.0, 3000.0);
  double t = rng->UniformReal(0.0, 3600.0);
  std::vector<Point> fixes;
  for (size_t i = 0; i < points; ++i) {
    fixes.emplace_back(x, y, t);
    x += rng->UniformReal(-80.0, 80.0);
    y += rng->UniformReal(-80.0, 80.0);
    t += 60.0;
  }
  Trajectory walk(id, std::move(fixes));
  walk.set_requirement(
      Requirement{static_cast<int>(2 + rng->UniformIndex(4)),
                  rng->UniformReal(10.0, 250.0)});
  return walk;
}

OracleCorpus MakeOracleCorpus(uint64_t seed, size_t present, size_t absent,
                              size_t clones, size_t duplicates, size_t n) {
  Rng rng(seed);
  OracleCorpus corpus;
  for (size_t i = 0; i < present + absent; ++i) {
    corpus.original.Add(RandomWalk(static_cast<int64_t>(i), &rng));
  }
  for (size_t i = 0; i < present; ++i) {
    Trajectory published = corpus.original[i];
    for (Point& p : published.mutable_points()) {
      p.x += rng.UniformReal(-40.0, 40.0);
      p.y += rng.UniformReal(-40.0, 40.0);
    }
    corpus.published.emplace_back(static_cast<int64_t>(i),
                                  std::move(published));
  }
  for (size_t c = 0; c < clones && present > 0; ++c) {
    Trajectory clone = corpus.published[rng.UniformIndex(present)].second;
    const int64_t key = 1000000 + static_cast<int64_t>(c);
    clone.set_id(key);
    corpus.published.emplace_back(key, std::move(clone));
  }
  for (size_t d = 0; d < duplicates && present > 0; ++d) {
    const size_t of = rng.UniformIndex(present);
    corpus.published.emplace_back(static_cast<int64_t>(of),
                                  RandomWalk(static_cast<int64_t>(of), &rng));
  }
  for (int64_t extra = 2000000; corpus.published.size() < n; ++extra) {
    corpus.published.emplace_back(extra, RandomWalk(extra, &rng));
  }
  std::shuffle(corpus.published.begin(), corpus.published.end(),
               rng.engine());
  return corpus;
}

// Dataset form of the publication: the truth key is the trajectory id, so
// duplicate keys are duplicate ids.
Dataset PublishedDataset(const OracleCorpus& corpus) {
  Dataset d;
  for (const auto& [key, t] : corpus.published) {
    Trajectory copy = t;
    copy.set_id(key);
    d.Add(std::move(copy));
  }
  return d;
}

// Store form: ids must be unique in a store, so the truth key travels as
// the parent id, exactly as in the continuous pipeline's window stores.
Result<StoreCandidateSource> PublishedStore(const OracleCorpus& corpus,
                                            const std::string& name) {
  Dataset d;
  int64_t id = 5000000;
  for (const auto& [key, t] : corpus.published) {
    Trajectory copy = t;
    copy.set_id(id++);
    copy.set_parent_id(key);
    d.Add(std::move(copy));
  }
  const std::string path = TempPath(name);
  WCOP_RETURN_IF_ERROR(store::WriteDatasetStore(d, path));
  return StoreCandidateSource::Open(path,
                                    StoreCandidateSource::TruthKey::kParentId);
}

struct OracleCase {
  const char* name;
  size_t present, absent, clones, duplicates, n;
  size_t cap;  ///< num_victims / num_users (0 = everyone)
};

TEST(BlockJoinOracle, MatchesVictimMajorScansOnBothSourcesAtAnyThreadCount) {
  // Victim-block edges (1, 255, 256, 257, 600 present victims), tiny
  // publications (n = 1, 2, 3), and n = 677 (not a multiple of the 64
  // candidate ranges); every corpus with absent victims, and the larger
  // ones with exact-tie clones and duplicate truth keys.
  const OracleCase cases[] = {
      {"n1", 1, 3, 0, 0, 1, 0},
      {"n2", 2, 2, 0, 0, 2, 0},
      {"n3_tie", 2, 4, 1, 0, 3, 0},
      {"present255", 255, 9, 6, 3, 293, 0},
      {"present256", 256, 0, 5, 2, 300, 0},
      {"present257", 257, 11, 4, 4, 270, 0},
      {"present600", 600, 40, 12, 6, 677, 0},
      {"capped", 600, 40, 12, 6, 677, 300},
  };
  uint64_t seed = 41;
  for (const OracleCase& c : cases) {
    SCOPED_TRACE(c.name);
    const OracleCorpus corpus = MakeOracleCorpus(
        seed++, c.present, c.absent, c.clones, c.duplicates, c.n);
    ASSERT_EQ(corpus.published.size(), c.n);
    const DatasetCandidateSource mem_original(corpus.original);
    const Dataset published_dataset = PublishedDataset(corpus);
    const DatasetCandidateSource mem_published(published_dataset);
    Result<StoreCandidateSource> disk_original = StoreSourceFor(
        corpus.original, std::string("oracle_orig_") + c.name + ".wst");
    ASSERT_TRUE(disk_original.ok()) << disk_original.status();
    Result<StoreCandidateSource> disk_published =
        PublishedStore(corpus, std::string("oracle_pub_") + c.name + ".wst");
    ASSERT_TRUE(disk_published.ok()) << disk_published.status();

    ReidentOptions reident;
    reident.adversary.observations = 5;
    reident.adversary.noise = 25.0;
    reident.num_victims = c.cap;
    EffectiveKOptions effective;
    effective.adversary.tau_seconds = 240.0;
    effective.adversary.epsilon = 150.0;
    effective.samples = 4;
    effective.num_users = c.cap;

    const std::pair<const CandidateSource*, const CandidateSource*>
        sources[] = {{&mem_original, &mem_published},
                     {&*disk_original, &*disk_published}};
    for (const auto& [original, published] : sources) {
      SCOPED_TRACE(original == &mem_original ? "dataset" : "store");
      const ReidentResult want_reident =
          OracleReident(*original, *published, reident);
      if (c.cap == 0) {
        EXPECT_EQ(want_reident.victims_attacked, c.present);
      }
      const EffectiveKSamples want_samples =
          OracleEffectiveKSamples(*published, effective);
      for (int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        reident.threads = threads;
        Result<ReidentResult> got_reident =
            RunReidentAttack(*original, *published, reident);
        ASSERT_TRUE(got_reident.ok()) << got_reident.status();
        ExpectSameReident(want_reident, *got_reident);
        effective.threads = threads;
        Result<EffectiveKSamples> got_samples =
            MeasureEffectiveKSamples(*published, effective);
        ASSERT_TRUE(got_samples.ok()) << got_samples.status();
        ExpectSameSamples(want_samples, *got_samples);
      }
    }
  }
}

// The corpora must actually exercise the tie and pruning paths the oracle
// compares, or the property above would hold vacuously.
TEST(BlockJoinOracle, CorporaExerciseTiesAndPruning) {
  ReidentOptions options;
  options.adversary.observations = 5;
  options.adversary.noise = 25.0;

  // One victim and its exact clone: the clone ties the truth's score to
  // the last bit, so the tie block is 2 wide.
  const OracleCorpus pair = MakeOracleCorpus(3, 1, 0, 1, 0, 2);
  const DatasetCandidateSource pair_original(pair.original);
  const Dataset pair_published = PublishedDataset(pair);
  const DatasetCandidateSource pair_source(pair_published);
  Result<ReidentResult> tie =
      RunReidentAttack(pair_original, pair_source, options);
  ASSERT_TRUE(tie.ok()) << tie.status();
  EXPECT_EQ(tie->top1_success, 0.5);
  EXPECT_EQ(tie->mean_true_rank, 1.5);

  const OracleCorpus corpus = MakeOracleCorpus(7, 600, 40, 12, 6, 677);
  const DatasetCandidateSource original(corpus.original);
  const Dataset published_dataset = PublishedDataset(corpus);
  const DatasetCandidateSource published(published_dataset);
  Result<ReidentResult> r = RunReidentAttack(original, published, options);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->victims_attacked, 600u);
  EXPECT_EQ(r->victims_suppressed, 40u);
  EXPECT_GT(r->candidates_pruned, 0u);
  EXPECT_GT(r->candidates_scored, r->victims_attacked);
}

// ---------------------------------------------------------------------------
// Read-once contract: on a dense store, where the bound prunes almost
// nothing, each scan reads a published block at most once per victim
// block, on top of the per-victim set-up reads.
// ---------------------------------------------------------------------------

// `count` short walks packed into one 200 m square over the same minutes:
// every candidate survives every victim's bound.
Dataset DenseCorpus(size_t count) {
  Rng rng(17);
  Dataset d;
  for (size_t i = 0; i < count; ++i) {
    std::vector<Point> fixes;
    for (size_t p = 0; p < 5; ++p) {
      fixes.emplace_back(rng.UniformReal(0.0, 200.0),
                         rng.UniformReal(0.0, 200.0),
                         60.0 * static_cast<double>(p));
    }
    Trajectory t(static_cast<int64_t>(i), std::move(fixes));
    t.set_requirement(Requirement{3, 100.0});
    d.Add(std::move(t));
  }
  return d;
}

size_t CeilDiv(size_t a, size_t b) { return (a + b - 1) / b; }

TEST(BlockJoinReadOnce, ScansReadEachBlockOncePerVictimBlock) {
  constexpr size_t kPresent = 300;
  constexpr size_t kExtra = 40;
  const Dataset everyone = DenseCorpus(kPresent + kExtra);
  Dataset victims_only;
  for (size_t i = 0; i < kPresent; ++i) {
    victims_only.Add(everyone[i]);
  }
  Result<StoreCandidateSource> original =
      StoreSourceFor(victims_only, "read_once_orig.wst");
  ASSERT_TRUE(original.ok()) << original.status();
  Result<StoreCandidateSource> published =
      StoreSourceFor(everyone, "read_once_pub.wst");
  ASSERT_TRUE(published.ok()) << published.status();
  const size_t n = published->size();

  FailpointRegistry& registry = FailpointRegistry::Instance();
  registry.EnableHitCounting(true);
  auto reads = [&registry] { return registry.HitCount("store.read_block"); };

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ReidentOptions reident;
    reident.adversary.observations = 5;
    reident.adversary.noise = 200.0;
    reident.threads = threads;
    const uint64_t before_reident = reads();
    Result<ReidentResult> r =
        RunReidentAttack(*original, *published, reident);
    const uint64_t reident_reads = reads() - before_reident;
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->victims_attacked, kPresent);
    // Dense: most pairs need their block, so a per-pair read would blow
    // far past the bound below.
    EXPECT_GT(r->candidates_scored, kPresent * n / 2);
    EXPECT_LE(reident_reads, 2 * kPresent + CeilDiv(kPresent, 256) * n);

    EffectiveKOptions effective;
    effective.adversary.tau_seconds = 240.0;
    effective.adversary.epsilon = 5000.0;
    effective.threads = threads;
    const uint64_t before_effective = reads();
    Result<EffectiveKSamples> samples =
        MeasureEffectiveKSamples(*published, effective);
    const uint64_t effective_reads = reads() - before_effective;
    ASSERT_TRUE(samples.ok()) << samples.status();
    ASSERT_EQ(samples->samples.size(), n);
    EXPECT_EQ(samples->samples[0].effective_k, n);  // everyone consistent
    EXPECT_LE(effective_reads, n + CeilDiv(n, 256) * n);
  }
  registry.EnableHitCounting(false);
}

// ---------------------------------------------------------------------------
// Determinism: the audit JSON is byte-identical across thread counts.
// ---------------------------------------------------------------------------

TEST(AuditDeterminism, JsonByteIdenticalAcrossThreadCounts) {
  const Dataset original = SmallSynthetic(36, 40, 4, 250.0, 33);
  WcopOptions wcop;
  wcop.seed = 9;
  Result<AnonymizationResult> anonymized = RunWcopCt(original, wcop);
  ASSERT_TRUE(anonymized.ok()) << anonymized.status();

  const std::string original_path = TempPath("attack_det_orig.wst");
  const std::string published_path = TempPath("attack_det_pub.wst");
  ASSERT_TRUE(store::WriteDatasetStore(original, original_path).ok());
  ASSERT_TRUE(
      store::WriteDatasetStore(anonymized->sanitized, published_path).ok());

  auto run_with = [&](int threads) {
    AuditOptions options;
    options.published_store = published_path;
    options.original_store = original_path;
    options.threads = threads;
    Result<AuditReport> report = RunAudit(options);
    EXPECT_TRUE(report.ok()) << report.status();
    return report.ok() ? AuditReportToJson(*report) : std::string();
  };
  const std::string serial = run_with(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_with(8));
  // And a victim-capped run is deterministic too (subset selection is a
  // seeded shuffle, not a schedule artifact).
  auto run_capped = [&](int threads) {
    AuditOptions options;
    options.published_store = published_path;
    options.original_store = original_path;
    options.victims = 10;
    options.threads = threads;
    Result<AuditReport> report = RunAudit(options);
    EXPECT_TRUE(report.ok()) << report.status();
    return report.ok() ? AuditReportToJson(*report) : std::string();
  };
  EXPECT_EQ(run_capped(1), run_capped(8));
}

// ---------------------------------------------------------------------------
// The effective-k property: a deliberately weakened publication (k = 1 in
// effect, whatever was requested) must be flagged — and a genuinely
// collapsed publication must not be.
// ---------------------------------------------------------------------------

// Far-apart users who all requested k = 5 but were published unmodified.
Dataset WeakenedPublication() {
  Dataset d;
  for (int i = 0; i < 12; ++i) {
    Trajectory t = MakeLineWithReq(i, 50000.0 * i, 0.0, 5.0, 3.0, 60,
                                   /*k=*/5, /*delta=*/200.0, /*dt=*/60.0);
    t.set_object_id(i);
    d.Add(std::move(t));
  }
  return d;
}

TEST(EffectiveK, FlagsWeakenedPublication) {
  const Dataset published = WeakenedPublication();
  Result<StoreCandidateSource> source =
      StoreSourceFor(published, "attack_weak.wst");
  ASSERT_TRUE(source.ok()) << source.status();

  EffectiveKOptions options;
  options.adversary.tau_seconds = 600.0;
  options.adversary.epsilon = 250.0;
  Result<EffectiveKResult> result = MeasureEffectiveK(*source, options);
  ASSERT_TRUE(result.ok()) << result.status();

  // Everyone is alone within epsilon: effective k = 1 < requested 5 for
  // every single user. The quantifier must not falsely pass anyone.
  EXPECT_EQ(result->users_measured, published.size());
  EXPECT_DOUBLE_EQ(result->violation_fraction, 1.0);
  EXPECT_DOUBLE_EQ(result->mean_effective_k, 1.0);
  ASSERT_EQ(result->policies.size(), 1u);
  EXPECT_EQ(result->policies[0].k, 5);
  EXPECT_EQ(result->policies[0].violations, published.size());
  EXPECT_DOUBLE_EQ(result->policies[0].p50, 1.0);
}

TEST(EffectiveK, PassesCollapsedKGroups) {
  // Three groups of five co-located trajectories (the shape WCOP-CT's
  // translation step produces): every member's effective k is 5.
  Dataset published;
  int64_t id = 0;
  for (int group = 0; group < 3; ++group) {
    for (int member = 0; member < 5; ++member) {
      Trajectory t = MakeLineWithReq(
          id, 50000.0 * group, 10.0 * member, 5.0, 3.0, 60,
          /*k=*/5, /*delta=*/200.0, /*dt=*/60.0);
      t.set_object_id(id);
      published.Add(std::move(t));
      ++id;
    }
  }
  Result<StoreCandidateSource> source =
      StoreSourceFor(published, "attack_collapsed.wst");
  ASSERT_TRUE(source.ok()) << source.status();

  EffectiveKOptions options;
  options.adversary.tau_seconds = 600.0;
  options.adversary.epsilon = 250.0;
  Result<EffectiveKResult> result = MeasureEffectiveK(*source, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->users_measured, published.size());
  EXPECT_DOUBLE_EQ(result->violation_fraction, 0.0);
  EXPECT_DOUBLE_EQ(result->mean_effective_k, 5.0);
}

// ---------------------------------------------------------------------------
// Linkage attack against hand-built ground truth.
// ---------------------------------------------------------------------------

TEST(Linkage, RecoversHandBuiltContinuations) {
  // Four far-apart users, each cut into a window-0 fragment and its
  // window-1 continuation starting 5 minutes after the fragment ends,
  // displaced by roughly the fragment's own velocity. Fragment ids are
  // fresh per window (as the pipeline assigns them); parent_id carries
  // the ground truth.
  const std::string dir = TempPath("attack_linkage_windows");
  std::filesystem::create_directories(dir);
  const size_t kUsers = 4;
  {
    Result<store::TrajectoryStoreWriter> w0 =
        store::TrajectoryStoreWriter::Create(dir + "/window_00000.wst");
    ASSERT_TRUE(w0.ok()) << w0.status();
    Result<store::TrajectoryStoreWriter> w1 =
        store::TrajectoryStoreWriter::Create(dir + "/window_00001.wst");
    ASSERT_TRUE(w1.ok()) << w1.status();
    for (size_t u = 0; u < kUsers; ++u) {
      const double x0 = 30000.0 * static_cast<double>(u);
      // Window 0: 20 points, 30 s apart, moving at (4, 2) m/s.
      Trajectory head = MakeLineWithReq(
          static_cast<int64_t>(100 + u), x0, 0.0, 120.0, 60.0, 20,
          /*k=*/2, /*delta=*/200.0, /*dt=*/30.0, /*t0=*/0.0);
      head.set_object_id(static_cast<int64_t>(u));
      head.set_parent_id(static_cast<int64_t>(u));
      ASSERT_TRUE(w0->Append(head).ok());
      // Window 1: continues 300 s after the last fix, from where the
      // constant-velocity extrapolation lands.
      const Point& tail = head[head.size() - 1];
      Trajectory cont = MakeLineWithReq(
          static_cast<int64_t>(200 + u), tail.x + 4.0 * 300.0,
          tail.y + 2.0 * 300.0, 120.0, 60.0, 20,
          /*k=*/2, /*delta=*/200.0, /*dt=*/30.0, /*t0=*/tail.t + 300.0);
      cont.set_object_id(static_cast<int64_t>(u));
      cont.set_parent_id(static_cast<int64_t>(u));
      ASSERT_TRUE(w1->Append(cont).ok());
    }
    ASSERT_TRUE(w0->Finish().ok());
    ASSERT_TRUE(w1->Finish().ok());
  }

  Result<std::vector<std::string>> windows = ListWindowStores(dir);
  ASSERT_TRUE(windows.ok()) << windows.status();
  ASSERT_EQ(windows->size(), 2u);

  LinkageOptions options;
  Result<LinkageResult> result = RunLinkageAttack(*windows, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->boundaries, 1u);
  EXPECT_EQ(result->joins_attempted, kUsers);
  EXPECT_EQ(result->joins_correct, kUsers);
  EXPECT_DOUBLE_EQ(result->linkage_rate, 1.0);
  EXPECT_EQ(result->users_tracked, kUsers);
  EXPECT_DOUBLE_EQ(result->trackable_fraction, 1.0);

  // A gate too tight to reach the 300 s gap finds nothing — and reports
  // that honestly rather than joining wrong candidates.
  LinkageOptions tight = options;
  tight.max_gap_seconds = 60.0;
  Result<LinkageResult> none = RunLinkageAttack(*windows, tight);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_EQ(none->joins_correct, 0u);
  EXPECT_EQ(none->users_tracked, 0u);
}

TEST(Linkage, EmptyDirectoryIsNotFound) {
  const std::string dir = TempPath("attack_linkage_empty");
  std::filesystem::create_directories(dir);
  Result<std::vector<std::string>> windows = ListWindowStores(dir);
  EXPECT_EQ(windows.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// One-pass windows mode: each window store is decoded once and attacked by
// all three scans while resident. The two-pass streaming audit it replaced
// is kept here as its oracle.
// ---------------------------------------------------------------------------

// A window source as the two-pass audit opened it: truth keys from one
// pass at open, then every Read a CRC-checked block read from disk.
class StreamingWindowSource : public CandidateSource {
 public:
  static Result<std::unique_ptr<StreamingWindowSource>> Open(
      const std::string& path) {
    WCOP_ASSIGN_OR_RETURN(store::TrajectoryStoreReader reader,
                          store::TrajectoryStoreReader::Open(path));
    std::unique_ptr<StreamingWindowSource> source(
        new StreamingWindowSource(std::move(reader)));
    for (size_t i = 0; i < source->size(); ++i) {
      WCOP_ASSIGN_OR_RETURN(Trajectory t, source->reader_.Read(i));
      const int64_t key = t.parent_id() == Trajectory::kNoParent
                              ? t.id()
                              : t.parent_id();
      source->keys_.push_back(key);
      source->by_key_.emplace(key, i);  // keeps the first entry per key
    }
    return source;
  }

  size_t size() const override { return reader_.size(); }
  const store::StoreEntry& entry(size_t i) const override {
    return reader_.index()[i];
  }
  Result<Trajectory> Read(size_t i) const override { return reader_.Read(i); }
  int64_t KeyOf(size_t i) const override { return keys_[i]; }

 private:
  explicit StreamingWindowSource(store::TrajectoryStoreReader reader)
      : reader_(std::move(reader)) {}

  store::TrajectoryStoreReader reader_;
  std::vector<int64_t> keys_;
};

// The windows mode before it went one-pass: the linkage attack over every
// boundary first, then a second pass that re-opens each window for
// re-identification (victims drawn again per window, presence by
// FindByKey, via the victim-major oracle) and effective-k, every
// candidate read going to disk; distortion from the manifests.
Result<AuditReport> TwoPassStreamingAudit(const AuditOptions& options) {
  AuditReport report;
  report.adversary = options.adversary;
  WCOP_ASSIGN_OR_RETURN(std::vector<std::string> windows,
                        ListWindowStores(options.windows_dir));
  WCOP_ASSIGN_OR_RETURN(StoreCandidateSource original,
                        StoreCandidateSource::Open(options.original_store));

  LinkageOptions linkage_options = options.linkage;
  linkage_options.threads = options.threads;
  LinkageAccumulator linkage;
  for (size_t w = 1; w < windows.size(); ++w) {
    WCOP_ASSIGN_OR_RETURN(std::unique_ptr<StreamingWindowSource> from,
                          StreamingWindowSource::Open(windows[w - 1]));
    WCOP_ASSIGN_OR_RETURN(std::unique_ptr<StreamingWindowSource> to,
                          StreamingWindowSource::Open(windows[w]));
    WCOP_RETURN_IF_ERROR(linkage.AddBoundary(*from, *to, linkage_options));
  }
  report.linkage = linkage.Finish(windows.size());
  report.has_linkage = true;

  ReidentOptions reident;
  reident.adversary = options.adversary;
  reident.num_victims = options.victims;
  EffectiveKOptions effective;
  effective.adversary = options.adversary;
  effective.samples = options.effective_k_samples;
  effective.num_users = options.victims;
  ReidentResult& total = report.reident;
  double top1 = 0.0, top5 = 0.0, rank = 0.0, reciprocal = 0.0;
  EffectiveKSamples pooled;
  for (const std::string& path : windows) {
    WCOP_ASSIGN_OR_RETURN(std::unique_ptr<StreamingWindowSource> published,
                          StreamingWindowSource::Open(path));
    if (published->size() == 0) {
      continue;
    }
    const ReidentResult r = OracleReident(original, *published, reident);
    const double n = static_cast<double>(r.victims_attacked);
    total.victims_attacked += r.victims_attacked;
    total.victims_suppressed += r.victims_suppressed;
    total.candidates_total += r.candidates_total;
    total.candidates_scored += r.candidates_scored;
    total.candidates_pruned += r.candidates_pruned;
    top1 += r.top1_success * n;
    top5 += r.top5_success * n;
    rank += r.mean_true_rank * n;
    reciprocal += r.mean_reciprocal_rank * n;
    report.has_reident = true;
    const EffectiveKSamples s = OracleEffectiveKSamples(*published, effective);
    pooled.samples.insert(pooled.samples.end(), s.samples.begin(),
                          s.samples.end());
  }
  if (total.victims_attacked > 0) {
    const double n = static_cast<double>(total.victims_attacked);
    total.top1_success = top1 / n;
    total.top5_success = top5 / n;
    total.mean_true_rank = rank / n;
    total.mean_reciprocal_rank = reciprocal / n;
  }
  report.effective_k = SummarizeEffectiveK(pooled, nullptr);
  report.has_effective_k = true;

  DistortionSummary& d = report.distortion;
  for (size_t w = 0; w < windows.size(); ++w) {
    char name[64];
    std::snprintf(name, sizeof(name), "/window_%05zu.mfr", w);
    WCOP_ASSIGN_OR_RETURN(
        pipeline::WindowManifest m,
        pipeline::ReadWindowManifest(options.windows_dir + name));
    ++d.windows;
    d.input_fragments += m.input_fragments;
    d.published_fragments += m.published_fragments;
    d.suppressed_fragments += m.suppressed_delta;
    d.clusters += m.clusters;
    d.ttd += m.ttd;
    d.degraded_windows += m.degraded ? 1 : 0;
    d.skipped_windows += m.skipped ? 1 : 0;
  }
  report.has_distortion = d.windows > 0;
  return report;
}

// A continuous publication with every shape the windows mode meets, in
// 100 s windows: three staggered groups of co-travellers whose
// single-point boundary fragments are carried into the next window
// (windows 0-4), empty windows, a lone traveller no one can hide, whose
// window is suppressed whole (window 8), and a late group (windows 12-15).
// Returns the output directory; the source store is `<dir>.source.wst`.
std::string PublishWindowedCorpus(const std::string& name) {
  Dataset source = testing_util::StaggeredGroupedDataset();
  Trajectory lone = MakeLineWithReq(9, 50000.0, 0.0, 5.0, 0.0, 10, /*k=*/2,
                                    /*delta=*/300.0, /*dt=*/10.0,
                                    /*t0=*/805.0);
  lone.set_object_id(9);
  source.Add(std::move(lone));
  for (int64_t i = 0; i < 3; ++i) {
    Trajectory late = MakeLineWithReq(
        10 + i, 8000.0, 30.0 * static_cast<double>(i), 5.0, 2.0, 30,
        /*k=*/2, /*delta=*/300.0, /*dt=*/10.0, /*t0=*/1210.0);
    late.set_object_id(10 + i);
    source.Add(std::move(late));
  }
  const std::string dir = TempPath(name);
  const std::string source_path = dir + ".source.wst";
  EXPECT_TRUE(store::WriteDatasetStore(source, source_path).ok());
  pipeline::ContinuousPipelineOptions options;
  options.source_store = source_path;
  options.output_dir = dir;
  options.window_seconds = 100.0;
  options.wcop.seed = 7;
  Result<pipeline::ContinuousPipelineResult> published =
      pipeline::RunContinuousPipeline(options);
  EXPECT_TRUE(published.ok()) << published.status();
  return dir;
}

TEST(OnePassAudit, MatchesTwoPassStreamingOracleByteForByte) {
  const std::string dir = PublishWindowedCorpus("one_pass_equivalence");
  // The corpus must hold what the test claims, or equality is vacuous.
  Result<std::vector<std::string>> windows = ListWindowStores(dir);
  ASSERT_TRUE(windows.ok()) << windows.status();
  ASSERT_EQ(windows->size(), 16u);
  bool carried = false;
  bool suppressed_whole = false;
  for (size_t w = 0; w < windows->size(); ++w) {
    char name[64];
    std::snprintf(name, sizeof(name), "/window_%05zu.mfr", w);
    Result<pipeline::WindowManifest> m =
        pipeline::ReadWindowManifest(dir + name);
    ASSERT_TRUE(m.ok()) << m.status();
    carried = carried || m->carried_in > 0;
    suppressed_whole = suppressed_whole || (m->input_fragments > 0 &&
                                            m->published_fragments == 0);
  }
  ASSERT_TRUE(carried);
  ASSERT_TRUE(suppressed_whole);

  for (size_t victims : {size_t{0}, size_t{5}}) {
    SCOPED_TRACE("victims " + std::to_string(victims));
    AuditOptions options;
    options.windows_dir = dir;
    options.original_store = dir + ".source.wst";
    options.victims = victims;
    Result<AuditReport> want = TwoPassStreamingAudit(options);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(want->has_reident);
    EXPECT_GT(want->linkage.joins_attempted, 0u);
    EXPECT_GT(want->reident.victims_suppressed, 0u);
    const std::string want_json = AuditReportToJson(*want);
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      options.threads = threads;
      Result<AuditReport> got = RunAudit(options);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(want_json, AuditReportToJson(*got));
    }
  }
}

// Read-once gate: the audit reads every window block once, at open, plus
// one original block per present victim and window (its truth, for the
// observations); every other read is served from the resident windows.
TEST(OnePassAudit, ReadsEachWindowBlockOnce) {
  const std::string dir = PublishWindowedCorpus("one_pass_read_once");
  Result<std::vector<std::string>> windows = ListWindowStores(dir);
  ASSERT_TRUE(windows.ok()) << windows.status();
  size_t fragments = 0;
  for (const std::string& path : *windows) {
    Result<store::TrajectoryStoreReader> reader =
        store::TrajectoryStoreReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    fragments += reader->size();
  }

  FailpointRegistry& registry = FailpointRegistry::Instance();
  registry.EnableHitCounting(true);
  auto reads = [&registry] { return registry.HitCount("store.read_block"); };
  AuditOptions options;
  options.windows_dir = dir;
  options.original_store = dir + ".source.wst";
  uint64_t oracle_reads = reads();
  ASSERT_TRUE(TwoPassStreamingAudit(options).ok());
  oracle_reads = reads() - oracle_reads;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    options.threads = threads;
    const uint64_t before = reads();
    Result<AuditReport> report = RunAudit(options);
    const uint64_t audit_reads = reads() - before;
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_GT(report->reident.victims_attacked, 0u);
    EXPECT_EQ(audit_reads, fragments + report->reident.victims_attacked);
    EXPECT_LT(audit_reads, oracle_reads);
  }
  registry.EnableHitCounting(false);
}

// ---------------------------------------------------------------------------
// RunContext: budgets and deadlines trip instead of running forever.
// ---------------------------------------------------------------------------

TEST(AttackRunContext, DistanceBudgetTrips) {
  const Dataset d = SmallSynthetic(24, 30, 3, 200.0, 7);
  const DatasetCandidateSource source(d);
  RunContext context;
  ResourceBudget budget;
  budget.max_distance_computations = 5;
  context.set_budget(budget);
  ReidentOptions options;
  options.run_context = &context;
  Result<ReidentResult> result = RunReidentAttack(source, source, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(AttackRunContext, CancellationStopsTheAudit) {
  const Dataset d = SmallSynthetic(24, 30, 3, 200.0, 7);
  const DatasetCandidateSource source(d);
  RunContext context;
  CancellationToken token;
  context.set_cancellation_token(token);
  token.RequestCancellation();
  ReidentOptions options;
  options.run_context = &context;
  Result<ReidentResult> result = RunReidentAttack(source, source, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Legacy anon/attack.h entry points route through the new engine: they now
// honour RunContext and emit attack.* telemetry.
// ---------------------------------------------------------------------------

TEST(LegacyWiring, SimulateLinkageAttackEmitsTelemetryAndHonoursBudget) {
  const Dataset d = SmallSynthetic(24, 30, 3, 200.0, 13);
  telemetry::Telemetry telemetry;
  AttackOptions options;
  options.telemetry = &telemetry;
  Result<AttackResult> result = SimulateLinkageAttack(d, d, options);
  ASSERT_TRUE(result.ok()) << result.status();
  const telemetry::MetricsSnapshot snapshot =
      telemetry.metrics().Snapshot();
  auto counter = [&](const std::string& name) -> uint64_t {
    for (const auto& [key, value] : snapshot.counters) {
      if (key == name) {
        return value;
      }
    }
    return 0;
  };
  EXPECT_GT(counter("attack.victims"), 0u);
  EXPECT_GT(counter("attack.candidates") +
                counter("attack.candidates.pruned"),
            0u);

  RunContext context;
  ResourceBudget budget;
  budget.max_distance_computations = 2;
  context.set_budget(budget);
  AttackOptions limited;
  limited.run_context = &context;
  Result<AttackResult> tripped = SimulateLinkageAttack(d, d, limited);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Audit plumbing: option validation and JSON shape.
// ---------------------------------------------------------------------------

TEST(Audit, RejectsAmbiguousOrMissingTargets) {
  AuditOptions none;
  EXPECT_EQ(RunAudit(none).status().code(), StatusCode::kInvalidArgument);
  AuditOptions both;
  both.published_store = "a.wst";
  both.windows_dir = "dir";
  EXPECT_EQ(RunAudit(both).status().code(), StatusCode::kInvalidArgument);
}

TEST(Audit, JsonMarksAbsentSectionsAsNull) {
  const Dataset published = WeakenedPublication();
  const std::string path = TempPath("attack_json_null.wst");
  ASSERT_TRUE(store::WriteDatasetStore(published, path).ok());
  AuditOptions options;
  options.published_store = path;  // no original: reident cannot run
  Result<AuditReport> report = RunAudit(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->has_reident);
  EXPECT_TRUE(report->has_effective_k);
  const std::string json = AuditReportToJson(*report);
  EXPECT_NE(json.find("\"reident\":null"), std::string::npos);
  EXPECT_NE(json.find("\"linkage\":null"), std::string::npos);
  EXPECT_NE(json.find("\"effective_k\":{"), std::string::npos);
}

}  // namespace
}  // namespace attack
}  // namespace wcop
