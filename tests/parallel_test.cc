#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "anon/distance_cache.h"
#include "anon/types.h"
#include "common/rng.h"
#include "common/run_context.h"
#include "common/telemetry.h"
#include "greedy_oracle.h"
#include "test_util.h"

namespace wcop {
namespace {

using parallel::ParallelFor;
using parallel::ParallelMap;
using parallel::ParallelOptions;
using parallel::ResolveThreads;
using parallel::ThreadPool;
using testing_util::OracleDistance;
using testing_util::SmallSynthetic;

ParallelOptions WithThreads(int threads, size_t grain = 0) {
  ParallelOptions options;
  options.threads = threads;
  options.grain = grain;
  return options;
}

// ---------------------------------------------------------------------------
// Thread-count resolution.
// ---------------------------------------------------------------------------

TEST(ParallelTest, ResolveThreadsPassesPositiveThrough) {
  EXPECT_EQ(ResolveThreads(1), 1);
  EXPECT_EQ(ResolveThreads(7), 7);
}

TEST(ParallelTest, ResolveThreadsDefaultsArePositive) {
  EXPECT_GE(ResolveThreads(0), 1);
  EXPECT_GE(ResolveThreads(-3), 1);
  EXPECT_GE(parallel::DefaultThreads(), 1);
  EXPECT_GE(parallel::HardwareThreads(), 1);
}

// ---------------------------------------------------------------------------
// ParallelFor basics.
// ---------------------------------------------------------------------------

TEST(ParallelTest, EmptyRangeIsNoop) {
  bool touched = false;
  Status s = ParallelFor(0, [&](size_t) { touched = true; }, WithThreads(4));
  EXPECT_TRUE(s.ok());
  EXPECT_FALSE(touched);
}

TEST(ParallelTest, EveryIndexRunsExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    for (size_t grain : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
      const size_t n = 257;
      std::vector<std::atomic<int>> hits(n);
      Status s = ParallelFor(
          n, [&](size_t i) { hits[i].fetch_add(1); },
          WithThreads(threads, grain));
      ASSERT_TRUE(s.ok()) << s;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << " threads=" << threads << " grain=" << grain;
      }
    }
  }
}

TEST(ParallelTest, SerialAndParallelResultsMatch) {
  const size_t n = 500;
  auto f = [](size_t i) {
    return static_cast<double>(i) * 1.5 + static_cast<double>(i % 7);
  };
  std::vector<double> serial(n), parallel_out(n);
  ASSERT_TRUE(
      ParallelFor(n, [&](size_t i) { serial[i] = f(i); }, WithThreads(1))
          .ok());
  ASSERT_TRUE(ParallelFor(
                  n, [&](size_t i) { parallel_out[i] = f(i); },
                  WithThreads(8, 3))
                  .ok());
  EXPECT_EQ(serial, parallel_out);
}

TEST(ParallelTest, ParallelMapPreservesIndexOrder) {
  for (int threads : {1, 4}) {
    Result<std::vector<size_t>> out = ParallelMap<size_t>(
        100, [](size_t i) { return i * i; }, WithThreads(threads));
    ASSERT_TRUE(out.ok()) << out.status();
    for (size_t i = 0; i < out->size(); ++i) {
      EXPECT_EQ((*out)[i], i * i);
    }
  }
}

TEST(ParallelTest, TasksCounterCoversAllChunks) {
  telemetry::Telemetry tel;
  ParallelOptions options = WithThreads(4, 10);
  options.telemetry = &tel;
  ASSERT_TRUE(ParallelFor(100, [](size_t) {}, options).ok());
  const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("parallel.tasks"), 10u);  // 100 items / 10
  EXPECT_EQ(snap.CounterValue("parallel.batches"), 1u);
}

// ---------------------------------------------------------------------------
// Exception propagation.
// ---------------------------------------------------------------------------

TEST(ParallelTest, ExceptionPropagatesSerial) {
  EXPECT_THROW(
      {
        Status s = ParallelFor(
            10,
            [](size_t i) {
              if (i == 3) {
                throw std::runtime_error("boom");
              }
            },
            WithThreads(1));
        (void)s;
      },
      std::runtime_error);
}

TEST(ParallelTest, ExceptionPropagatesParallel) {
  std::atomic<int> ran{0};
  EXPECT_THROW(
      {
        Status s = ParallelFor(
            1000,
            [&](size_t i) {
              ran.fetch_add(1);
              if (i == 17) {
                throw std::runtime_error("boom");
              }
            },
            WithThreads(4, 1));
        (void)s;
      },
      std::runtime_error);
  // The throwing chunk stops further claiming; in-flight chunks may finish.
  EXPECT_GE(ran.load(), 1);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation at chunk boundaries.
// ---------------------------------------------------------------------------

TEST(ParallelTest, CancellationStopsSerialLoopAtChunkBoundary) {
  CancellationToken token;
  RunContext context;
  context.set_cancellation_token(token);
  size_t executed = 0;
  ParallelOptions options = WithThreads(1, 5);
  options.context = &context;
  Status s = ParallelFor(
      1000,
      [&](size_t) {
        ++executed;
        token.RequestCancellation();  // trips before the *next* chunk
      },
      options);
  EXPECT_EQ(s.code(), StatusCode::kCancelled) << s;
  EXPECT_EQ(executed, 5u);  // exactly the first chunk
}

TEST(ParallelTest, CancellationStopsParallelLoop) {
  CancellationToken token;
  RunContext context;
  context.set_cancellation_token(token);
  std::atomic<size_t> executed{0};
  ParallelOptions options = WithThreads(4, 1);
  options.context = &context;
  Status s = ParallelFor(
      100000,
      [&](size_t) {
        executed.fetch_add(1);
        token.RequestCancellation();
      },
      options);
  EXPECT_EQ(s.code(), StatusCode::kCancelled) << s;
  EXPECT_LT(executed.load(), 100000u);  // the trip stopped chunk claiming
}

TEST(ParallelTest, PreCancelledContextRunsNothing) {
  CancellationToken token;
  token.RequestCancellation();
  RunContext context;
  context.set_cancellation_token(token);
  std::atomic<size_t> executed{0};
  for (int threads : {1, 4}) {
    ParallelOptions options = WithThreads(threads, 1);
    options.context = &context;
    Status s =
        ParallelFor(100, [&](size_t) { executed.fetch_add(1); }, options);
    EXPECT_EQ(s.code(), StatusCode::kCancelled) << s;
  }
  EXPECT_EQ(executed.load(), 0u);
}

// ---------------------------------------------------------------------------
// Pool lifecycle.
// ---------------------------------------------------------------------------

TEST(ParallelTest, PoolStartStopIsIdempotentAndRestartable) {
  ThreadPool& pool = ThreadPool::Global();
  pool.Shutdown();  // from any prior state
  pool.Shutdown();  // idempotent on a stopped pool
  EXPECT_EQ(pool.worker_count(), 0);

  pool.EnsureWorkers(3);
  EXPECT_EQ(pool.worker_count(), 3);
  pool.EnsureWorkers(2);  // grow-only: shrinking requests are no-ops
  EXPECT_EQ(pool.worker_count(), 3);
  pool.EnsureWorkers(3);
  EXPECT_EQ(pool.worker_count(), 3);

  pool.Shutdown();
  EXPECT_EQ(pool.worker_count(), 0);

  // Restart after shutdown: ParallelFor must work again.
  std::atomic<size_t> count{0};
  Status s = ParallelFor(
      100, [&](size_t) { count.fetch_add(1); }, WithThreads(4, 1));
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(count.load(), 100u);
  EXPECT_GE(pool.worker_count(), 1);
}

TEST(ParallelTest, SerialPathNeverStartsThePool) {
  ThreadPool& pool = ThreadPool::Global();
  pool.Shutdown();
  ASSERT_EQ(pool.worker_count(), 0);
  size_t executed = 0;
  ASSERT_TRUE(
      ParallelFor(50, [&](size_t) { ++executed; }, WithThreads(1)).ok());
  EXPECT_EQ(executed, 50u);
  EXPECT_EQ(pool.worker_count(), 0);
}

// ---------------------------------------------------------------------------
// PairDistanceMemo: the lookup's cutoff contract, and a fan-out whose values
// and counters do not depend on the thread count (run under TSan in CI with
// WCOP_THREADS=4).
// ---------------------------------------------------------------------------

DistanceConfig EdrConfig(EdrTolerance tolerance, double scale = 1000.0) {
  DistanceConfig config;
  config.tolerance = tolerance;
  config.edr_scale = scale;
  return config;
}

/// A trajectory of 0-70 points (empty and very short trips included, and
/// across one 64-bit kernel word) with sorted times, near (x0, y0).
Trajectory RandomTrip(Rng* rng, int64_t id, double x0, double y0) {
  const size_t n = rng->UniformIndex(5) == 0 ? rng->UniformIndex(4)
                                             : rng->UniformIndex(71);
  std::vector<Point> pts;
  double t = rng->UniformReal(0, 600);
  for (size_t i = 0; i < n; ++i) {
    pts.emplace_back(x0 + rng->UniformReal(-40, 40),
                     y0 + rng->UniformReal(-40, 40), t);
    t += rng->UniformReal(1, 30);
  }
  return Trajectory(id, std::move(pts));
}

uint64_t LookupEvents(const telemetry::MetricsSnapshot& snap) {
  return snap.CounterValue("distance.calls.edr") +
         snap.CounterValue("distance.cache_hits") +
         snap.CounterValue("distance.early_abandoned");
}

TEST(PairDistanceMemoTest, ExactReadMatchesDirectComputation) {
  const Dataset d = SmallSynthetic(16, 24);
  const DistanceConfig config = EdrConfig(EdrTolerance{100.0, 100.0, 600.0});
  PairDistanceMemo memo(d, config, nullptr, nullptr, 200);
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t j = 0; j < d.size(); ++j) {
      const double expected =
          i == j ? 0.0 : ClusterDistance(d[i], d[j], config);
      const PairDistanceMemo::Distance got = memo.Lookup(
          i, j, std::numeric_limits<double>::infinity());
      EXPECT_TRUE(got.exact) << i << "," << j;
      EXPECT_EQ(got.value, expected) << i << "," << j;
      EXPECT_EQ(got.value, OracleDistance(d[i], d[j], config));
    }
  }
}

TEST(PairDistanceMemoTest, LookupKeepsItsCutoffContract) {
  // Adversarial pairs: empty and short trips, clones, offsets that separate
  // the boxes or leave them overlapping without a matchable pair, and
  // tolerances with dt zero or infinite. Each pair is looked up at cutoffs
  // -inf, +inf and its exact distance and one ulp either side, from a fresh
  // memo: a value <= cutoff is the scalar DP's distance; a value above it
  // bounds the exact distance from below (and equals it when flagged
  // exact). Every lookup counts one event, except a probe at -inf that
  // returns only a bound: it decides nothing and counts nothing.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(4242);
  for (int round = 0; round < 600; ++round) {
    const Trajectory a = RandomTrip(&rng, 1, 0, 0);
    Trajectory b = RandomTrip(&rng, 2, 0, 0);
    switch (rng.UniformIndex(4)) {
      case 0:
        b = Trajectory(2, a.points());  // a clone
        break;
      case 1:
        b = RandomTrip(&rng, 2, rng.UniformReal(0, 200), 0);
        break;
      default:
        break;
    }
    EdrTolerance tol{rng.UniformReal(0, 60), rng.UniformReal(0, 60),
                     rng.UniformReal(0, 120)};
    if (rng.UniformIndex(4) == 0) {
      tol.dt = rng.UniformIndex(2) == 0 ? 0.0 : kInf;
    }
    const DistanceConfig config = EdrConfig(tol, rng.UniformReal(1, 5000));
    const Dataset d(std::vector<Trajectory>{a, b});
    const double exact = OracleDistance(a, b, config);
    for (const double cutoff :
         {-kInf, kInf, exact, std::nextafter(exact, -kInf),
          std::nextafter(exact, kInf)}) {
      SCOPED_TRACE("round " + std::to_string(round) +
                   " cutoff=" + std::to_string(cutoff));
      telemetry::Telemetry tel;
      RunContext context;
      PairDistanceMemo memo(d, config, &context, &tel, 1);
      const PairDistanceMemo::Distance got = memo.Lookup(0, 1, cutoff);
      if (got.value <= cutoff) {
        ASSERT_EQ(got.value, exact);
        ASSERT_TRUE(got.exact);
      } else {
        ASSERT_LE(got.value, exact);
        if (got.exact) {
          ASSERT_EQ(got.value, exact);
        }
      }
      if (cutoff == kInf) {
        ASSERT_TRUE(got.exact);
      }
      const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
      ASSERT_EQ(LookupEvents(snap), cutoff == -kInf && !got.exact ? 0u : 1u);
      ASSERT_EQ(context.distance_computations(),
                snap.CounterValue("distance.calls.edr"));
      if (cutoff == -kInf) {
        ASSERT_EQ(snap.CounterValue("distance.calls.edr"), 0u);
      }
    }
  }
}

TEST(PairDistanceMemoTest, BatchMatchesSerialLookupsAtAnyThreadCount) {
  // The synchronized-Euclidean scan's fan-out over pairs the memo partly
  // holds, with repeats, reversed pairs and i == j slots: every thread
  // count gives the serial lookups' values, counters and charges. The trips
  // are moved to start together, so most pairs overlap in time.
  Dataset d = SmallSynthetic(24, 20);
  for (Trajectory& t : d.mutable_trajectories()) {
    const double t0 = t.StartTime();
    for (Point& p : t.mutable_points()) {
      p.t -= t0;
    }
  }
  DistanceConfig config;
  config.kind = DistanceConfig::Kind::kSynchronizedEuclidean;
  const size_t n = d.size();
  std::vector<std::pair<size_t, size_t>> warm;
  std::vector<std::pair<size_t, size_t>> batch;
  Rng rng(77);
  for (int t = 0; t < 40; ++t) {
    warm.emplace_back(rng.UniformIndex(n), rng.UniformIndex(n));
  }
  for (int t = 0; t < 600; ++t) {
    batch.emplace_back(rng.UniformIndex(n), rng.UniformIndex(n));
  }
  const auto run = [&](int threads, std::vector<double>* values,
                       telemetry::MetricsSnapshot* snap, uint64_t* charged) {
    telemetry::Telemetry tel;
    RunContext context;
    PairDistanceMemo memo(d, config, &context, &tel, n * n);
    for (const auto& [i, j] : warm) {
      memo.Lookup(i, j, 0.0);
    }
    if (threads == 0) {  // the serial reference
      values->clear();
      for (const auto& [i, j] : batch) {
        values->push_back(
            memo.Lookup(i, j, std::numeric_limits<double>::infinity())
                .value);
      }
    } else {
      ASSERT_TRUE(memo.LookupBatch(batch, WithThreads(threads, 1), values)
                      .ok());
    }
    *snap = tel.metrics().Snapshot();
    *charged = context.distance_computations();
  };
  std::vector<double> serial;
  telemetry::MetricsSnapshot serial_snap;
  uint64_t serial_charged = 0;
  run(0, &serial, &serial_snap, &serial_charged);
  size_t finite = 0;
  for (size_t t = 0; t < batch.size(); ++t) {
    const auto [i, j] = batch[t];
    ASSERT_EQ(serial[t], i == j ? 0.0 : OracleDistance(d[i], d[j], config))
        << t;
    finite += std::isfinite(serial[t]) ? 1 : 0;
  }
  EXPECT_GT(finite, batch.size() / 2);
  EXPECT_GT(serial_snap.CounterValue("distance.calls.sync_euclidean"), 0u);
  EXPECT_GT(serial_snap.CounterValue("distance.cache_hits"), 0u);
  for (const int threads : {1, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<double> values;
    telemetry::MetricsSnapshot snap;
    uint64_t charged = 0;
    run(threads, &values, &snap, &charged);
    EXPECT_EQ(values, serial);
    EXPECT_EQ(charged, serial_charged);
    for (const char* name :
         {"distance.calls.sync_euclidean", "distance.cache_hits"}) {
      EXPECT_EQ(snap.CounterValue(name), serial_snap.CounterValue(name))
          << name;
    }
  }
}

TEST(PairDistanceMemoTest, OnlyDpResultsAreMemoized) {
  // A near pair of very different lengths: a tight cutoff is answered by
  // a bound and leaves nothing behind; the exact read runs the DP and
  // charges once; later lookups at any cutoff are memo hits.
  Dataset d(std::vector<Trajectory>{
      testing_util::MakeLine(1, 0.0, 0.0, 10.0, 0.0, 4),
      testing_util::MakeLine(2, 0.0, 50.0, 10.0, 0.0, 40),
  });
  const DistanceConfig config = EdrConfig(EdrTolerance{100.0, 100.0, 600.0});
  telemetry::Telemetry tel;
  RunContext context;
  PairDistanceMemo memo(d, config, &context, &tel, 4);

  const PairDistanceMemo::Distance bound = memo.Lookup(0, 1, 1e-6);
  EXPECT_FALSE(bound.exact);
  EXPECT_GT(bound.value, 1e-6);
  EXPECT_EQ(context.distance_computations(), 0u);
  EXPECT_FALSE(memo.Lookup(0, 1, 1e-6).exact);  // recomputed, not stored

  const PairDistanceMemo::Distance exact =
      memo.Lookup(1, 0, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(exact.exact);
  EXPECT_EQ(exact.value, ClusterDistance(d[0], d[1], config));
  EXPECT_GE(exact.value, bound.value);
  EXPECT_EQ(context.distance_computations(), 1u);

  const PairDistanceMemo::Distance hit = memo.Lookup(0, 1, 1e-6);
  EXPECT_TRUE(hit.exact);
  EXPECT_EQ(hit.value, exact.value);
  EXPECT_EQ(context.distance_computations(), 1u);
  const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("distance.calls.edr"), 1u);
  EXPECT_EQ(snap.CounterValue("distance.early_abandoned"), 2u);
  EXPECT_EQ(snap.CounterValue("distance.cache_hits"), 1u);
}

/// Two trips on one line, of 10 and 20 fixes: their boxes overlap, so the
/// separation rung does not fire, and the length bound proves 10 of 20
/// edits, half the scale (which here is also the exact distance).
Dataset OneLineTrips() {
  return Dataset(std::vector<Trajectory>{
      testing_util::MakeLine(1, 0.0, 0.0, 10.0, 0.0, 10, 10.0),
      testing_util::MakeLine(2, 0.0, 0.0, 10.0, 0.0, 20, 10.0)});
}

TEST(PairDistanceMemoTest, TheLengthBoundAnswers) {
  // A cutoff below half the scale is answered without the DP, by the
  // length rung, with the bound.
  const Dataset d = OneLineTrips();
  const DistanceConfig config = EdrConfig(EdrTolerance{5.0, 5.0, 5.0});
  ASSERT_EQ(OracleDistance(d[0], d[1], config), 0.5 * config.edr_scale);
  telemetry::Telemetry tel;
  PairDistanceMemo memo(d, config, nullptr, &tel, 4);
  const PairDistanceMemo::Distance got =
      memo.Lookup(0, 1, 0.3 * config.edr_scale);
  EXPECT_FALSE(got.exact);
  EXPECT_EQ(got.value, 0.5 * config.edr_scale);
  const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("distance.calls.edr"), 0u);
  EXPECT_EQ(snap.CounterValue("distance.early_abandoned"), 1u);
  EXPECT_EQ(snap.CounterValue("distance.lb.length_pruned"), 1u);
}

TEST(PairDistanceMemoTest, AProbeCountsOnlyWhatItDecides) {
  // The pair of TheLengthBoundAnswers: the probe at -inf returns the
  // length bound and counts nothing; the lookup that drops the pair at a
  // cutoff below the bound counts the abandon; the exact read runs the DP.
  const Dataset d = OneLineTrips();
  const DistanceConfig config = EdrConfig(EdrTolerance{5.0, 5.0, 5.0});
  constexpr double kInf = std::numeric_limits<double>::infinity();
  telemetry::Telemetry tel;
  RunContext context;
  PairDistanceMemo memo(d, config, &context, &tel, 4);
  const auto events = [&] {
    const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
    return std::vector<uint64_t>{
        snap.CounterValue("distance.calls.edr"),
        snap.CounterValue("distance.cache_hits"),
        snap.CounterValue("distance.early_abandoned"),
        snap.CounterValue("distance.lb.length_pruned")};
  };

  const PairDistanceMemo::Distance probe = memo.Lookup(0, 1, -kInf);
  EXPECT_FALSE(probe.exact);
  EXPECT_EQ(probe.value, 0.5 * config.edr_scale);
  EXPECT_EQ(events(), (std::vector<uint64_t>{0, 0, 0, 0}));

  EXPECT_EQ(memo.Lookup(0, 1, 0.3 * config.edr_scale).value, probe.value);
  EXPECT_EQ(events(), (std::vector<uint64_t>{0, 0, 1, 1}));

  EXPECT_TRUE(memo.Lookup(0, 1, kInf).exact);
  EXPECT_TRUE(memo.Lookup(0, 1, -kInf).exact);  // now a memo hit
  EXPECT_EQ(events(), (std::vector<uint64_t>{1, 1, 1, 1}));
  EXPECT_EQ(context.distance_computations(), 1u);
}

TEST(PairDistanceMemoTest, CascadeServesAnalyticExactsWithoutCharging) {
  // The y-gap (500 > dy + the boxes' extent) separates the dilated MBRs,
  // so the separation rung knows the distance is edr_scale: a tight cutoff,
  // the exact read and the probe at -inf all get it without the DP, count
  // it as an abandon, and do not store it.
  Dataset d(std::vector<Trajectory>{
      testing_util::MakeLine(1, 0.0, 0.0, 10.0, 0.0, 4),
      testing_util::MakeLine(2, 0.0, 500.0, 10.0, 0.0, 40),
  });
  const DistanceConfig config = EdrConfig(EdrTolerance{100.0, 100.0, 600.0});
  telemetry::Telemetry tel;
  RunContext context;
  PairDistanceMemo memo(d, config, &context, &tel, 4);

  const PairDistanceMemo::Distance cut = memo.Lookup(0, 1, 1e-6);
  const PairDistanceMemo::Distance exact =
      memo.Lookup(0, 1, std::numeric_limits<double>::infinity());
  const PairDistanceMemo::Distance probe =
      memo.Lookup(0, 1, -std::numeric_limits<double>::infinity());
  for (const PairDistanceMemo::Distance& got : {cut, exact, probe}) {
    EXPECT_TRUE(got.exact);
    EXPECT_EQ(got.value, ClusterDistance(d[0], d[1], config));
    EXPECT_EQ(got.value, config.edr_scale);  // separation: max-length cost
  }
  EXPECT_EQ(context.distance_computations(), 0u);
  const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("distance.calls.edr"), 0u);
  EXPECT_EQ(snap.CounterValue("distance.cache_hits"), 0u);
  EXPECT_EQ(snap.CounterValue("distance.early_abandoned"), 3u);
  EXPECT_EQ(snap.CounterValue("distance.lb.separation_pruned"), 3u);
}

TEST(PairDistanceMemoTest, SynchronizedEuclideanIsAlwaysExact) {
  const Dataset d = SmallSynthetic(6, 12);
  DistanceConfig config;
  config.kind = DistanceConfig::Kind::kSynchronizedEuclidean;
  telemetry::Telemetry tel;
  PairDistanceMemo memo(d, config, nullptr, &tel, 16);
  EXPECT_TRUE(memo.profiles().empty());
  for (const double cutoff : {-1.0, 0.0, 1e300}) {
    const PairDistanceMemo::Distance got = memo.Lookup(2, 4, cutoff);
    EXPECT_TRUE(got.exact);
    EXPECT_EQ(got.value, ClusterDistance(d[2], d[4], config));
  }
  const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("distance.calls.sync_euclidean"), 1u);
  EXPECT_EQ(snap.CounterValue("distance.cache_hits"), 2u);
}

}  // namespace
}  // namespace wcop
