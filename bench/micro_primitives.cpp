// Micro-benchmarks of the computational primitives behind the WCOP suite:
// EDR distance / op reconstruction, CRC-32, synchronized Euclidean
// distance, DBSCAN, grid-index range queries, TRACLUS MDL partitioning,
// greedy clustering, the translation phase and CSV ingest. google-benchmark
// binary — runs standalone.
//
// `--json-out=FILE` (the shared bench_util flag) additionally captures every
// run as a machine-readable record; all other flags pass through to
// google-benchmark (--benchmark_filter=..., etc).

#include <benchmark/benchmark.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "anon/greedy_clustering.h"
#include "anon/translation.h"
#include "anon/wcop_ct.h"
#include "bench_util.h"
#include "cluster/dbscan.h"
#include "common/snapshot.h"
#include "data/store_convert.h"
#include "distance/edr.h"
#include "distance/edr_bounds.h"
#include "distance/edr_kernel.h"
#include "distance/euclidean.h"
#include "index/grid_index.h"
#include "mod/trajectory_store.h"
#include "segment/traclus.h"
#include "traj/io.h"

using namespace wcop;
using namespace wcop::bench;

namespace {

Dataset SmallDataset(size_t n, size_t points) {
  BenchScale scale;
  scale.trajectories = n;
  scale.points = points;
  Dataset d = MakeBenchDataset(scale);
  AssignPaperRequirements(&d, 5, 250.0, 11);
  return d;
}

// A trip and a copy of it 60 s later with every fix moved up to 200 m: a
// pair whose EDR time windows hold many columns and most of them match, as
// a cluster member and its pivot in translation. (The two trips of
// SmallDataset(2, N) are days apart for N >= 32, so every window of that
// pair is empty.)
std::pair<Trajectory, Trajectory> NearbyPair(size_t points) {
  const Dataset d = SmallDataset(1, points);
  Rng rng(21);
  std::vector<Point> moved;
  for (const Point& p : d[0].points()) {
    moved.emplace_back(p.x + rng.UniformReal(-200, 200),
                       p.y + rng.UniformReal(-200, 200), p.t + 60.0);
  }
  return {d[0], Trajectory(2, std::move(moved))};
}

void BM_EdrDistance(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const auto [a, b] = NearbyPair(points);
  const EdrTolerance tol = EdrTolerance::FromDeltaMax(250.0, 6.36);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdrDistance(a, b, tol));
  }
  state.SetComplexityN(static_cast<int64_t>(points));
}
BENCHMARK(BM_EdrDistance)->Range(32, 512)->Complexity(benchmark::oNSquared);

void BM_EdrOpSequence(benchmark::State& state) {
  const auto [traj, pivot] = NearbyPair(static_cast<size_t>(state.range(0)));
  const EdrTolerance tol = EdrTolerance::FromDeltaMax(250.0, 6.36);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdrOpSequence(traj, pivot, tol));
  }
}
BENCHMARK(BM_EdrOpSequence)->Arg(32)->Arg(512);

// The bit-parallel kernel alone (EdrDistance adds only the conversion).
void BM_EdrOps(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const auto [a, b] = NearbyPair(points);
  const EdrTolerance tol = EdrTolerance::FromDeltaMax(250.0, 6.36);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdrOps(a, b, tol));
  }
  state.SetComplexityN(static_cast<int64_t>(points));
}
BENCHMARK(BM_EdrOps)->Range(8, 512)->Complexity(benchmark::oNSquared);

// CRC-32 of a buffer of range(1) bytes by kernel range(0): 0 slice-by-8,
// 1 carry-less multiply (skipped on a CPU without PCLMULQDQ).
void BM_Crc32(benchmark::State& state) {
  const bool clmul = state.range(0) == 1;
  if (clmul && !Crc32ClmulSupported()) {
    state.SkipWithError("no PCLMULQDQ on this CPU");
    return;
  }
  Rng rng(17);
  std::string buf(static_cast<size_t>(state.range(1)), '\0');
  for (char& c : buf) {
    c = static_cast<char>(rng.UniformInt(0, 255));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(clmul ? Crc32Clmul(buf) : Crc32SliceBy8(buf));
  }
  state.SetBytesProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_Crc32)->ArgsProduct({{0, 1}, {48, 1024, 65536}});

// Per-pair cost of the cascade's two rungs (separation test and length
// bound) on a pair they cannot separate, for comparison against the kernel
// they shortcut. Profiles are built once (the memo amortizes them the same
// way), so this measures the incremental bound evaluation.
void BM_EdrSeparationCheck(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const auto [a, b] = NearbyPair(points);
  const EdrTolerance tol = EdrTolerance::FromDeltaMax(250.0, 6.36);
  const EdrBoundsProfile pa = EdrBoundsProfile::Of(a);
  const EdrBoundsProfile pb = EdrBoundsProfile::Of(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdrSeparated(pa, pb, tol));
    benchmark::DoNotOptimize(EdrLengthLowerBound(pa, pb));
  }
}
BENCHMARK(BM_EdrSeparationCheck)->Range(32, 512);

void BM_EdrProfileBuild(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(2, points);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdrBoundsProfile::Of(d[0]));
  }
}
BENCHMARK(BM_EdrProfileBuild)->Range(32, 512);

void BM_SynchronizedEuclidean(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(2, points);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SynchronizedEuclideanDistance(d[0], d[1]));
  }
}
BENCHMARK(BM_SynchronizedEuclidean)->Range(32, 512);

void BM_GridIndexRangeQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  GridIndex grid(100.0);
  for (size_t i = 0; i < n; ++i) {
    grid.Insert(i, rng.UniformReal(-50000, 50000),
                rng.UniformReal(-50000, 50000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        grid.RangeQuery(rng.UniformReal(-50000, 50000),
                        rng.UniformReal(-50000, 50000), 500.0));
  }
}
BENCHMARK(BM_GridIndexRangeQuery)->Range(1024, 65536);

void BM_DbscanSnapshot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<std::pair<double, double>> pts;
  GridIndex grid(200.0);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.UniformReal(-20000, 20000);
    const double y = rng.UniformReal(-20000, 20000);
    pts.emplace_back(x, y);
    grid.Insert(i, x, y);
  }
  auto neighbors = [&](size_t item) {
    return grid.RangeQuery(pts[item].first, pts[item].second, 200.0);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dbscan(n, 3, neighbors));
  }
}
BENCHMARK(BM_DbscanSnapshot)->Range(256, 4096);

void BM_TraclusPartitioning(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(1, points);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TraclusCharacteristicPoints(d[0], {}));
  }
}
BENCHMARK(BM_TraclusPartitioning)->Range(64, 1024);

void BM_GreedyClustering(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(n, 80);
  const WcopOptions options = ResolveOptions(d, WcopOptions{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyClustering(d, n / 10, options));
  }
}
BENCHMARK(BM_GreedyClustering)->Range(32, 256)
    ->Unit(benchmark::kMillisecond);

void BM_Translation(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const auto [traj, pivot] = NearbyPair(points);
  const EdrTolerance tol = EdrTolerance::FromDeltaMax(250.0, 6.36);
  Rng rng(9);
  for (auto _ : state) {
    TranslationStats stats;
    benchmark::DoNotOptimize(
        TranslateToPivot(traj, pivot, 100.0, tol, &rng, &stats));
  }
}
BENCHMARK(BM_Translation)->Range(32, 256);

void BM_StoreRangeQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(n, 80);
  Result<TrajectoryStore> store = TrajectoryStore::Build(d);
  Rng rng(7);
  const double radius = d.Bounds().HalfDiagonal();
  for (auto _ : state) {
    const Trajectory& t = d[rng.UniformIndex(d.size())];
    const Point& p = t[rng.UniformIndex(t.size())];
    StRange range;
    range.x_lo = p.x - 0.02 * radius;
    range.x_hi = p.x + 0.02 * radius;
    range.y_lo = p.y - 0.02 * radius;
    range.y_hi = p.y + 0.02 * radius;
    range.t_lo = p.t - 600.0;
    range.t_hi = p.t + 600.0;
    benchmark::DoNotOptimize(store->RangeQuery(range));
  }
}
BENCHMARK(BM_StoreRangeQuery)->Range(64, 512);

void BM_StoreNearestAt(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(n, 80);
  Result<TrajectoryStore> store = TrajectoryStore::Build(d);
  Rng rng(7);
  for (auto _ : state) {
    const Trajectory& t = d[rng.UniformIndex(d.size())];
    const Point& p = t[rng.UniformIndex(t.size())];
    benchmark::DoNotOptimize(store->NearestAt(p.x, p.y, p.t, 5));
  }
}
BENCHMARK(BM_StoreNearestAt)->Range(64, 512);

// Ingest: the exchange CSV of a 2,000 x 40 corpus (about 5 MB), written
// once per process and removed at exit. Throughput is CSV bytes per second
// of wall time.
struct IngestCsv {
  IngestCsv() {
    BenchScale scale;
    scale.trajectories = 2000;
    scale.points = 40;
    Dataset d = MakeBenchDataset(scale);
    AssignPaperRequirements(&d, 5, 250.0, 11);
    path = (std::filesystem::temp_directory_path() / "wcop_micro_ingest.csv")
               .string();
    ok = WriteDatasetCsv(d, path).ok();
    bytes = ok ? static_cast<int64_t>(std::filesystem::file_size(path)) : 0;
  }
  IngestCsv(const IngestCsv&) = delete;
  IngestCsv& operator=(const IngestCsv&) = delete;
  ~IngestCsv() { std::filesystem::remove(path); }

  std::string path;
  bool ok = false;
  int64_t bytes = 0;
};

const IngestCsv& IngestInput() {
  static const IngestCsv csv;
  return csv;
}

void BM_ReadDatasetCsv(benchmark::State& state) {
  const IngestCsv& csv = IngestInput();
  for (auto _ : state) {
    Result<Dataset> d = ReadDatasetCsv(csv.path);
    if (!csv.ok || !d.ok()) {
      state.SkipWithError("ReadDatasetCsv failed");
      break;
    }
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() * csv.bytes);
}
BENCHMARK(BM_ReadDatasetCsv)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CsvToStore(benchmark::State& state) {
  const IngestCsv& csv = IngestInput();
  const std::string store = csv.path + ".wst";
  for (auto _ : state) {
    Result<StoreConvertStats> stats = ConvertCsvToStore(csv.path, store);
    if (!csv.ok || !stats.ok()) {
      state.SkipWithError("ConvertCsvToStore failed");
      break;
    }
    benchmark::DoNotOptimize(stats);
  }
  state.SetBytesProcessed(state.iterations() * csv.bytes);
  std::filesystem::remove(store);
}
BENCHMARK(BM_CsvToStore)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_WcopCtEndToEnd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(n, 60);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunWcopCt(d));
  }
}
BENCHMARK(BM_WcopCtEndToEnd)->Range(32, 128)->Unit(benchmark::kMillisecond);

// With a sink attached: the same pipeline paying for counters and spans.
// Comparing against BM_WcopCtEndToEnd quantifies the observability overhead
// on a real run (the acceptance bar is "negligible against the quadratic
// distance work", not zero).
void BM_WcopCtEndToEndTelemetry(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(n, 60);
  for (auto _ : state) {
    telemetry::Telemetry tel;
    WcopOptions options;
    options.telemetry = &tel;
    benchmark::DoNotOptimize(RunWcopCt(d, options));
  }
}
BENCHMARK(BM_WcopCtEndToEndTelemetry)
    ->Range(32, 128)
    ->Unit(benchmark::kMillisecond);

// Raw cost of the telemetry primitives themselves.
void BM_TelemetryCounterAdd(benchmark::State& state) {
  telemetry::Telemetry tel;
  telemetry::Counter* counter = tel.metrics().GetCounter("bench.counter");
  for (auto _ : state) {
    telemetry::CounterAdd(counter);
  }
  benchmark::DoNotOptimize(counter->value());
}
BENCHMARK(BM_TelemetryCounterAdd);

// The disabled path every instrumented call site pays without a sink.
void BM_TelemetryCounterAddNull(benchmark::State& state) {
  telemetry::Counter* counter = nullptr;
  for (auto _ : state) {
    telemetry::CounterAdd(counter);
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_TelemetryCounterAddNull);

void BM_TelemetryHistogramRecord(benchmark::State& state) {
  telemetry::Telemetry tel;
  telemetry::Histogram* hist = tel.metrics().GetHistogram("bench.hist");
  uint64_t v = 1;
  for (auto _ : state) {
    hist->Record(v);
    v = (v * 2862933555777941757ull + 3037000493ull) >> 16;  // cheap lcg
  }
  benchmark::DoNotOptimize(hist->count());
}
BENCHMARK(BM_TelemetryHistogramRecord);

void BM_TelemetryScopedSpan(benchmark::State& state) {
  telemetry::Telemetry tel;
  for (auto _ : state) {
    WCOP_TRACE_SPAN(&tel, "bench/span");
  }
  benchmark::DoNotOptimize(tel.trace().event_count());
}
// Fixed iteration count: every span is kept in the recorder, so an
// auto-scaled run would grow the event vector into the hundreds of MB.
BENCHMARK(BM_TelemetryScopedSpan)->Iterations(1 << 16);

void BM_TelemetryScopedSpanNull(benchmark::State& state) {
  telemetry::Telemetry* tel = nullptr;
  for (auto _ : state) {
    WCOP_TRACE_SPAN(tel, "bench/span");
    benchmark::DoNotOptimize(tel);
  }
}
BENCHMARK(BM_TelemetryScopedSpanNull);

// Console reporting as usual, plus one JsonOut record per run so the
// harness's --json-out works here like in every other bench binary.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(JsonOut* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      const double iterations =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      std::vector<std::pair<std::string, double>> config = {
          {"iterations", iterations},
          {"per_iteration_seconds", run.real_accumulated_time / iterations}};
      // SetBytesProcessed's rate, in MB (2^20 bytes) per second.
      const auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) {
        config.emplace_back("mb_per_second",
                            bytes->second.value / (1024.0 * 1024.0));
      }
      out_->Add("micro/" + run.benchmark_name(), config,
                run.real_accumulated_time, {});
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  JsonOut* out_;
};

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark rejects flags it does not know, so --json-out (and the
  // argv[0]-preserving remainder) is peeled off before Initialize().
  ArgParser args(argc, argv);
  JsonOut json_out(args);
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out", 10) != 0) {
      bench_argv.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             bench_argv.data())) {
    return 1;
  }
  JsonCaptureReporter reporter(&json_out);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_out.Flush()) {
    return 1;
  }
  return 0;
}
