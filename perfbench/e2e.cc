// End-to-end benchmark of the WCOP publisher: ingest -> publish -> audit.
//
// One process is one closed-loop caller running one workload (workloads.h)
// at a pinned thread count. Each cycle
//   1. ingests the generated CSV into a `.wst` store (ConvertCsvToStore +
//      TrajectoryStoreReader::Open), kIngests times             -> setup_s
//   2. publishes a verified release: RunShardedWcopCt with shard
//      verification, per-shard checkpoints and a streamed `.wst` output, the
//      way wcop_serve runs a batch job; or RunContinuousPipeline with
//      verify_shards on, the daemon default                      -> publish_s
//   3. audits the release with attack::RunAudit (moderate adversary:
//      re-identification and effective-k, plus linkage over windows) -> audit_s
// The first cycle is an untimed warm-up. Later cycles repeat until
// --seconds have passed, and every timing is the median over them.
//
// --trace=0 prints the end-to-end metrics every workload has (EndToEnd) and,
// outside the JSON, the ones only `continuous` has (ContinuousOnly).
//
// Correctness: a shard that fails VerifyAnonymity, a degraded window, an
// audit phase that is missing or reports an effective-k violation, or a
// cycle whose published bytes or privacy figures differ from the first
// cycle's makes the run incorrect (exit code 1). RunContinuousPipeline runs
// its shard verifier but does not return the verdict, so the warm-up cycle
// of `continuous` (and every traced cycle) re-runs every window through
// ExtractWindow and RunShardedWcopCt with verification on, untimed, and
// requires the re-run to reproduce the window's input and output bytes that
// the manifest records.
//
// --trace=1 makes the same calls with a telemetry::Telemetry attached and
// failpoint hit counting on, after one untraced reference cycle, and prints
// per-layer metrics (spans, program counters, site hits, /proc/self/io,
// getrusage) plus the traced cycles' own end-to-end timings. Every traced
// cycle must publish the reference cycle's bytes, and every count must
// repeat exactly from one traced cycle to the next.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where `attempted` counts shards, windows and audit phases run, and `failed`
// those that failed.
//
// Usage: perfbench_e2e --workload=NAME --csv=FILE --dir=DIR --seconds=S
//                      --trace=0|1

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attack/audit.h"
#include "common/arg_parser.h"
#include "common/failpoint.h"
#include "common/telemetry.h"
#include "data/store_convert.h"
#include "pipeline/continuous.h"
#include "pipeline/manifest.h"
#include "store/partitioner.h"
#include "store/shard_runner.h"
#include "store/store_file.h"
#include "store/window_io.h"
#include "workloads.h"

namespace {
std::atomic<uint64_t> g_flushes{0};
}  // namespace

// Every store, checkpoint and manifest the program writes is made durable
// with fsync (write-tmp -> fsync -> rename). How long a flush waits is a
// property of the host's disk, not of the program, and on a shared disk it
// varies several-fold between runs. This definition in the executable takes
// precedence over the C library's for every call from the WCOP libraries
// linked into it, and gives fsync the semantics it has on tmpfs: the call is
// counted and returns at once. The durability protocol itself is covered by
// the crash and chaos tests.
extern "C" int fsync(int) {
  g_flushes.fetch_add(1, std::memory_order_relaxed);
  return 0;
}

namespace {

using namespace wcop;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using perfbench::Workload;

constexpr double kMB = 1024.0 * 1024.0;
constexpr uint64_t kWcopSeed = 7;
constexpr const char* kAdversary = "moderate";
// Ingests per cycle. One ingest of `many_short` takes a tenth of a second,
// too short a region to time once; setup_s is the median over all of them.
constexpr int kIngests = 3;

// Failpoint sites whose hits the traced run reports as store and pipeline
// work counts.
constexpr const char* kSites[] = {
    "store.create",     "store.write_block", "store.read_block",
    "store.fsync",      "snapshot.fsync",    "window_io.extract",
    "pipeline.manifest_saved"};

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) *
                          (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Peak resident set (VmHWM) of this process.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / kMB;
    }
  }
  return 0.0;
}

std::string FilesystemName(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext4";
    case 0x794c7630UL:
      return "overlay";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

/// Process-wide readings taken at phase boundaries; deltas between two of
/// them give one phase's CPU time, faults, I/O bytes, flushes and site hits.
struct Probe {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minor_faults = 0.0;
  double read_bytes = 0.0;   ///< /proc/self/io rchar
  double write_bytes = 0.0;  ///< /proc/self/io wchar
  double flushes = 0.0;
  std::map<std::string, double> hits;

  static Probe Take() {
    Probe p;
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    p.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
               static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
    p.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
              static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
    p.minor_faults = static_cast<double>(usage.ru_minflt);
    std::ifstream io("/proc/self/io");
    std::string key;
    double value = 0.0;
    while (io >> key >> value) {
      if (key == "rchar:") {
        p.read_bytes = value;
      } else if (key == "wchar:") {
        p.write_bytes = value;
      }
    }
    p.flushes = static_cast<double>(g_flushes.load());
    const FailpointRegistry& registry = FailpointRegistry::Instance();
    for (const char* site : kSites) {
      p.hits[site] = static_cast<double>(registry.HitCount(site));
    }
    return p;
  }

  Probe operator-(const Probe& o) const {
    Probe d;
    d.user_s = user_s - o.user_s;
    d.sys_s = sys_s - o.sys_s;
    d.minor_faults = minor_faults - o.minor_faults;
    d.read_bytes = read_bytes - o.read_bytes;
    d.write_bytes = write_bytes - o.write_bytes;
    d.flushes = flushes - o.flushes;
    for (const auto& [site, n] : hits) {
      d.hits[site] = n - o.hits.at(site);
    }
    return d;
  }

  Probe operator+(const Probe& o) const {
    Probe s = *this;
    s.user_s += o.user_s;
    s.sys_s += o.sys_s;
    s.minor_faults += o.minor_faults;
    s.read_bytes += o.read_bytes;
    s.write_bytes += o.write_bytes;
    s.flushes += o.flushes;
    for (const auto& [site, n] : o.hits) {
      s.hits[site] += n;
    }
    return s;
  }
};

std::map<std::string, double> SpanSeconds(const telemetry::Telemetry& tel) {
  std::map<std::string, double> out;
  for (const telemetry::TraceEvent& e : tel.trace().Events()) {
    out[e.name] += static_cast<double>(e.dur_ns) * 1e-9;
  }
  return out;
}

void AddCounters(std::map<std::string, double>* into,
                 const telemetry::MetricsSnapshot& snapshot,
                 double sign = 1.0) {
  for (const auto& [name, value] : snapshot.counters) {
    (*into)[name] += sign * static_cast<double>(value);
  }
}

// The shard runner's report carries its parent registry's counters plus
// every shard's; only the shards' part is added, because the parent's
// counters are read from the parent registry itself.
void AddShardCounters(std::map<std::string, double>* into,
                      const AnonymizationReport& report,
                      const telemetry::Telemetry& parent) {
  AddCounters(into, report.metrics);
  AddCounters(into, parent.metrics().Snapshot(), -1.0);
}

double Get(const std::map<std::string, double>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

void HashU64(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (i * 8)) & 0xffULL;
    *h *= 0x100000001b3ULL;
  }
}

/// Everything one cycle measured. Timings vary run to run; the outcome
/// fields are a function of the input and must repeat in every cycle.
struct Cycle {
  std::vector<double> setup_s;  ///< one per ingest
  double publish_s = 0.0;
  double audit_s = 0.0;
  std::vector<double> window_s;

  uint64_t digest = 0xcbf29ce484222325ULL;  ///< published bytes
  uint64_t published_bytes = 0;
  uint64_t input_points = 0;
  double ttd = 0.0;
  double suppressed = 0.0;
  double suppress_base = 0.0;
  double effective_k_mean = 0.0;
  double reident_top1 = 0.0;
  double linkage_rate = 0.0;

  size_t attempted = 0;
  size_t failed = 0;

  // Traced cycles only.
  std::map<std::string, double> layer;   ///< timings and ratios
  std::map<std::string, double> counts;  ///< must repeat exactly
};

class Bench {
 public:
  Bench(const Workload& workload, std::string csv, std::string dir)
      : w_(workload), csv_(std::move(csv)), dir_(std::move(dir)) {}

  /// One ingest -> publish -> audit cycle. `verify_windows` adds the
  /// out-of-band window re-run of `continuous` (untimed).
  Status Run(bool traced, bool verify_windows, Cycle* c);

  void Cleanup() const {
    std::error_code ec;
    fs::remove_all(CycleDir(), ec);
  }

 private:
  std::string CycleDir() const { return dir_ + "/cycle"; }

  store::ShardRunOptions BatchOptions(telemetry::Telemetry* tel) const {
    store::ShardRunOptions run;
    run.wcop.seed = kWcopSeed;
    run.wcop.threads = w_.threads;
    run.wcop.telemetry = tel;
    run.shard_dir = CycleDir() + "/shards";
    run.checkpoint_dir = CycleDir() + "/ckpt";
    run.verify_shards = true;
    run.stream_output_store = CycleDir() + "/published.wst";
    return run;
  }

  pipeline::ContinuousPipelineOptions PipelineOptions(
      const std::string& source, telemetry::Telemetry* tel) const {
    pipeline::ContinuousPipelineOptions p;
    p.source_store = source;
    p.output_dir = CycleDir() + "/windows";
    p.work_dir = CycleDir() + "/work";
    p.window_seconds = w_.window_seconds;
    p.wcop.seed = kWcopSeed;
    p.wcop.threads = w_.threads;
    p.wcop.telemetry = tel;
    p.verify_shards = true;
    return p;
  }

  Status Publish(const store::TrajectoryStoreReader& reader,
                 const std::string& source, telemetry::Telemetry* tel,
                 Cycle* c, std::vector<std::string>* published,
                 pipeline::ContinuousPipelineResult* windows);

  Status VerifyWindows(const store::TrajectoryStoreReader& reader,
                       const pipeline::ContinuousPipelineOptions& options,
                       const pipeline::ContinuousPipelineResult& result,
                       Cycle* c);

  Status Audit(const std::string& source, telemetry::Telemetry* tel,
               Cycle* c);

  const Workload& w_;
  const std::string csv_;
  const std::string dir_;
};

Status Bench::Run(bool traced, bool verify_windows, Cycle* c) {
  Cleanup();
  const std::string cdir = CycleDir();
  std::error_code ec;
  fs::create_directories(cdir, ec);
  if (ec) {
    return Status::IoError("cannot create " + cdir + ": " + ec.message());
  }
  std::unique_ptr<telemetry::Telemetry> tel;
  if (traced) {
    tel = std::make_unique<telemetry::Telemetry>();
  }
  FailpointRegistry::Instance().EnableHitCounting(traced);

  // ---- Setup: ingest the CSV into a store and open it, kIngests times over
  // the same path. The cycle goes on with the last store; the probes cover
  // the last ingest alone, so per-layer counts are those of one ingest.
  const std::string source = cdir + "/source.wst";
  Result<store::TrajectoryStoreReader> reader =
      Status::Internal("no ingest ran");
  std::vector<double> ingest_s;
  std::vector<double> open_s;
  Probe p0;
  for (int i = 0; i < kIngests; ++i) {
    reader = Status::Internal("no ingest ran");  // closes the previous store
    if (i + 1 == kIngests) {
      p0 = Probe::Take();
    }
    const Clock::time_point t0 = Clock::now();
    Result<StoreConvertStats> converted = ConvertCsvToStore(csv_, source);
    const Clock::time_point t1 = Clock::now();
    if (!converted.ok()) {
      return converted.status();
    }
    reader = store::TrajectoryStoreReader::Open(source);
    const Clock::time_point t2 = Clock::now();
    if (!reader.ok()) {
      return reader.status();
    }
    c->setup_s.push_back(Seconds(t0, t2));
    ingest_s.push_back(Seconds(t0, t1));
    open_s.push_back(Seconds(t1, t2));
  }
  const Probe p1 = Probe::Take();
  c->input_points = reader->total_points();

  // Partition cost in isolation: the same call on the same index that the
  // shard runner makes first (for `continuous`, once over the whole source
  // rather than per window). Traced cycles only; outside every timed phase.
  double partition_s = 0.0;
  if (traced) {
    const Clock::time_point q0 = Clock::now();
    WCOP_RETURN_IF_ERROR(
        store::PartitionStoreIndex(reader->index(), store::PartitionOptions())
            .status());
    partition_s = Seconds(q0, Clock::now());
  }

  // ---- Publish.
  const Probe p2 = Probe::Take();
  std::vector<std::string> published;
  pipeline::ContinuousPipelineResult windows;
  WCOP_RETURN_IF_ERROR(
      Publish(*reader, source, tel.get(), c, &published, &windows));
  const Probe p3 = Probe::Take();
  for (const std::string& path : published) {
    WCOP_ASSIGN_OR_RETURN(pipeline::FileDigest digest,
                          pipeline::DigestFile(path));
    HashU64(&c->digest, digest.crc);
    HashU64(&c->digest, digest.size);
    c->published_bytes += digest.size;
  }

  // Shard-level counters of `continuous` land in per-window reports that
  // the pipeline drops; the window re-run makes the same calls on the same
  // inputs and supplies them.
  if (w_.continuous() && verify_windows) {
    WCOP_RETURN_IF_ERROR(VerifyWindows(
        *reader, PipelineOptions(source, tel.get()), windows, c));
  }

  // ---- Audit.
  const Probe p4 = Probe::Take();
  WCOP_RETURN_IF_ERROR(Audit(source, tel.get(), c));
  const Probe p5 = Probe::Take();

  if (!traced) {
    return Status::OK();
  }
  const Probe setup = p1 - p0;
  const Probe publish = p3 - p2;
  const Probe audit = p5 - p4;
  const Probe total = setup + publish + audit;
  const std::map<std::string, double> spans = SpanSeconds(*tel);
  std::map<std::string, double>& L = c->layer;
  std::map<std::string, double>& N = c->counts;
  AddCounters(&N, tel->metrics().Snapshot());

  L["traced.setup_s"] = Median(c->setup_s);
  L["traced.publish_s"] = c->publish_s;
  L["traced.audit_s"] = c->audit_s;
  L["data.ingest_s"] = Median(ingest_s);
  L["data.ingest_mb"] = static_cast<double>(fs::file_size(csv_, ec)) / kMB;
  L["store.open_s"] = Median(open_s);
  L["store.partition_s"] = partition_s;
  for (const auto& [site, n] : total.hits) {
    N["hits." + std::string(site)] = n;
  }
  if (total.flushes != total.hits.at("store.fsync") +
                          total.hits.at("snapshot.fsync")) {
    return Status::Internal(
        "fsync calls bypassed the benchmark's definition of fsync");
  }
  L["io.write_mb"] = total.write_bytes / kMB;
  L["io.read_mb"] = total.read_bytes / kMB;

  const double shard_spans = Get(spans, "shard/write_stores") +
                             Get(spans, "shard/run") +
                             Get(spans, "shard/merge");
  L["shard.write_stores_s"] = Get(spans, "shard/write_stores");
  L["shard.merge_s"] = Get(spans, "shard/merge");
  L["shard.run_other_s"] = Get(spans, "shard/run") - Get(spans, "wcop_ct/run");
  L["pipeline.self_s"] = c->publish_s - shard_spans;
  L["cluster.greedy_s"] = Get(spans, "cluster/greedy");
  L["cluster.pivot_scan_s"] = Get(spans, "cluster/pivot_scan");
  L["translate.time_s"] = Get(spans, "wcop_ct/translate");
  L["attack.reident_s"] = Get(spans, "attack/reident");
  L["attack.effective_k_s"] = Get(spans, "attack/effective_k");
  L["attack.linkage_s"] = Get(spans, "attack/linkage");
  L["parallel.busy_share"] =
      Ratio(Get(spans, "parallel/worker"),
            static_cast<double>(w_.threads) * (c->publish_s + c->audit_s));

  const std::pair<const char*, const Probe*> phases[] = {
      {"setup", &setup}, {"publish", &publish}, {"audit", &audit}};
  for (const auto& [name, probe] : phases) {
    const std::string prefix = std::string("proc.") + name;
    L[prefix + ".user_s"] = probe->user_s;
    L[prefix + ".sys_s"] = probe->sys_s;
    L[prefix + ".minor_faults"] = probe->minor_faults;
  }
  N["pipeline.carry_records"] = 0.0;
  for (const pipeline::WindowManifest& m : windows.windows) {
    N["pipeline.carry_records"] += static_cast<double>(m.carried_out);
  }
  return Status::OK();
}

Status Bench::Publish(const store::TrajectoryStoreReader& reader,
                      const std::string& source, telemetry::Telemetry* tel,
                      Cycle* c, std::vector<std::string>* published,
                      pipeline::ContinuousPipelineResult* windows) {
  if (!w_.continuous()) {
    const store::ShardRunOptions run = BatchOptions(tel);
    const Clock::time_point t0 = Clock::now();
    Result<store::ShardedRunResult> result =
        store::RunShardedWcopCt(reader, run);
    c->publish_s = Seconds(t0, Clock::now());
    if (!result.ok()) {
      return result.status();
    }
    for (const store::ShardOutcome& shard : result->shards) {
      ++c->attempted;
      if (!shard.verification.ok) {
        ++c->failed;
        std::printf("FAIL: shard %zu: %zu anonymity violations\n",
                    shard.shard_index, shard.verification.violations);
      }
    }
    const AnonymizationReport& report = result->merged.report;
    if (report.degraded) {
      ++c->failed;
      std::printf("FAIL: degraded run: %s\n", report.degraded_reason.c_str());
    }
    c->ttd = report.ttd;
    c->suppressed = static_cast<double>(report.trashed_trajectories);
    c->suppress_base = static_cast<double>(reader.size());
    published->push_back(run.stream_output_store);
    if (tel != nullptr) {
      AddShardCounters(&c->counts, report, *tel);
    }
    return Status::OK();
  }

  pipeline::ContinuousPipelineOptions options = PipelineOptions(source, tel);
  options.progress = [c](const pipeline::PipelineProgress& p) {
    c->window_s.push_back(p.last_window_seconds);
  };
  const Clock::time_point t0 = Clock::now();
  Result<pipeline::ContinuousPipelineResult> result =
      pipeline::RunContinuousPipeline(options);
  c->publish_s = Seconds(t0, Clock::now());
  if (!result.ok()) {
    return result.status();
  }
  for (size_t i = 0; i < result->windows.size(); ++i) {
    ++c->attempted;
    if (result->windows[i].degraded) {
      ++c->failed;
      std::printf("FAIL: window %zu degraded\n", i);
    }
    char name[48];
    std::snprintf(name, sizeof(name), "/window_%05zu.wst", i);
    published->push_back(options.output_dir + name);
  }
  c->ttd = result->total_ttd;
  c->suppressed = static_cast<double>(result->suppressed_fragments);
  c->suppress_base = static_cast<double>(result->published_fragments +
                                         result->suppressed_fragments);
  *windows = *std::move(result);
  return Status::OK();
}

Status Bench::VerifyWindows(const store::TrajectoryStoreReader& reader,
                            const pipeline::ContinuousPipelineOptions& options,
                            const pipeline::ContinuousPipelineResult& result,
                            Cycle* c) {
  const std::string dir = CycleDir() + "/verify";
  int64_t next_fragment_id = 0;
  std::string carry_in;
  for (size_t wi = 0; wi < result.windows.size(); ++wi) {
    const pipeline::WindowManifest& m = result.windows[wi];
    const std::string wdir = dir + "/" + std::to_string(wi);
    store::WindowExtractOptions extract;
    extract.window_start = m.window_start;
    extract.window_end = m.window_end;
    extract.min_fragment_points = options.min_fragment_points;
    extract.next_fragment_id = next_fragment_id;
    extract.carry_in_path = carry_in;
    extract.window_out_path = wdir + "/input.wst";
    extract.carry_out_path = wdir + "/carry.wst";
    std::error_code ec;
    fs::create_directories(wdir, ec);
    WCOP_ASSIGN_OR_RETURN(store::WindowExtraction extraction,
                          store::ExtractWindow(reader, extract));
    WCOP_ASSIGN_OR_RETURN(pipeline::FileDigest input,
                          pipeline::DigestFile(extract.window_out_path));
    bool ok = input.crc == m.input_crc && input.size == m.input_size;

    if (extraction.fragments > 0) {
      WCOP_ASSIGN_OR_RETURN(
          store::TrajectoryStoreReader window,
          store::TrajectoryStoreReader::Open(extract.window_out_path));
      telemetry::Telemetry window_tel;
      store::ShardRunOptions run;
      run.wcop = options.wcop;
      run.wcop.telemetry = options.wcop.telemetry ? &window_tel : nullptr;
      run.partition = options.partition;
      run.shard_dir = wdir + "/shards";
      run.verify_shards = true;
      run.stream_output_store = wdir + "/output.wst";
      Result<store::ShardedRunResult> rerun =
          store::RunShardedWcopCt(window, run);
      if (rerun.ok()) {
        for (const store::ShardOutcome& shard : rerun->shards) {
          ++c->attempted;
          if (!shard.verification.ok) {
            ++c->failed;
            std::printf("FAIL: window %zu shard %zu: %zu anonymity "
                        "violations\n",
                        wi, shard.shard_index, shard.verification.violations);
          }
        }
        WCOP_ASSIGN_OR_RETURN(pipeline::FileDigest output,
                              pipeline::DigestFile(run.stream_output_store));
        ok = ok && output.crc == m.output_crc && output.size == m.output_size;
        if (options.wcop.telemetry != nullptr) {
          AddShardCounters(&c->counts, rerun->merged.report, window_tel);
        }
      } else if (rerun.status().code() == StatusCode::kUnsatisfiable ||
                 rerun.status().code() == StatusCode::kInvalidArgument) {
        ok = ok && m.skipped;  // the pipeline publishes such windows empty
      } else {
        return rerun.status();
      }
    }
    if (!ok) {
      ++c->failed;
      std::printf("FAIL: window %zu: the re-run does not reproduce the "
                  "published bytes\n",
                  wi);
    }
    // Keep only the carry store the next window consumes.
    const std::string carry = dir + "/carry_" + std::to_string(wi) + ".wst";
    fs::rename(extract.carry_out_path, carry, ec);
    if (ec) {
      return Status::IoError("rename " + extract.carry_out_path + ": " +
                             ec.message());
    }
    if (!carry_in.empty()) {
      fs::remove(carry_in, ec);
    }
    fs::remove_all(wdir, ec);
    carry_in = carry;
    next_fragment_id = extraction.next_fragment_id;
  }
  return Status::OK();
}

Status Bench::Audit(const std::string& source, telemetry::Telemetry* tel,
                    Cycle* c) {
  attack::AuditOptions audit;
  if (w_.continuous()) {
    audit.windows_dir = CycleDir() + "/windows";
  } else {
    audit.published_store = CycleDir() + "/published.wst";
  }
  audit.original_store = source;
  WCOP_ASSIGN_OR_RETURN(audit.adversary, attack::AdversaryPreset(kAdversary));
  audit.victims = w_.victims;
  audit.threads = w_.threads;
  audit.telemetry = tel;
  const Clock::time_point t0 = Clock::now();
  Result<attack::AuditReport> report = attack::RunAudit(audit);
  c->audit_s = Seconds(t0, Clock::now());
  if (!report.ok()) {
    return report.status();
  }
  c->attempted += w_.continuous() ? 3 : 2;
  if (!report->has_reident) {
    ++c->failed;
    std::printf("FAIL: audit ran no re-identification\n");
  }
  if (!report->has_effective_k ||
      report->effective_k.violation_fraction != 0.0) {
    ++c->failed;
    std::printf("FAIL: effective-k violation fraction %.6g\n",
                report->effective_k.violation_fraction);
  }
  if (w_.continuous() && !report->has_linkage) {
    ++c->failed;
    std::printf("FAIL: audit ran no linkage attack\n");
  }
  c->effective_k_mean = report->effective_k.mean_effective_k;
  c->reident_top1 = report->reident.top1_success;
  c->linkage_rate = report->linkage.linkage_rate;
  return Status::OK();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// `info` metrics are printed with the table but left out of the JSON.
void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics,
                 const std::vector<Metric>& info) {
  std::printf("%-34s %20s  %s\n", "metric", "value", "unit");
  for (const std::vector<Metric>* list : {&metrics, &info}) {
    for (const Metric& m : *list) {
      std::printf("%-34s %20.6f  %s%s\n", m.name.c_str(), m.value, m.unit,
                  list == &info ? "  (not gated)" : "");
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// End-to-end metrics from the timed cycles: the ones every workload has.
std::vector<Metric> EndToEnd(const std::vector<Cycle>& cycles) {
  std::vector<double> setup;
  std::vector<double> publish;
  std::vector<double> audit;
  for (const Cycle& c : cycles) {
    setup.insert(setup.end(), c.setup_s.begin(), c.setup_s.end());
    publish.push_back(c.publish_s);
    audit.push_back(c.audit_s);
  }
  const Cycle& c = cycles.front();
  const double points = static_cast<double>(c.input_points);
  return {
      {"setup_s", Median(setup), "s"},
      {"publish_s", Median(publish), "s"},
      {"audit_s", Median(audit), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"distortion_m_per_point", Ratio(c.ttd, points), "m/point"},
      {"published_bytes_per_point",
       Ratio(static_cast<double>(c.published_bytes), points), "B/point"},
      {"effective_k_mean", c.effective_k_mean, "users"},
      {"reident_top1", c.reident_top1, "ratio"},
  };
}

// Per-window latency (p50 and p90 over every window of every cycle), linkage
// and suppression exist only on `continuous`; the batch workloads publish no
// windows, link nothing and trash nothing at k <= 5. The timed run of
// `continuous` prints them outside the JSON; the traced run reports them
// per layer on every workload.
std::vector<Metric> ContinuousOnly(const std::vector<Cycle>& cycles,
                                   const std::string& prefix) {
  std::vector<double> windows;
  for (const Cycle& c : cycles) {
    windows.insert(windows.end(), c.window_s.begin(), c.window_s.end());
  }
  const Cycle& c = cycles.front();
  return {
      {prefix + "window_p50_s", Percentile(windows, 0.5), "s"},
      {prefix + "window_p90_s", Percentile(windows, 0.9), "s"},
      {"attack.linkage_rate", c.linkage_rate, "ratio"},
      {"anon.suppressed_fraction", Ratio(c.suppressed, c.suppress_base),
       "ratio"},
  };
}

// Per-layer metrics from the traced cycles: timings are medians over them,
// counts come from the first (they repeat exactly, which main checks).
std::vector<Metric> PerLayer(const std::vector<Cycle>& cycles) {
  std::map<std::string, std::vector<double>> timings;
  for (const Cycle& c : cycles) {
    for (const auto& [name, value] : c.layer) {
      timings[name].push_back(value);
    }
  }
  auto T = [&](const std::string& name) { return Median(timings[name]); };
  const std::map<std::string, double>& n = cycles.front().counts;
  auto N = [&](const std::string& name) { return Get(n, name); };
  const double edr = N("distance.calls.edr");
  const double lookups =
      edr + N("distance.early_abandoned") + N("distance.cache_hits");
  const double scored = N("attack.candidates");
  return {
      {"traced.setup_s", T("traced.setup_s"), "s"},
      {"traced.publish_s", T("traced.publish_s"), "s"},
      {"traced.audit_s", T("traced.audit_s"), "s"},
      {"traced.peak_rss_mb", PeakRssMb(), "MB"},
      {"data.ingest_s", T("data.ingest_s"), "s"},
      {"data.ingest_mb", T("data.ingest_mb"), "MB"},
      {"store.open_s", T("store.open_s"), "s"},
      {"store.blocks_written", N("hits.store.write_block"), "count"},
      {"store.blocks_read", N("hits.store.read_block"), "count"},
      {"store.files_created", N("hits.store.create"), "count"},
      {"store.fsyncs", N("hits.store.fsync") + N("hits.snapshot.fsync"),
       "count"},
      {"io.write_mb", T("io.write_mb"), "MB"},
      {"io.read_mb", T("io.read_mb"), "MB"},
      {"store.partition_s", T("store.partition_s"), "s"},
      {"store.shards", N("shard.completed"), "count"},
      {"shard.write_stores_s", T("shard.write_stores_s"), "s"},
      {"shard.merge_s", T("shard.merge_s"), "s"},
      {"shard.run_other_s", T("shard.run_other_s"), "s"},
      {"cluster.greedy_s", T("cluster.greedy_s"), "s"},
      {"cluster.pivot_scan_s", T("cluster.pivot_scan_s"), "s"},
      {"cluster.attempts", N("cluster.attempts"), "count"},
      {"cluster.accepted", N("cluster.accepted"), "count"},
      {"cluster.accept_ratio",
       Ratio(N("cluster.accepted"), N("cluster.attempts")), "ratio"},
      {"distance.calls.edr", edr, "count"},
      {"distance.early_abandoned", N("distance.early_abandoned"), "count"},
      {"distance.cache_hits", N("distance.cache_hits"), "count"},
      {"distance.exact_share", Ratio(edr, lookups), "ratio"},
      {"grid.range_queries", N("grid.range_queries"), "count"},
      {"grid.candidates_scanned", N("grid.candidates_scanned"), "count"},
      {"distance.candidates.prefiltered", N("distance.candidates.prefiltered"),
       "count"},
      {"translate.time_s", T("translate.time_s"), "s"},
      {"translate.matched_points", N("translate.matched_points"), "count"},
      {"translate.created_points", N("translate.created_points"), "count"},
      {"translate.deleted_points", N("translate.deleted_points"), "count"},
      {"parallel.tasks", N("parallel.tasks"), "count"},
      {"parallel.batches", N("parallel.batches"), "count"},
      {"parallel.busy_share", T("parallel.busy_share"), "ratio"},
      {"pipeline.windows_published", N("pipeline.windows_published"),
       "count"},
      {"pipeline.carry_records", N("pipeline.carry_records"), "count"},
      {"pipeline.extracts", N("hits.window_io.extract"), "count"},
      {"pipeline.manifests", N("hits.pipeline.manifest_saved"), "count"},
      {"pipeline.self_s", T("pipeline.self_s"), "s"},
      {"attack.reident_s", T("attack.reident_s"), "s"},
      {"attack.candidates", scored, "count"},
      {"attack.candidates.pruned", N("attack.candidates.pruned"), "count"},
      {"attack.scored_share",
       Ratio(scored, scored + N("attack.candidates.pruned")), "ratio"},
      {"attack.effective_k_s", T("attack.effective_k_s"), "s"},
      {"attack.linkage_s", T("attack.linkage_s"), "s"},
      {"attack.linkage.attempted", N("attack.linkage.attempted"), "count"},
      {"attack.linkage.joined", N("attack.linkage.joined"), "count"},
      {"proc.setup.user_s", T("proc.setup.user_s"), "s"},
      {"proc.setup.sys_s", T("proc.setup.sys_s"), "s"},
      {"proc.setup.minor_faults", T("proc.setup.minor_faults"), "count"},
      {"proc.publish.user_s", T("proc.publish.user_s"), "s"},
      {"proc.publish.sys_s", T("proc.publish.sys_s"), "s"},
      {"proc.publish.minor_faults", T("proc.publish.minor_faults"), "count"},
      {"proc.audit.user_s", T("proc.audit.user_s"), "s"},
      {"proc.audit.sys_s", T("proc.audit.sys_s"), "s"},
      {"proc.audit.minor_faults", T("proc.audit.minor_faults"), "count"},
  };
}

// The outcome of every cycle must equal the first cycle's: same published
// bytes and the same utility and privacy figures. Returns the mismatches.
size_t CompareOutcomes(const Cycle& first, const Cycle& c, size_t index) {
  size_t mismatches = 0;
  auto check = [&](const char* what, bool same) {
    if (!same) {
      ++mismatches;
      std::printf("FAIL: cycle %zu: %s differs from the first cycle\n",
                  index, what);
    }
  };
  check("published bytes", c.digest == first.digest &&
                               c.published_bytes == first.published_bytes);
  check("TTD", c.ttd == first.ttd);
  check("suppression", c.suppressed == first.suppressed &&
                           c.suppress_base == first.suppress_base);
  check("effective k", c.effective_k_mean == first.effective_k_mean);
  check("re-identification", c.reident_top1 == first.reident_top1);
  check("linkage", c.linkage_rate == first.linkage_rate);
  return mismatches;
}

// Counts of two traced cycles of one build must be identical.
size_t CompareCounts(const Cycle& first, const Cycle& c, size_t index) {
  size_t mismatches = 0;
  std::map<std::string, double> all = first.counts;
  all.insert(c.counts.begin(), c.counts.end());
  for (const auto& [name, unused] : all) {
    const double a = Get(first.counts, name);
    const double b = Get(c.counts, name);
    if (a != b) {
      ++mismatches;
      std::printf("FAIL: traced cycle %zu: count %s is %.17g, first traced "
                  "cycle %.17g\n",
                  index, name.c_str(), b, a);
    }
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const Workload* workload =
      perfbench::FindWorkload(args.GetString("workload", ""));
  const std::string csv = args.GetString("csv", "");
  const std::string dir = args.GetString("dir", "");
  const double seconds = args.GetDouble("seconds", 0.0);
  const bool trace = args.GetInt("trace", 0) != 0;
  if (workload == nullptr || csv.empty() || dir.empty() || seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload=NAME --csv=FILE --dir=DIR "
                 "--seconds=S --trace=0|1\n");
    return 2;
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::printf("workload %s: %zu trajectories x %zu points, wcop threads %d, "
              "audit threads %d, adversary %s, victims %zu%s\n",
              workload->name, workload->trajectories, workload->points,
              workload->threads, workload->threads, kAdversary,
              workload->victims, trace ? ", traced" : "");
  std::printf("nproc %u, build %s, filesystem %s, fsync counted not "
              "waited for\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              FilesystemName(dir).c_str());

  Bench bench(*workload, csv, dir);
  const Clock::time_point start = Clock::now();
  // Warm-up and reference: untraced, untimed, and for `continuous` the
  // cycle whose windows are re-run with verification.
  Cycle first;
  if (Status s = bench.Run(false, true, &first); !s.ok()) {
    std::printf("FAIL: warm-up cycle: %s\n", s.ToString().c_str());
    bench.Cleanup();
    return 1;
  }
  std::vector<Cycle> cycles;
  size_t attempted = first.attempted;
  size_t failed = first.failed;
  size_t mismatches = 0;
  const size_t min_cycles = trace ? 2 : 3;
  Clock::time_point last = Clock::now();
  double cycle_s = 0.0;
  while (cycles.size() < min_cycles ||
         Seconds(start, Clock::now()) + cycle_s <= seconds) {
    Cycle c;
    if (Status s = bench.Run(trace, trace, &c); !s.ok()) {
      std::printf("FAIL: cycle %zu: %s\n", cycles.size() + 1,
                  s.ToString().c_str());
      bench.Cleanup();
      return 1;
    }
    std::printf("cycle %zu: setup %.4f s, publish %.4f s, audit %.4f s\n",
                cycles.size() + 1, Median(c.setup_s), c.publish_s, c.audit_s);
    attempted += c.attempted;
    failed += c.failed;
    mismatches += CompareOutcomes(first, c, cycles.size() + 1);
    if (trace && !cycles.empty()) {
      mismatches += CompareCounts(cycles.front(), c, cycles.size() + 1);
    }
    cycles.push_back(std::move(c));
    const Clock::time_point now = Clock::now();
    cycle_s = Seconds(last, now);
    last = now;
  }
  bench.Cleanup();
  std::printf("%zu %s cycles, %.1f s with the warm-up\n", cycles.size(),
              trace ? "traced" : "timed", Seconds(start, Clock::now()));

  const bool correct = failed == 0 && mismatches == 0;
  if (trace) {
    std::vector<Metric> layers = PerLayer(cycles);
    for (Metric& m : ContinuousOnly(cycles, "traced.")) {
      layers.push_back(std::move(m));
    }
    PrintResult(correct, attempted, failed, layers, {});
  } else {
    PrintResult(correct, attempted, failed, EndToEnd(cycles),
                workload->continuous() ? ContinuousOnly(cycles, "")
                                       : std::vector<Metric>{});
  }
  return correct ? 0 : 1;
}
