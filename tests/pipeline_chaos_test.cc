// Chaos harness for the continuous publication pipeline: prove that a
// publisher killed at ANY window lifecycle point — or starved of disk mid
// publish — recovers on restart to byte-identical published output.
//
// The binary doubles as its own crash victim. Invoked as
//
//   pipeline_chaos_test --child=run <source.wst> <output_dir> <dump_path>
//
// it runs the pipeline over the source store (resume always on, per-window
// retry armed) and, only on success, writes the concatenated raw bytes of
// every published window_*.wst and window_*.mfr to <dump_path>. The dump IS
// the robustness contract: two runs publish identical output iff their
// dumps are byte-equal.
//
// The gtest side fork/execs that child under three fault regimes:
//   1. kill matrix: WCOP_FAILPOINTS=<site>:abort@N (and sigterm@N) at every
//      window lifecycle site -> expect death by the exact signal, then a
//      clean restart whose dump equals the uninterrupted baseline;
//   2. errno schedules: <site>:errno=ENOSPC@N -> the per-window RetryCall
//      must absorb the injected failure and the run still exits 0 with a
//      baseline-identical dump;
//   3. seeded multi-crash schedules: a deterministic xorshift RNG derives a
//      sequence of (site, hit) crash specs per seed, the child is crashed
//      repeatedly mid-recovery, and the final clean restart must still
//      converge to the baseline bytes.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/retry.h"
#include "pipeline/continuous.h"
#include "store/store_file.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::StaggeredGroupedDataset;

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Shared between parent and child: the deterministic workload
// (StaggeredGroupedDataset, five 100 s windows with a live carry-over chain)
// and the published-bytes dump.
// ---------------------------------------------------------------------------

// Concatenated raw bytes of every published artifact, in filename order.
// Includes the manifests, so a run that "recovers" by rewriting different
// stats (not just different trajectories) also fails the comparison.
int DumpPublished(const std::string& output_dir,
                  const std::string& dump_path) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(output_dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    if (name.rfind("window_", 0) == 0) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  std::ofstream out(dump_path, std::ios::binary | std::ios::trunc);
  for (const std::string& name : names) {
    std::ifstream in(output_dir + "/" + name, std::ios::binary);
    out << name << "\n" << in.rdbuf();
  }
  out.close();
  if (!out) {
    std::fprintf(stderr, "child: cannot write %s\n", dump_path.c_str());
    return 4;
  }
  return 0;
}

int RunPipelineChild(const std::string& source, const std::string& output_dir,
                     const std::string& dump_path) {
  pipeline::ContinuousPipelineOptions options;
  options.source_store = source;
  options.output_dir = output_dir;
  options.window_seconds = 100.0;
  options.resume = true;  // a restarted publisher always resumes
  options.verify_shards = true;
  options.wcop.seed = 7;
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff = std::chrono::milliseconds(1);
  options.publish_retry = &retry;

  Result<pipeline::ContinuousPipelineResult> result =
      pipeline::RunContinuousPipeline(options);
  if (!result.ok()) {
    std::fprintf(stderr, "child: pipeline failed: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }
  return DumpPublished(output_dir, dump_path);
}

// ---------------------------------------------------------------------------
// Parent-side process harness.
// ---------------------------------------------------------------------------

struct ChildOutcome {
  bool signalled = false;
  int signal = 0;
  int exit_code = -1;
};

ChildOutcome SpawnChild(const std::string& source,
                        const std::string& output_dir,
                        const std::string& dump_path,
                        const std::string& failpoints) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (failpoints.empty()) {
      ::unsetenv("WCOP_FAILPOINTS");
    } else {
      ::setenv("WCOP_FAILPOINTS", failpoints.c_str(), 1);
    }
    ::execl("/proc/self/exe", "pipeline_chaos_test", "--child=run",
            source.c_str(), output_dir.c_str(), dump_path.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  ChildOutcome outcome;
  if (pid < 0) {
    return outcome;  // fork failed -> exit_code stays -1
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) {
    return outcome;
  }
  if (WIFSIGNALED(status)) {
    outcome.signalled = true;
    outcome.signal = WTERMSIG(status);
  } else if (WIFEXITED(status)) {
    outcome.exit_code = WEXITSTATUS(status);
  }
  return outcome;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class PipelineChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("pipeline_chaos_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    source_ = Path("source.wst");
    ASSERT_TRUE(store::WriteDatasetStore(StaggeredGroupedDataset(), source_).ok());
    // Uninterrupted reference run: every faulted run must converge to
    // exactly these bytes.
    const ChildOutcome baseline =
        SpawnChild(source_, Path("baseline"), Path("baseline.dump"), "");
    ASSERT_FALSE(baseline.signalled) << "baseline died: " << baseline.signal;
    ASSERT_EQ(baseline.exit_code, 0);
    expected_ = ReadFileBytes(Path("baseline.dump"));
    ASSERT_FALSE(expected_.empty());
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  /// Crash the child at `spec` (expecting death by `expect_signal`), then
  /// restart it clean over the same output dir and require baseline bytes.
  void CrashAndRecover(const std::string& spec, int expect_signal,
                       const std::string& tag) {
    SCOPED_TRACE("killed at " + spec);
    const std::string out_dir = Path("out_" + tag);
    const std::string dump = Path("dump_" + tag);

    const ChildOutcome crash = SpawnChild(source_, out_dir, dump, spec);
    ASSERT_TRUE(crash.signalled)
        << "expected a signal, child exited with " << crash.exit_code;
    EXPECT_EQ(crash.signal, expect_signal);
    EXPECT_TRUE(ReadFileBytes(dump).empty())
        << "crashed child must not have published a dump";

    const ChildOutcome restart = SpawnChild(source_, out_dir, dump, "");
    ASSERT_FALSE(restart.signalled)
        << "restart died with signal " << restart.signal;
    ASSERT_EQ(restart.exit_code, 0);
    EXPECT_EQ(ReadFileBytes(dump), expected_)
        << "resumed output differs from the uninterrupted run";
  }

  fs::path dir_;
  std::string source_;
  std::string expected_;
};

// kill -9-equivalent (abort leaves no atexit cleanup, like SIGKILL minus
// the unkillability) at every window lifecycle boundary and inside every
// layer underneath it: extraction, carry spill, store block writes, the
// atomic rename and the manifest snapshot.
TEST_F(PipelineChaosTest, SurvivesAbortAtEveryLifecyclePoint) {
  const std::vector<std::string> specs = {
      "pipeline.window_start:abort@2",
      "pipeline.window_extracted:abort@1",
      "pipeline.window_extracted:abort@4",
      "pipeline.window_anonymized:abort@2",
      "pipeline.window_published:abort@1",
      "pipeline.window_published:abort@3",
      "pipeline.manifest_saved:abort@2",
      "pipeline.manifest_saved:abort@5",
      "window_io.extract:abort@3",
      "window_io.carry_saved:abort@1",
      "window_io.carry_saved:abort@2",
      "store.write_block:abort@4",
      "store.rename:abort@3",
      "snapshot.rename:abort@2",
  };
  for (size_t i = 0; i < specs.size(); ++i) {
    CrashAndRecover(specs[i], SIGABRT, "abort_" + std::to_string(i));
  }
}

// SIGTERM (graceful-shutdown path of an init system or container runtime)
// delivered at torn-rename-adjacent points must be just as recoverable.
TEST_F(PipelineChaosTest, SurvivesSigtermMidPublish) {
  const std::vector<std::string> specs = {
      "pipeline.window_published:sigterm@2",
      "window_io.carry_saved:sigterm@1",
      "snapshot.rename:sigterm@3",
  };
  for (size_t i = 0; i < specs.size(); ++i) {
    CrashAndRecover(specs[i], SIGTERM, "term_" + std::to_string(i));
  }
}

// Injected ENOSPC / EIO / EDQUOT on a specific write in the publish
// sequence: the per-window RetryCall must absorb it — the run exits 0 on
// the first invocation and the published bytes match the clean baseline.
TEST_F(PipelineChaosTest, RetryAbsorbsInjectedDiskErrors) {
  const std::vector<std::string> specs = {
      "store.fsync:errno=ENOSPC@2",
      "store.write_block:errno=EIO@3",
      "snapshot.write:errno=ENOSPC@1",
      "snapshot.fsync:errno=EDQUOT@2",
  };
  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("errno spec " + specs[i]);
    const std::string tag = std::to_string(i);
    const ChildOutcome run = SpawnChild(source_, Path("out_e" + tag),
                                        Path("dump_e" + tag), specs[i]);
    ASSERT_FALSE(run.signalled) << "died with signal " << run.signal;
    ASSERT_EQ(run.exit_code, 0)
        << "retry policy failed to absorb the injected error";
    EXPECT_EQ(ReadFileBytes(Path("dump_e" + tag)), expected_);
  }
}

// ENOSPC that outlasts the retry budget is a clean failure (no dump, no
// torn published window) and a later restart on the healed disk converges.
TEST_F(PipelineChaosTest, ExhaustedRetriesFailCleanThenRecover) {
  // errno on three consecutive attempts of the same window: fire on hits
  // 2, 3 and 4 would need three armed specs; the registry arms one errno
  // shot per site, so stack three different sites inside one window's
  // publish sequence instead.
  const std::string spec =
      "store.fsync:errno=ENOSPC@2,store.write_block:errno=ENOSPC@4,"
      "snapshot.write:errno=ENOSPC@1,snapshot.fsync:errno=ENOSPC@1,"
      "snapshot.rename:errno=ENOSPC@1";
  const std::string out_dir = Path("out");
  const std::string dump = Path("dump");
  const ChildOutcome starved = SpawnChild(source_, out_dir, dump, spec);
  ASSERT_FALSE(starved.signalled);
  if (starved.exit_code != 0) {
    EXPECT_EQ(starved.exit_code, 2) << "pipeline error, not a dump error";
    EXPECT_TRUE(ReadFileBytes(dump).empty());
  }
  const ChildOutcome healed = SpawnChild(source_, out_dir, dump, "");
  ASSERT_FALSE(healed.signalled);
  ASSERT_EQ(healed.exit_code, 0);
  EXPECT_EQ(ReadFileBytes(dump), expected_);
}

// Seed-reproducible multi-crash schedules: each seed derives a fixed
// sequence of (site, hit) crash points via xorshift64, the publisher is
// crashed at each in turn (every restart resuming the last one's wreckage),
// and the final clean restart must still produce baseline bytes. A child
// that survives a scheduled crash (the resumed run no longer reaches that
// hit count) must already have converged.
TEST_F(PipelineChaosTest, SeededCrashSchedulesConverge) {
  const std::vector<std::string> sites = {
      "pipeline.window_start",     "pipeline.window_extracted",
      "pipeline.window_anonymized", "pipeline.window_published",
      "pipeline.manifest_saved",   "window_io.carry_saved",
      "store.write_block",         "store.rename",
      "snapshot.rename",
  };
  for (const uint64_t seed : {1ull, 7ull, 23ull}) {
    SCOPED_TRACE("schedule seed " + std::to_string(seed));
    uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
    const auto next = [&state]() {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    const std::string out_dir = Path("out_s" + std::to_string(seed));
    const std::string dump = Path("dump_s" + std::to_string(seed));
    for (int crash = 0; crash < 3; ++crash) {
      const std::string& site = sites[next() % sites.size()];
      const int hit = static_cast<int>(next() % 4) + 1;
      const std::string spec =
          site + ":abort@" + std::to_string(hit);
      SCOPED_TRACE("crash " + std::to_string(crash) + " at " + spec);
      const ChildOutcome outcome = SpawnChild(source_, out_dir, dump, spec);
      if (!outcome.signalled) {
        // Resume adopted enough windows that the site never reached the
        // scheduled hit: the run completed; it must already be converged.
        ASSERT_EQ(outcome.exit_code, 0);
        EXPECT_EQ(ReadFileBytes(dump), expected_);
        continue;
      }
      EXPECT_EQ(outcome.signal, SIGABRT);
    }
    const ChildOutcome final_run = SpawnChild(source_, out_dir, dump, "");
    ASSERT_FALSE(final_run.signalled)
        << "final restart died with signal " << final_run.signal;
    ASSERT_EQ(final_run.exit_code, 0);
    EXPECT_EQ(ReadFileBytes(dump), expected_)
        << "multi-crash schedule failed to converge";
  }
}

}  // namespace
}  // namespace wcop

// Custom main: child mode must not run the test suite.
int main(int argc, char** argv) {
  if (argc == 5 && std::string(argv[1]) == "--child=run") {
    return wcop::RunPipelineChild(argv[2], argv[3], argv[4]);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
