#ifndef WCOP_COMMON_FAILPOINT_H_
#define WCOP_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace wcop {

/// RocksDB-SyncPoint-style fault injection registry.
///
/// Production code marks its fallible boundaries with
///
///   WCOP_FAILPOINT("geolife.read_line");
///
/// inside any function returning Status or Result<T>. Disarmed (the normal
/// state) a failpoint costs two relaxed atomic loads. Tests arm a site —
/// programmatically through Arm()/ArmAbort()/ScopedFailpoint, or for whole
/// binaries via the WCOP_FAILPOINTS environment variable — and the next hit
/// either returns the injected Status from the enclosing function
/// (exercising the error-propagation path exactly as a real I/O failure
/// would) or, in abort mode, kills the process (exercising crash recovery).
///
/// WCOP_FAILPOINTS syntax: a comma-separated list of segments. Whitespace
/// around segments is trimmed and empty segments (trailing or duplicated
/// commas) are ignored. Each segment is
///
///   site            arm `site` to inject Status::Internal on every hit
///   site:abort      arm `site` to std::abort() on its first hit
///   site:abort@N    arm `site` to std::abort() on its N-th hit (N >= 1)
///   site:sigint@N   arm `site` to raise(SIGINT) on its N-th hit
///   site:sigterm@N  arm `site` to raise(SIGTERM) on its N-th hit
///   site:errno=E    arm `site` to inject an IoError carrying errno `E`
///                   (ENOSPC, EIO, EDQUOT, EACCES, EMFILE) on its first hit
///   site:errno=E@N  same, on its N-th hit
///
/// N is a plain decimal count from 1 to INT_MAX; any other count (a sign,
/// junk, a value past INT_MAX) makes the segment malformed.
///
/// errno mode is one-shot: it lets the N-1 preceding hits through, injects
/// `Status::IoError("... <E> (<strerror>) ...")` exactly once — the way a
/// full disk fails one write and then "recovers" after the retry backoff or
/// an operator frees space — and disarms itself. Persistent device failure
/// is modelled programmatically via Arm() with max_fires = -1.
///
/// A malformed WCOP_FAILPOINTS value terminates the process with exit code
/// 2 and a clear diagnostic. Fault injection is only ever requested
/// explicitly; running without the requested faults would turn a chaos test
/// into a silent false-green, so misconfiguration is fatal, not a warning.
///
/// Signal mode delivers the signal synchronously at an exact pipeline
/// boundary and then lets execution continue — precisely how an operator's
/// Ctrl-C or a systemd SIGTERM lands mid-run — so the signal-shutdown tests
/// can assert the cooperative cancellation + final-checkpoint-flush path
/// deterministically.
///
/// All operations are thread-safe.
class FailpointRegistry {
 public:
  /// The process-wide registry. First access parses WCOP_FAILPOINTS.
  static FailpointRegistry& Instance();

  /// Arms `site` to return `status` on hits. `max_fires` > 0 limits the
  /// number of injected failures (the site disarms itself afterwards);
  /// -1 fires forever. Re-arming an armed site overwrites it.
  void Arm(std::string_view site, Status status, int max_fires = -1);

  /// Arms `site` to call std::abort() on its `on_hit`-th hit (1 = the next
  /// one). The crash-recovery harness uses this to kill a child process at
  /// an exact pipeline boundary.
  void ArmAbort(std::string_view site, int on_hit = 1);

  /// Arms `site` to raise(`signo`) on its `on_hit`-th hit and then continue
  /// normally. The signal-shutdown tests use this to deliver SIGINT/SIGTERM
  /// at an exact pipeline boundary.
  void ArmSignal(std::string_view site, int signo, int on_hit = 1);

  /// Arms `site` to call `callback` on every hit and then continue
  /// normally. The callback runs outside the registry's lock, so it may
  /// block — tests hold a thread at an exact boundary this way until they
  /// release it — while other threads pass every other site.
  void ArmCallback(std::string_view site, std::function<void()> callback);

  /// Arms `site` to inject Status::IoError carrying `errno_value` (message
  /// includes the errno name and strerror text) on its `on_hit`-th hit,
  /// letting earlier hits through, then disarms itself. This is how the
  /// chaos harness models ENOSPC/EIO striking one specific write in a
  /// multi-write publish sequence.
  void ArmErrno(std::string_view site, int errno_value, int on_hit = 1);

  /// Parses a WCOP_FAILPOINTS-style spec (see class comment) and arms every
  /// listed site. Returns InvalidArgument naming the first malformed
  /// segment; well-formed segments before it are still armed.
  Status ArmFromSpec(std::string_view spec);

  /// Disarms `site`; no-op when not armed.
  void Disarm(std::string_view site);

  /// Disarms every site and clears hit counts (test teardown). Leaves
  /// hit counting (EnableHitCounting) as-is.
  void DisarmAll();

  /// Enables counting *every* failpoint hit, armed or not. Off (the
  /// default), the disarmed fast path skips the registry entirely and
  /// HitCount only reflects hits made while some site was armed; tests
  /// that need exact hit counts turn this on.
  void EnableHitCounting(bool enabled) {
    count_all_hits_.store(enabled, std::memory_order_relaxed);
  }

  /// True when any site is armed anywhere in the process.
  bool any_armed() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Fast path used by the WCOP_FAILPOINT macro: false when no site is
  /// armed and hit counting is off — the registry need not be consulted.
  bool active() const {
    return any_armed() || count_all_hits_.load(std::memory_order_relaxed);
  }

  /// Returns the injected Status when `site` is armed (aborting instead
  /// when the site is armed in abort mode and its hit countdown expires),
  /// OK otherwise.
  Status Fire(std::string_view site);

  /// Total hits observed at `site`. Exact while hit counting is enabled or
  /// some site is armed; the fully-disarmed fast path skips the registry,
  /// so hits made then are not counted.
  uint64_t HitCount(std::string_view site) const;

  /// Process-wide count of injected (non-OK) fires, across all sites and
  /// the whole process lifetime. Telemetry publishes this as the
  /// `failpoint.fires_total` gauge.
  uint64_t TotalFired() const {
    return fired_count_.load(std::memory_order_relaxed);
  }

  /// Names of the currently armed sites (diagnostics).
  std::vector<std::string> ArmedSites() const;

 private:
  FailpointRegistry();

  struct Entry {
    Status status;
    int remaining = -1;  ///< fires left; -1 = unlimited
    int skip_hits = 0;   ///< status-mode hits to let through before firing
    bool abort_mode = false;
    int abort_countdown = 0;  ///< abort when a hit decrements this to 0
    int signal_number = 0;    ///< raise this instead of aborting (signal mode)
    std::function<void()> callback;  ///< callback mode: run, then continue
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> sites_;
  std::unordered_map<std::string, uint64_t> hits_;
  std::atomic<int> armed_count_{0};
  std::atomic<bool> count_all_hits_{false};
  std::atomic<uint64_t> fired_count_{0};
};

/// RAII arming for tests: arms in the constructor, disarms in the
/// destructor (even when the test body throws or asserts).
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string site, Status status, int max_fires = -1)
      : site_(std::move(site)) {
    FailpointRegistry::Instance().Arm(site_, std::move(status), max_fires);
  }
  ~ScopedFailpoint() { FailpointRegistry::Instance().Disarm(site_); }

  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string site_;
};

}  // namespace wcop

/// Fault-injection boundary marker. Usable in any function returning Status
/// or Result<T> (both implicitly construct from a non-OK Status). Near-zero
/// cost when no failpoint is armed and hit counting is off: two relaxed
/// atomic loads.
#define WCOP_FAILPOINT(site)                                         \
  do {                                                               \
    if (::wcop::FailpointRegistry::Instance().active()) {            \
      ::wcop::Status _wcop_fp_status =                               \
          ::wcop::FailpointRegistry::Instance().Fire(site);          \
      if (!_wcop_fp_status.ok()) {                                   \
        return _wcop_fp_status;                                      \
      }                                                              \
    }                                                                \
  } while (false)

#endif  // WCOP_COMMON_FAILPOINT_H_
