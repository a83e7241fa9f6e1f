#ifndef WCOP_SERVER_SERVICE_H_
#define WCOP_SERVER_SERVICE_H_

/// wcop::server::AnonymizationService — the long-running anonymization
/// daemon's core (DESIGN.md "Service operation & fault tolerance").
///
/// Clients submit trajectory-batch jobs (JobSpec); the service validates
/// them, applies per-tenant (k, delta) policy defaults, records them in
/// the durable job ledger, and executes them through the sharded
/// store-runner pipeline on a worker pool fed by a bounded submission
/// queue. The moving parts and their guarantees:
///
///  * Admission control / backpressure: the queue is bounded; a submit
///    beyond capacity is rejected fast with kResourceExhausted (HTTP 429
///    at the endpoint), never silently dropped or blocked.
///  * Deadlines & budgets: each job runs under a RunContext carrying its
///    deadline (measured from admission, so queue wait counts) and its
///    distance-computation budget slice. Jobs with allow_partial degrade
///    gracefully (flagged `degraded`); without it they fail with
///    kDeadlineExceeded and publish nothing — never partial silent output.
///  * Durability: ledger-write-before-enqueue means an accepted job
///    survives kill -9 at any instant. On Start the service sweeps stale
///    `*.tmp` artifacts, reloads the ledger, and re-enqueues every
///    queued/running job (in admission order, bypassing live capacity).
///    Execution is deterministic and output publication is an atomic
///    rename, so a resumed job converges to byte-identical output, fast:
///    per-job shard checkpoints skip already-anonymized shards.
///  * Idempotency: the job name is a dedup key; resubmitting a known name
///    returns the existing job, making client retries after a crash safe.
///  * Shutdown: drain (finish the queue, then stop) or immediate (cancel
///    running jobs through the shared cancellation token — they flush
///    their checkpoints, are requeued in the ledger, and publish nothing).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "common/run_context.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "server/bounded_queue.h"
#include "server/job.h"
#include "server/job_ledger.h"

namespace wcop {
namespace server {

/// Per-tenant defaults applied at admission to fields the client left
/// unset (0 / false). `allow_partial_default` is OR-ed in: a tenant can
/// opt into graceful degradation service-side.
struct TenantPolicy {
  int default_k = 0;
  double default_delta = 0.0;
  int64_t default_deadline_ms = 0;
  uint64_t default_max_distance_computations = 0;
  bool allow_partial_default = false;
};

struct ServiceOptions {
  /// Root of all service state: ledger records, per-job work dirs,
  /// default outputs. Required; created if missing.
  std::string job_dir;

  /// Bounded submission queue capacity — the backpressure knob.
  size_t queue_capacity = 8;

  /// Worker threads executing jobs (each job runs its own pipeline with
  /// `job_threads` WCOP threads).
  int workers = 1;
  int job_threads = 1;

  /// Audit every job's output with the anonymity verifier before
  /// publication (jobs whose audit fails are failed, never published).
  bool verify_jobs = true;

  /// Retry policy for store/ledger I/O (metrics sink is wired by the
  /// service to its own registry).
  RetryPolicy store_retry;

  /// Policy for requests whose tenant is absent from `tenants`.
  TenantPolicy default_policy;
  std::map<std::string, TenantPolicy> tenants;
};

class AnonymizationService {
 public:
  /// Opens the ledger, sweeps stale artifacts, re-enqueues every
  /// unfinished job from a previous life, and starts the worker pool.
  static Result<std::unique_ptr<AnonymizationService>> Start(
      const ServiceOptions& options);

  ~AnonymizationService();

  AnonymizationService(const AnonymizationService&) = delete;
  AnonymizationService& operator=(const AnonymizationService&) = delete;

  /// Admission: validate -> tenant policy -> dedup by name -> durable
  /// ledger append -> enqueue. Returns the job id (a resubmitted name
  /// returns the existing job's id). kResourceExhausted = queue full;
  /// kInvalidArgument = rejected by validation; kFailedPrecondition =
  /// shutting down.
  Result<int64_t> Submit(JobSpec spec);

  Result<JobRecord> GetJob(int64_t id) const;
  std::vector<JobRecord> Jobs() const;

  struct Health {
    bool accepting = false;
    size_t queued = 0;
    size_t running = 0;
    size_t done = 0;
    size_t failed = 0;
    size_t queue_capacity = 0;
    size_t recovered = 0;  ///< jobs re-enqueued from the ledger at Start
  };
  Health GetHealth() const;

  telemetry::Telemetry& telemetry() { return telemetry_; }
  size_t recovered_jobs() const { return recovered_jobs_; }
  const std::string& job_dir() const { return options_.job_dir; }

  /// Where the job's persisted Chrome trace JSON lives
  /// (<job_dir>/traces/job_<id>.json); the file exists once the job has
  /// executed at least once. Served by GET /jobs/<id>/trace.
  std::string TracePath(int64_t id) const;

  /// Stops intake. drain=true finishes every queued job first;
  /// drain=false cancels running jobs (requeued, nothing published) and
  /// abandons the queue (ledger re-enqueues those jobs on next Start).
  void BeginShutdown(bool drain);

  /// Joins the worker pool. Call after BeginShutdown.
  void AwaitTermination();

  /// Test/drain helper: blocks until every job handed to the queue has been
  /// taken and released by a worker (the model is Python's
  /// Queue.task_done/join). Jobs abandoned in the queue by an immediate
  /// shutdown stay outstanding.
  void AwaitIdle();

 private:
  AnonymizationService() = default;

  void ApplyTenantPolicy(JobSpec* spec) const;
  void WorkerLoop();
  /// Runs one popped job to its next durable state (done, failed or
  /// requeued), or returns at once for a stale or shutdown-abandoned entry.
  void ProcessJob(int64_t id);
  /// One ledger transition with its failpoint window; Status-returning so
  /// WCOP_FAILPOINT can inject errors.
  Status PersistTransition(const JobRecord& record, const char* site);
  /// Runs one claimed job end to end: context, input prep, sharded run,
  /// audit gate, atomic publish. Fills record->outcome and updates the
  /// in-memory record's progress live from the shard runner. `job_tel` is
  /// the job's own telemetry bundle: its spans become the persisted trace,
  /// its metrics roll up into the service registry afterwards.
  Status ExecuteJob(JobRecord* record, telemetry::Telemetry* job_tel);
  /// Continuous-kind execution: runs the windowed publication pipeline
  /// (pipeline/continuous.h) over the prepared input store with
  /// resume = true, so a crash-recovered job adopts its already-published
  /// windows. Publishes pipeline.* progress gauges on the service registry.
  Status ExecuteContinuousJob(JobRecord* record,
                              telemetry::Telemetry* job_tel,
                              RunContext* ctx,
                              const std::string& input_path);
  /// Audit-kind execution: runs the privacy red team (attack/audit.h)
  /// against the published store / window directory named by the spec and
  /// atomically publishes the AuditReport JSON to output_csv. The job's
  /// attack.* metrics roll up into the service registry and are served by
  /// GET /metrics like every other job's.
  Status ExecuteAuditJob(JobRecord* record, telemetry::Telemetry* job_tel,
                         RunContext* ctx, const std::string& input_path);
  /// Atomically writes the job's Chrome trace JSON beside the ledger
  /// (<job_dir>/traces/job_<id>.json); best-effort, logs on failure.
  void PersistJobTrace(int64_t id, const telemetry::Telemetry& job_tel);
  /// Rewrites the input store with every requirement replaced by the
  /// spec's (assign_k, assign_delta) — the materialization of a tenant /
  /// request (k, delta) override. Deterministic, so a crashed job re-runs
  /// it to identical bytes.
  Status MaterializeWithRequirements(const JobSpec& spec,
                                     const std::string& path) const;
  void StoreRecord(const JobRecord& record);
  std::string WorkDir(int64_t id) const;
  std::string DefaultOutputPath(const std::string& name) const;

  ServiceOptions options_;
  telemetry::Telemetry telemetry_;
  RetryPolicy retry_;  ///< options_.store_retry with metrics wired
  std::unique_ptr<JobLedger> ledger_;
  std::unique_ptr<BoundedQueue<int64_t>> queue_;
  CancellationToken shutdown_token_;
  std::vector<std::thread> workers_;
  size_t recovered_jobs_ = 0;

  std::atomic<bool> accepting_{true};
  std::atomic<size_t> running_{0};

  mutable std::mutex mu_;
  std::condition_variable idle_;
  /// Jobs pushed to the queue and not yet released by a worker; guarded by
  /// mu_. AwaitIdle waits for zero.
  size_t outstanding_ = 0;
  std::map<int64_t, JobRecord> jobs_;
  std::unordered_map<std::string, int64_t> by_name_;
  std::unordered_map<int64_t, std::chrono::steady_clock::time_point>
      admitted_at_;

  /// Serializes the capacity-check + append + enqueue admission step so
  /// concurrent submits cannot oversubscribe the queue between check and
  /// push.
  std::mutex admit_mu_;
};

}  // namespace server
}  // namespace wcop

#endif  // WCOP_SERVER_SERVICE_H_
