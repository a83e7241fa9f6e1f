#include "server/service.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "anon/report_json.h"
#include "attack/audit.h"
#include "common/artifact_registry.h"
#include "common/failpoint.h"
#include "common/log.h"
#include "common/stopwatch.h"
#include "pipeline/continuous.h"
#include "store/shard_runner.h"
#include "store/store_file.h"
#include "traj/io.h"

namespace wcop {
namespace server {

namespace {

Status MakeDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir '" + path +
                           "': " + std::string(std::strerror(errno)));
  }
  return Status::OK();
}

/// Trace ids are minted from the job name (the idempotency key, unique per
/// job) so a crash-recovered job keeps the identity its first admission
/// minted, and every retry of the same job lands in the same trace.
std::string MintTraceId(std::string_view job_name) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const char c : job_name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return "wcop-job-" + std::string(buf);
}

/// Context fields every log line about a job carries.
log::ContextLogger JobLogger(const JobRecord& record) {
  return log::ContextLogger()
      .With({"job", record.id})
      .With({"name", record.spec.name})
      .With({"trace_id", record.trace_id});
}

}  // namespace

Result<std::unique_ptr<AnonymizationService>> AnonymizationService::Start(
    const ServiceOptions& options) {
  if (options.job_dir.empty()) {
    return Status::InvalidArgument("ServiceOptions.job_dir is required");
  }
  auto service =
      std::unique_ptr<AnonymizationService>(new AnonymizationService());
  service->options_ = options;
  service->options_.queue_capacity =
      std::max<size_t>(options.queue_capacity, 1);
  service->options_.workers = std::max(options.workers, 1);
  service->options_.job_threads = std::max(options.job_threads, 1);
  service->retry_ = options.store_retry;
  service->retry_.metrics = &service->telemetry_.metrics();

  WCOP_RETURN_IF_ERROR(MakeDir(options.job_dir));
  WCOP_RETURN_IF_ERROR(MakeDir(options.job_dir + "/out"));
  WCOP_RETURN_IF_ERROR(MakeDir(options.job_dir + "/traces"));
  // Trace files publish by write-tmp -> rename too; sweep their orphans.
  WCOP_ASSIGN_OR_RETURN(
      size_t traces_swept,
      store::SweepStaleArtifacts(options.job_dir + "/traces",
                                 &service->telemetry_));
  // Janitor pass over the default output directory: a kill between a
  // published CSV's write-tmp and its rename leaves an orphan that must
  // not be mistaken for output.
  WCOP_ASSIGN_OR_RETURN(
      size_t out_swept,
      store::SweepStaleArtifacts(options.job_dir + "/out",
                                 &service->telemetry_));
  service->telemetry_.metrics()
      .GetGauge("server.janitor.swept")
      ->Set(static_cast<double>(traces_swept + out_swept));
  WCOP_ASSIGN_OR_RETURN(
      service->ledger_,
      JobLedger::Open(options.job_dir + "/ledger", &service->telemetry_,
                      &service->retry_));
  // Durable-state health on /metrics: records the startup scan could not
  // trust (skipped, never silently re-run) and the artifacts it swept.
  service->telemetry_.metrics()
      .GetGauge("server.ledger.corrupt_records")
      ->Set(static_cast<double>(service->ledger_->corrupt_records()));
  service->queue_ = std::make_unique<BoundedQueue<int64_t>>(
      service->options_.queue_capacity);

  // Recovery: every job the previous life accepted but did not finish is
  // re-enqueued in admission (id) order, past the live capacity check —
  // recovered jobs were admitted once already.
  telemetry::Counter* recovered_counter =
      service->telemetry_.metrics().GetCounter("server.jobs.recovered");
  for (JobRecord& record : service->ledger_->Records()) {
    service->by_name_[record.spec.name] = record.id;
    if (record.state == JobState::kQueued ||
        record.state == JobState::kRunning) {
      record.state = JobState::kQueued;  // a mid-crash "running" job is
                                         // just queued work again
      service->admitted_at_[record.id] =
          std::chrono::steady_clock::now();
      ++service->outstanding_;  // no worker runs yet
      WCOP_RETURN_IF_ERROR(service->queue_->ForcePush(record.id));
      service->recovered_jobs_ += 1;
      recovered_counter->Add();
      if (record.trace_id.empty()) {
        // Record written before trace ids existed: mint now, same id every
        // recovery (derived from the name).
        record.trace_id = MintTraceId(record.spec.name);
      }
      JobLogger(record).Info("recovered unfinished job, re-enqueued");
    }
    service->jobs_[record.id] = std::move(record);
  }
  service->telemetry_.metrics()
      .GetGauge("server.queue.capacity")
      ->Set(static_cast<double>(service->options_.queue_capacity));
  service->telemetry_.metrics()
      .GetGauge("server.queue.depth")
      ->Set(static_cast<double>(service->queue_->size()));

  for (int i = 0; i < service->options_.workers; ++i) {
    service->workers_.emplace_back(&AnonymizationService::WorkerLoop,
                                   service.get());
  }
  return service;
}

AnonymizationService::~AnonymizationService() {
  BeginShutdown(/*drain=*/false);
  AwaitTermination();
}

void AnonymizationService::ApplyTenantPolicy(JobSpec* spec) const {
  const TenantPolicy* policy = &options_.default_policy;
  auto it = options_.tenants.find(spec->tenant);
  if (it != options_.tenants.end()) {
    policy = &it->second;
  }
  if (spec->assign_k == 0 && policy->default_k > 0) {
    spec->assign_k = policy->default_k;
  }
  if (spec->assign_delta <= 0.0 && policy->default_delta > 0.0) {
    spec->assign_delta = policy->default_delta;
  }
  if (spec->deadline_ms == 0) {
    spec->deadline_ms = policy->default_deadline_ms;
  }
  if (spec->max_distance_computations == 0) {
    spec->max_distance_computations =
        policy->default_max_distance_computations;
  }
  spec->allow_partial = spec->allow_partial || policy->allow_partial_default;
}

Result<int64_t> AnonymizationService::Submit(JobSpec spec) {
  telemetry::MetricsRegistry& metrics = telemetry_.metrics();
  // Status-injection window for admission-path fault tests.
  WCOP_FAILPOINT("server.admit");
  if (!accepting_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("service is shutting down");
  }
  if (Status s = ValidateJobSpec(spec); !s.ok()) {
    metrics.GetCounter("server.jobs.invalid")->Add();
    return s;
  }
  ApplyTenantPolicy(&spec);
  if (Status s = ValidateJobSpec(spec); !s.ok()) {
    // Tenant defaults are configuration, but they still pass the same
    // gate: a bad policy must not smuggle a bad job in.
    metrics.GetCounter("server.jobs.invalid")->Add();
    return s;
  }
  if (spec.output_csv.empty()) {
    spec.output_csv = spec.kind == "audit"
                          ? options_.job_dir + "/out/" + spec.name +
                                ".audit.json"
                          : DefaultOutputPath(spec.name);
  }
  if (spec.kind == "continuous" && spec.output_dir.empty()) {
    spec.output_dir = options_.job_dir + "/out/" + spec.name + ".windows";
  }

  // Request validation touches the input store once: it must open (valid
  // header + index) and be non-empty before we promise anything.
  Result<store::TrajectoryStoreReader> probe =
      RetryResultCall<store::TrajectoryStoreReader>(retry_, [&] {
        return store::TrajectoryStoreReader::Open(spec.input_store);
      });
  if (!probe.ok()) {
    metrics.GetCounter("server.jobs.invalid")->Add();
    return Status::InvalidArgument("input store rejected: " +
                                   probe.status().ToString());
  }
  if (probe->size() == 0) {
    metrics.GetCounter("server.jobs.invalid")->Add();
    return Status::InvalidArgument("input store is empty");
  }

  std::lock_guard<std::mutex> admit_lock(admit_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto existing = by_name_.find(spec.name);
    if (existing != by_name_.end()) {
      // Idempotent resubmit: the name is the dedup key, so a client that
      // crashed between submit and response can retry safely.
      metrics.GetCounter("server.jobs.deduped")->Add();
      return existing->second;
    }
  }
  if (queue_->size() >= queue_->capacity()) {
    // Explicit backpressure: reject now, loudly, rather than queueing
    // unboundedly or blocking the client.
    metrics.GetCounter("server.jobs.rejected")->Add();
    return Status::ResourceExhausted(
        "submission queue is at capacity (" +
        std::to_string(queue_->capacity()) + " jobs); retry later");
  }

  JobRecord record;
  record.state = JobState::kQueued;
  record.spec = std::move(spec);
  // Trace identity is part of admission: it is durable with the record,
  // so the job's whole life — including crash-recovered retries — shares
  // one trace id.
  record.trace_id = MintTraceId(record.spec.name);
  // Durable-before-visible: the ledger append is the acceptance point.
  // A crash after it re-enqueues the job on restart; a crash before it
  // means the client never got an id.
  WCOP_RETURN_IF_ERROR(ledger_->Append(&record));
  const int64_t id = record.id;
  log::Info("job accepted", {{"job", id},
                             {"name", record.spec.name},
                             {"tenant", record.spec.tenant},
                             {"trace_id", record.trace_id},
                             {"shards", record.spec.shards}});
  {
    std::lock_guard<std::mutex> lock(mu_);
    by_name_[record.spec.name] = id;
    admitted_at_[id] = std::chrono::steady_clock::now();
    jobs_[id] = std::move(record);
    // Counted before the push makes the job visible to a worker, which
    // releases it when done with it (WorkerLoop).
    ++outstanding_;
  }
  metrics.GetCounter("server.jobs.accepted")->Add();
  if (Status push = queue_->TryPush(id); !push.ok()) {
    // Shutdown raced the admission: the job is durable and will run on
    // the next start, which is exactly what "accepted" promises.
    log::Warn("job accepted but not scheduled; it will run on restart",
              {{"job", id}, {"status", push.ToString()}});
    {
      std::lock_guard<std::mutex> lock(mu_);
      --outstanding_;
    }
    idle_.notify_all();
  }
  metrics.GetGauge("server.queue.depth")
      ->Set(static_cast<double>(queue_->size()));
  return id;
}

Result<JobRecord> AnonymizationService::GetJob(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job with id " + std::to_string(id));
  }
  return it->second;
}

std::vector<JobRecord> AnonymizationService::Jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobRecord> out;
  out.reserve(jobs_.size());
  for (const auto& [id, record] : jobs_) {
    out.push_back(record);
  }
  return out;
}

AnonymizationService::Health AnonymizationService::GetHealth() const {
  Health health;
  health.accepting = accepting_.load(std::memory_order_relaxed);
  health.queued = queue_->size();
  health.running = running_.load(std::memory_order_relaxed);
  health.queue_capacity = queue_->capacity();
  health.recovered = recovered_jobs_;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, record] : jobs_) {
    if (record.state == JobState::kDone) {
      ++health.done;
    } else if (record.state == JobState::kFailed) {
      ++health.failed;
    }
  }
  return health;
}

void AnonymizationService::BeginShutdown(bool drain) {
  accepting_.store(false, std::memory_order_relaxed);
  if (!drain) {
    // Cooperative cancellation: running jobs trip at their next yield
    // point, flush their checkpoints, and are requeued unpublished.
    shutdown_token_.RequestCancellation();
  }
  queue_->Close(drain);
}

void AnonymizationService::AwaitTermination() {
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
}

void AnonymizationService::AwaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [&] { return outstanding_ == 0; });
}

void AnonymizationService::StoreRecord(const JobRecord& record) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_[record.id] = record;
  }
  idle_.notify_all();
}

std::string AnonymizationService::WorkDir(int64_t id) const {
  return options_.job_dir + "/work_" + std::to_string(id);
}

std::string AnonymizationService::DefaultOutputPath(
    const std::string& name) const {
  return options_.job_dir + "/out/" + name + ".csv";
}

Status AnonymizationService::PersistTransition(const JobRecord& record,
                                               const char* site) {
  WCOP_FAILPOINT(site);
  return ledger_->Update(record);
}

void AnonymizationService::WorkerLoop() {
  telemetry::Gauge* depth =
      telemetry_.metrics().GetGauge("server.queue.depth");
  while (std::optional<int64_t> id = queue_->Pop()) {
    depth->Set(static_cast<double>(queue_->size()));
    ProcessJob(*id);
    // Released only once the worker is done with the job, whichever way
    // ProcessJob returned: AwaitIdle never sees a popped job as finished
    // while it is still kQueued or kRunning.
    {
      std::lock_guard<std::mutex> lock(mu_);
      --outstanding_;
    }
    idle_.notify_all();
  }
}

void AnonymizationService::ProcessJob(int64_t id) {
  telemetry::MetricsRegistry& metrics = telemetry_.metrics();
  JobRecord record;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return;
    }
    record = it->second;
  }
  if (record.state == JobState::kDone || record.state == JobState::kFailed) {
    return;  // stale queue entry (deduped resubmit of a finished job)
  }
  if (shutdown_token_.cancellation_requested()) {
    // Immediate shutdown won the race to this job: leave it queued in the
    // ledger for the next start.
    return;
  }
  running_.fetch_add(1, std::memory_order_relaxed);

  record.state = JobState::kRunning;
  record.attempts += 1;
  if (record.trace_id.empty()) {
    record.trace_id = MintTraceId(record.spec.name);
  }
  const log::ContextLogger jlog = JobLogger(record);
  // The job's own telemetry bundle: its span buffer becomes the
  // persisted trace, its metrics roll up into the service registry once
  // the job finishes (either way).
  telemetry::Telemetry job_tel;
  job_tel.trace().set_trace_id(record.trace_id);
  Status run = PersistTransition(record, "server.job_claim");
  if (run.ok()) {
    StoreRecord(record);
    jlog.Info("job running", {{"attempt", record.attempts},
                              {"shards", record.spec.shards}});
    Stopwatch timer;
    run = ExecuteJob(&record, &job_tel);
    metrics.GetHistogram("server.job.exec_ns")
        ->Record(static_cast<uint64_t>(timer.ElapsedSeconds() * 1e9));
    telemetry::AccumulateSnapshot(&metrics, job_tel.metrics().Snapshot());
    PersistJobTrace(record.id, job_tel);
  }

  if (run.ok()) {
    record.state = JobState::kDone;
    metrics.GetCounter("server.jobs.completed")->Add();
    if (record.outcome.degraded) {
      metrics.GetCounter("server.jobs.degraded")->Add();
    }
    jlog.Info("job done",
              {{"published", record.outcome.published},
               {"clusters", record.outcome.clusters},
               {"degraded", record.outcome.degraded},
               {"resumed_shards", record.outcome.resumed_shards}});
  } else if (run.code() == StatusCode::kCancelled &&
             shutdown_token_.cancellation_requested()) {
    // Service teardown, not a job failure: requeue for the next life.
    record.state = JobState::kQueued;
    record.outcome = JobOutcome{};
    record.progress = JobProgress{};
    metrics.GetCounter("server.jobs.requeued")->Add();
    jlog.Info("job requeued by shutdown");
    if (Status s = ledger_->Update(record); !s.ok()) {
      // Best-effort: a still-"running" ledger record recovers the same
      // way a requeued one does.
      jlog.Warn("requeue not recorded in ledger",
                {{"status", s.ToString()}});
    }
    StoreRecord(record);
    running_.fetch_sub(1, std::memory_order_relaxed);
    return;
  } else {
    record.state = JobState::kFailed;
    record.outcome.error = run.ToString();
    metrics.GetCounter("server.jobs.failed")->Add();
    if (run.code() == StatusCode::kDeadlineExceeded) {
      metrics.GetCounter("server.jobs.deadline_exceeded")->Add();
    }
    jlog.Error("job failed", {{"status", run.ToString()},
                              {"attempt", record.attempts}});
  }
  if (Status fin = PersistTransition(record, "server.job_done");
      !fin.ok()) {
    // The terminal state is in memory but not durable; a restart re-runs
    // the job, which is idempotent (deterministic output, atomic
    // publish).
    jlog.Warn("final ledger write failed; job will re-run on restart",
              {{"status", fin.ToString()}});
  }
  StoreRecord(record);
  running_.fetch_sub(1, std::memory_order_relaxed);
}

std::string AnonymizationService::TracePath(int64_t id) const {
  return options_.job_dir + "/traces/job_" + std::to_string(id) + ".json";
}

void AnonymizationService::PersistJobTrace(
    int64_t id, const telemetry::Telemetry& job_tel) {
  // Same atomic-publish discipline as every other artifact: the served
  // path either holds a complete JSON document or nothing.
  const std::string path = TracePath(id);
  const std::string tmp = path + ".tmp";
  if (Status s = job_tel.WriteChromeTrace(tmp); !s.ok()) {
    log::Warn("job trace not persisted",
              {{"job", id}, {"status", s.ToString()}});
    return;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    log::Warn("job trace rename failed",
              {{"job", id}, {"error", std::strerror(errno)}});
    std::remove(tmp.c_str());
  }
}

Status AnonymizationService::MaterializeWithRequirements(
    const JobSpec& spec, const std::string& path) const {
  WCOP_ASSIGN_OR_RETURN(
      store::TrajectoryStoreReader reader,
      RetryResultCall<store::TrajectoryStoreReader>(retry_, [&] {
        return store::TrajectoryStoreReader::Open(spec.input_store);
      }));
  WCOP_ASSIGN_OR_RETURN(store::TrajectoryStoreWriter writer,
                        store::TrajectoryStoreWriter::Create(path));
  for (size_t i = 0; i < reader.size(); ++i) {
    WCOP_ASSIGN_OR_RETURN(Trajectory t, reader.Read(i));
    Requirement req;
    req.k = spec.assign_k;
    req.delta =
        spec.assign_delta > 0.0 ? spec.assign_delta : t.requirement().delta;
    t.set_requirement(req);
    WCOP_RETURN_IF_ERROR(writer.Append(t));
  }
  return writer.Finish();
}

Status AnonymizationService::ExecuteJob(JobRecord* record,
                                        telemetry::Telemetry* job_tel) {
  const JobSpec& spec = record->spec;
  WCOP_TRACE_SPAN(job_tel, "server/job");

  RunContext ctx;
  ctx.set_trace_id(record->trace_id);
  ctx.set_cancellation_token(shutdown_token_);
  if (spec.deadline_ms > 0) {
    // The deadline clock started at admission: time spent waiting in the
    // queue counts, so an overloaded service fails deadlined jobs fast
    // instead of running them pointlessly late.
    std::chrono::steady_clock::time_point admitted;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = admitted_at_.find(record->id);
      admitted = it != admitted_at_.end()
                     ? it->second
                     : std::chrono::steady_clock::now();
    }
    const auto total = std::chrono::milliseconds(spec.deadline_ms);
    const auto elapsed = std::chrono::steady_clock::now() - admitted;
    if (elapsed >= total) {
      return Status::DeadlineExceeded("job deadline (" +
                                      std::to_string(spec.deadline_ms) +
                                      " ms) expired while queued");
    }
    ctx.set_deadline_after(
        std::chrono::duration_cast<std::chrono::nanoseconds>(total -
                                                             elapsed));
  }
  if (spec.max_distance_computations > 0) {
    ResourceBudget budget;
    budget.max_distance_computations = spec.max_distance_computations;
    ctx.set_budget(budget);
  }

  const std::string work_dir = WorkDir(record->id);
  WCOP_RETURN_IF_ERROR(MakeDir(work_dir));
  WCOP_FAILPOINT("server.job_prepare");

  std::string input_path = spec.input_store;
  // Audit jobs measure the publication as-is: a requirement override (or
  // a tenant default_k) must not rewrite what the red team sees.
  if (spec.assign_k > 0 && spec.kind != "audit") {
    input_path = work_dir + "/input.wst";
    WCOP_RETURN_IF_ERROR(MaterializeWithRequirements(spec, input_path));
  }
  if (spec.kind == "continuous") {
    return ExecuteContinuousJob(record, job_tel, &ctx, input_path);
  }
  if (spec.kind == "audit") {
    return ExecuteAuditJob(record, job_tel, &ctx, input_path);
  }

  WCOP_ASSIGN_OR_RETURN(
      store::TrajectoryStoreReader reader,
      RetryResultCall<store::TrajectoryStoreReader>(retry_, [&] {
        return store::TrajectoryStoreReader::Open(input_path);
      }));

  store::ShardRunOptions run;
  run.wcop.seed = spec.seed;
  run.wcop.threads = options_.job_threads;
  run.wcop.run_context = &ctx;
  run.wcop.telemetry = job_tel;
  run.wcop.allow_partial_results = spec.allow_partial;
  run.partition.num_shards = spec.shards;
  run.partition.overlap_margin = spec.overlap_margin;
  // Per-job checkpoints are what make kill -9 cheap: a restarted job
  // resumes past every shard that already finished.
  run.checkpoint_dir = work_dir + "/ckpt";
  run.verify_shards = options_.verify_jobs;

  // Live progress: every completed shard updates the in-memory record
  // (what GET /jobs/<id> serves) and the service progress gauges. The
  // shard runner serializes callbacks, so shards_done is monotone.
  telemetry::MetricsRegistry& metrics = telemetry_.metrics();
  telemetry::Gauge* g_done = metrics.GetGauge("server.progress.shards_done");
  telemetry::Gauge* g_total =
      metrics.GetGauge("server.progress.shards_total");
  telemetry::Gauge* g_distance =
      metrics.GetGauge("server.progress.distance_calls");
  telemetry::Gauge* g_eta = metrics.GetGauge("server.progress.eta_seconds");
  Stopwatch progress_timer;
  run.progress = [&](const store::ShardProgress& p) {
    JobProgress jp;
    jp.shards_done = p.shards_done;
    jp.shards_total = p.shards_total;
    jp.distance_calls = p.distance_calls;
    if (p.shards_done > 0 && p.shards_done < p.shards_total) {
      const double elapsed = progress_timer.ElapsedSeconds();
      jp.eta_seconds = elapsed / static_cast<double>(p.shards_done) *
                       static_cast<double>(p.shards_total - p.shards_done);
    }
    record->progress = jp;  // worker-local copy; safe, callbacks serialized
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = jobs_.find(record->id);
      if (it != jobs_.end()) {
        it->second.progress = jp;
      }
    }
    g_done->Set(static_cast<double>(jp.shards_done));
    g_total->Set(static_cast<double>(jp.shards_total));
    g_distance->Set(static_cast<double>(jp.distance_calls));
    g_eta->Set(jp.eta_seconds);
  };

  Result<store::ShardedRunResult> result =
      store::RunShardedWcopCt(reader, run);
  WCOP_RETURN_IF_ERROR(result.status());
  if (shutdown_token_.cancellation_requested()) {
    // The run finished (possibly degraded) under the shutdown token, but
    // teardown must never publish: the job requeues and republishes
    // deterministically on the next start.
    return Status::Cancelled("service shutting down before publication");
  }
  if (!result->all_verified) {
    return Status::Internal(
        "anonymity audit rejected the output; nothing published");
  }

  JobOutcome* out = &record->outcome;
  const AnonymizationReport& report = result->merged.report;
  out->degraded = report.degraded;
  out->degraded_reason = report.degraded_reason;
  out->verified = options_.verify_jobs;
  out->published = result->merged.sanitized.size();
  out->suppressed = report.trashed_trajectories;
  out->clusters = report.num_clusters;
  out->total_distortion = report.total_distortion;
  out->resumed_shards = result->resumed_shards;

  // Atomic publication: the output path never holds partial bytes, and a
  // kill between the tmp write and the rename leaves an orphan the
  // startup janitor sweeps.
  const std::string tmp = spec.output_csv + ".tmp";
  // Visible to the in-process janitor as live for the duration of the
  // publish, so no sweep can tear it out from under the rename.
  const ScopedLiveArtifact live_tmp(tmp);
  WCOP_RETURN_IF_ERROR(RetryCall(retry_, [&] {
    return WriteDatasetCsv(result->merged.sanitized, tmp);
  }));
  WCOP_FAILPOINT("server.job_output");
  if (std::rename(tmp.c_str(), spec.output_csv.c_str()) != 0) {
    return Status::IoError("rename '" + tmp + "' -> '" + spec.output_csv +
                           "': " + std::string(std::strerror(errno)));
  }
  WCOP_FAILPOINT("server.job_commit");
  return Status::OK();
}

Status AnonymizationService::ExecuteContinuousJob(
    JobRecord* record, telemetry::Telemetry* job_tel, RunContext* ctx,
    const std::string& input_path) {
  const JobSpec& spec = record->spec;
  WCOP_TRACE_SPAN(job_tel, "server/continuous_job");

  pipeline::ContinuousPipelineOptions popts;
  popts.source_store = input_path;
  popts.output_dir = spec.output_dir;
  popts.window_seconds = spec.window_seconds;
  // Always resume: the output dir is job-private and windows are
  // deterministic, so a crash-recovered attempt adopts every window the
  // previous life committed instead of recomputing it.
  popts.resume = true;
  popts.wcop.seed = spec.seed;
  popts.wcop.threads = options_.job_threads;
  popts.wcop.run_context = ctx;
  popts.wcop.telemetry = job_tel;
  popts.wcop.allow_partial_results = spec.allow_partial;
  popts.partition.num_shards = spec.shards;
  popts.partition.overlap_margin = spec.overlap_margin;
  popts.verify_shards = options_.verify_jobs;
  popts.publish_retry = &retry_;

  // Live window progress: the record reuses its shard fields window-wise
  // (what GET /jobs/<id> serves) and the service registry carries the
  // pipeline.* gauges for /metrics.
  telemetry::MetricsRegistry& metrics = telemetry_.metrics();
  telemetry::Gauge* g_done = metrics.GetGauge("pipeline.windows_done");
  telemetry::Gauge* g_total = metrics.GetGauge("pipeline.windows_total");
  telemetry::Gauge* g_published =
      metrics.GetGauge("pipeline.published_fragments");
  telemetry::Gauge* g_carry = metrics.GetGauge("pipeline.carry_records");
  Stopwatch progress_timer;
  popts.progress = [&](const pipeline::PipelineProgress& p) {
    JobProgress jp;
    jp.shards_done = p.windows_done;
    jp.shards_total = p.windows_total;
    if (p.windows_done > 0 && p.windows_done < p.windows_total) {
      const double elapsed = progress_timer.ElapsedSeconds();
      jp.eta_seconds =
          elapsed / static_cast<double>(p.windows_done) *
          static_cast<double>(p.windows_total - p.windows_done);
    }
    record->progress = jp;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = jobs_.find(record->id);
      if (it != jobs_.end()) {
        it->second.progress = jp;
      }
    }
    g_done->Set(static_cast<double>(p.windows_done));
    g_total->Set(static_cast<double>(p.windows_total));
    g_published->Set(static_cast<double>(p.published_fragments));
    g_carry->Set(static_cast<double>(p.carried));
  };

  WCOP_ASSIGN_OR_RETURN(pipeline::ContinuousPipelineResult result,
                        pipeline::RunContinuousPipeline(popts));

  JobOutcome* out = &record->outcome;
  out->degraded = result.degraded;
  out->verified = options_.verify_jobs;
  out->published = result.published_fragments;
  out->suppressed = result.suppressed_fragments;
  out->clusters = result.total_clusters;
  out->total_distortion = result.total_ttd;
  out->resumed_shards = result.resumed_windows;
  WCOP_FAILPOINT("server.job_commit");
  return Status::OK();
}

Status AnonymizationService::ExecuteAuditJob(JobRecord* record,
                                             telemetry::Telemetry* job_tel,
                                             RunContext* ctx,
                                             const std::string& input_path) {
  const JobSpec& spec = record->spec;
  WCOP_TRACE_SPAN(job_tel, "server/audit_job");

  attack::AuditOptions aopts;
  WCOP_ASSIGN_OR_RETURN(aopts.adversary,
                        attack::AdversaryPreset(spec.audit_adversary));
  aopts.adversary.seed = spec.seed;
  if (spec.audit_windows_dir.empty()) {
    // Single release: the job's input store is the publication under
    // audit; the optional original enables re-identification.
    aopts.published_store = input_path;
    aopts.original_store = spec.audit_original_store;
  } else {
    // Continuous: audit the window directory against the source store the
    // windows were published from.
    aopts.windows_dir = spec.audit_windows_dir;
    aopts.original_store = input_path;
  }
  aopts.victims = static_cast<size_t>(spec.audit_victims);
  aopts.threads = options_.job_threads;
  aopts.run_context = ctx;
  aopts.telemetry = job_tel;

  // Live progress: attacked units update the record (GET /jobs/<id>, the
  // wcop_top AUDIT column) and the service attack.progress.* gauges.
  telemetry::MetricsRegistry& metrics = telemetry_.metrics();
  telemetry::Gauge* g_done = metrics.GetGauge("attack.progress.done");
  telemetry::Gauge* g_total = metrics.GetGauge("attack.progress.total");
  Stopwatch progress_timer;
  aopts.progress = [&](const char* phase, size_t done, size_t total) {
    (void)phase;
    JobProgress jp;
    jp.shards_done = done;
    jp.shards_total = total;
    if (done > 0 && done < total) {
      const double elapsed = progress_timer.ElapsedSeconds();
      jp.eta_seconds = elapsed / static_cast<double>(done) *
                       static_cast<double>(total - done);
    }
    record->progress = jp;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = jobs_.find(record->id);
      if (it != jobs_.end()) {
        it->second.progress = jp;
      }
    }
    g_done->Set(static_cast<double>(done));
    g_total->Set(static_cast<double>(total));
  };

  WCOP_ASSIGN_OR_RETURN(attack::AuditReport report, attack::RunAudit(aopts));
  if (shutdown_token_.cancellation_requested()) {
    return Status::Cancelled("service shutting down before publication");
  }

  // Outcome mapping: `published` counts audited users, `verified` means
  // the publication delivered every requested k (no effective-k
  // violations and nothing re-identified above the 1/k floor is not
  // checkable here, so violations are the gate). A windows-mode audit
  // reports the publication's own suppressed fragments and clusters from
  // its manifests, as the continuous job that published it did; a single
  // release has no manifests, so `suppressed` counts the victims with
  // nothing to link to.
  JobOutcome* out = &record->outcome;
  out->published = report.has_effective_k
                       ? report.effective_k.users_measured
                       : report.reident.victims_attacked;
  if (report.has_distortion) {
    out->suppressed = report.distortion.suppressed_fragments;
    out->clusters = report.distortion.clusters;
  } else {
    out->suppressed =
        report.has_reident ? report.reident.victims_suppressed : 0;
  }
  out->verified = report.has_effective_k &&
                  report.effective_k.violation_fraction == 0.0;
  out->total_distortion = report.has_distortion ? report.distortion.ttd : 0.0;

  // Atomic publication of the report JSON (same tmp + rename + janitor
  // protocol as batch CSV output).
  const std::string tmp = spec.output_csv + ".tmp";
  const ScopedLiveArtifact live_tmp(tmp);
  WCOP_RETURN_IF_ERROR(RetryCall(retry_, [&] {
    return WriteJsonFile(attack::AuditReportToJson(report), tmp);
  }));
  WCOP_FAILPOINT("server.job_output");
  if (std::rename(tmp.c_str(), spec.output_csv.c_str()) != 0) {
    return Status::IoError("rename '" + tmp + "' -> '" + spec.output_csv +
                           "': " + std::string(std::strerror(errno)));
  }
  WCOP_FAILPOINT("server.job_commit");
  return Status::OK();
}

}  // namespace server
}  // namespace wcop
