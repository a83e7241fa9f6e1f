#ifndef WCOP_COMMON_RUN_CONTEXT_H_
#define WCOP_COMMON_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/status.h"

namespace wcop {

/// Cooperative cancellation handle in the std::stop_token tradition.
///
/// Copies share one flag: a service thread keeps a copy and calls
/// RequestCancellation() while the worker polls cancellation_requested()
/// (through RunContext::Check) at per-cluster / per-trajectory granularity.
/// All operations are thread-safe and lock-free.
class CancellationToken {
 public:
  CancellationToken() : cancelled_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Requests cancellation; idempotent, callable from any thread.
  void RequestCancellation() {
    cancelled_->store(true, std::memory_order_relaxed);
  }

  bool cancellation_requested() const {
    return cancelled_->load(std::memory_order_relaxed);
  }

 private:
  friend class RunContext;
  explicit CancellationToken(std::shared_ptr<std::atomic<bool>> cancelled)
      : cancelled_(std::move(cancelled)) {}

  std::shared_ptr<std::atomic<bool>> cancelled_;
};

/// Hard caps on the superlinear cost drivers of the pipeline. A value of 0
/// means "unlimited". The caps bound *work*, not memory directly, but the
/// distance matrix and the candidate-pair pools are exactly the structures
/// that grow quadratically with |D|.
struct ResourceBudget {
  uint64_t max_distance_computations = 0;  ///< pairwise trajectory distances
  uint64_t max_candidate_pairs = 0;        ///< pivot-candidate pool entries
};

/// Cross-cutting execution context threaded (as an optional const pointer)
/// through the hot loops of the WCOP pipeline: a monotonic deadline, a
/// cooperative cancellation token, and a resource budget.
///
/// Long-running phases call Check() at natural yield points (per cluster,
/// per trajectory, per window, per file) and propagate the non-OK Status;
/// drivers with `WcopOptions::allow_partial_results` instead degrade
/// gracefully (see DESIGN.md "Robustness"). A null RunContext pointer means
/// "unbounded" everywhere, so existing call sites keep their behaviour.
///
/// The charge counters are mutable atomics so that a `const RunContext*`
/// can be shared across helper layers; the object itself is not copyable.
class RunContext {
 public:
  using Clock = std::chrono::steady_clock;

  RunContext() = default;
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Sets an absolute monotonic deadline.
  void set_deadline(Clock::time_point deadline) { deadline_ = deadline; }

  /// Sets the deadline `budget` from now.
  void set_deadline_after(std::chrono::nanoseconds budget) {
    deadline_ = Clock::now() + budget;
  }

  void clear_deadline() { deadline_.reset(); }
  bool has_deadline() const { return deadline_.has_value(); }

  /// The absolute deadline, if any — lets a coordinator derive per-shard
  /// child contexts that share the parent's wall-clock bound.
  std::optional<Clock::time_point> deadline() const { return deadline_; }

  bool deadline_exceeded() const {
    return deadline_.has_value() && Clock::now() >= *deadline_;
  }

  /// Attaches a cancellation token (a copy; the caller keeps the original
  /// to request cancellation from another thread).
  void set_cancellation_token(CancellationToken token) {
    cancelled_ = std::move(token.cancelled_);
  }

  bool cancelled() const {
    return cancelled_ != nullptr &&
           cancelled_->load(std::memory_order_relaxed);
  }

  /// The attached token, if any (a copy shares the underlying flag) — lets
  /// a coordinator propagate one cancellation signal to child contexts.
  std::optional<CancellationToken> cancellation_token() const {
    if (cancelled_ == nullptr) {
      return std::nullopt;
    }
    return CancellationToken(cancelled_);
  }

  void set_budget(ResourceBudget budget) { budget_ = budget; }
  const ResourceBudget& budget() const { return budget_; }

  /// Records `n` pairwise distance computations against the budget.
  void ChargeDistance(uint64_t n = 1) const {
    distance_computations_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Records `n` candidate-pair pool entries against the budget.
  void ChargeCandidatePairs(uint64_t n = 1) const {
    candidate_pairs_.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t distance_computations() const {
    return distance_computations_.load(std::memory_order_relaxed);
  }
  uint64_t candidate_pairs() const {
    return candidate_pairs_.load(std::memory_order_relaxed);
  }

  bool budget_exhausted() const {
    return (budget_.max_distance_computations != 0 &&
            distance_computations() > budget_.max_distance_computations) ||
           (budget_.max_candidate_pairs != 0 &&
            candidate_pairs() > budget_.max_candidate_pairs);
  }

  /// Trace identity (DESIGN.md §7): minted once at job admission and
  /// propagated — through child contexts derived by the shard runner —
  /// so every span buffer produced under this context can be correlated
  /// into one timeline. Empty = no trace. Set before the run starts;
  /// read-only (and therefore safe) once worker threads share the context.
  void set_trace_id(std::string id) { trace_id_ = std::move(id); }
  const std::string& trace_id() const { return trace_id_; }

  /// The cooperative yield point: OK while the run may continue, otherwise
  /// the most urgent trip reason — kCancelled before kDeadlineExceeded
  /// before kResourceExhausted.
  Status Check() const;

 private:
  std::string trace_id_;
  std::optional<Clock::time_point> deadline_;
  /// The attached token's shared flag; null when none is attached. Held
  /// bare rather than as an optional token: GCC 12 misreads the optional's
  /// move-assignment as a read of an uninitialized shared_ptr.
  std::shared_ptr<std::atomic<bool>> cancelled_;
  ResourceBudget budget_;
  mutable std::atomic<uint64_t> distance_computations_{0};
  mutable std::atomic<uint64_t> candidate_pairs_{0};
};

/// Check() through an optional context: null means unbounded (always OK).
inline Status CheckRunContext(const RunContext* context) {
  return context == nullptr ? Status::OK() : context->Check();
}

}  // namespace wcop

#endif  // WCOP_COMMON_RUN_CONTEXT_H_
