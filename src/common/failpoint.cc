#include "common/failpoint.h"

#include <signal.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/text_codec.h"

namespace wcop {

namespace {

/// Trims ASCII whitespace from both ends of `s`.
std::string_view Trim(std::string_view s) {
  auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

/// The errno names injectable from a WCOP_FAILPOINTS spec. Covers the
/// failures a publish sequence realistically meets: full disk, device
/// error, quota, permissions, fd exhaustion. Returns 0 for unknown names.
int ErrnoFromName(std::string_view name) {
  if (name == "ENOSPC") return ENOSPC;
  if (name == "EIO") return EIO;
  if (name == "EDQUOT") return EDQUOT;
  if (name == "EACCES") return EACCES;
  if (name == "EMFILE") return EMFILE;
  return 0;
}

const char* ErrnoName(int errno_value) {
  switch (errno_value) {
    case ENOSPC: return "ENOSPC";
    case EIO: return "EIO";
    case EDQUOT: return "EDQUOT";
    case EACCES: return "EACCES";
    case EMFILE: return "EMFILE";
    default: return "errno";
  }
}

}  // namespace

FailpointRegistry& FailpointRegistry::Instance() {
  static FailpointRegistry* registry = new FailpointRegistry();
  return *registry;
}

FailpointRegistry::FailpointRegistry() {
  // Environment-driven arming: WCOP_FAILPOINTS="site1,site2:abort@3" arms
  // each listed site (see the class comment for the segment syntax). Lets a
  // whole test binary (or a staging deployment, or the crash-recovery
  // harness's child process) run under injected faults without recompiling.
  const char* env = std::getenv("WCOP_FAILPOINTS");
  if (env == nullptr || *env == '\0') {
    return;
  }
  Status status = ArmFromSpec(env);
  if (!status.ok()) {
    // Fault injection is only ever requested explicitly. Running on despite
    // a typo would execute a chaos test with no faults armed — a silent
    // false-green — so a malformed spec is fatal, not a warning.
    std::fprintf(stderr, "WCOP_FAILPOINTS: %s\n", status.ToString().c_str());
    std::_Exit(2);
  }
}

Status FailpointRegistry::ArmFromSpec(std::string_view spec) {
  while (!spec.empty()) {
    const size_t comma = spec.find(',');
    std::string_view segment = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? std::string_view()
                                           : spec.substr(comma + 1);
    segment = Trim(segment);
    if (segment.empty()) {
      continue;  // trailing / duplicated commas
    }
    const size_t colon = segment.find(':');
    const std::string_view site = Trim(segment.substr(0, colon));
    if (site.empty()) {
      return Status::InvalidArgument("failpoint segment '" +
                                     std::string(segment) + "' has no site");
    }
    if (colon == std::string_view::npos) {
      Arm(site, Status::Internal("injected fault (WCOP_FAILPOINTS) at " +
                                 std::string(site)));
      continue;
    }
    std::string_view mode = Trim(segment.substr(colon + 1));
    int on_hit = 1;
    if (const size_t at = mode.find('@'); at != std::string_view::npos) {
      const std::string_view count = Trim(mode.substr(at + 1));
      mode = Trim(mode.substr(0, at));
      if (!text::ParseInt(count, &on_hit) || on_hit < 1) {
        return Status::InvalidArgument("failpoint segment '" +
                                       std::string(segment) +
                                       "' has a bad hit count");
      }
    }
    if (mode == "abort") {
      ArmAbort(site, on_hit);
    } else if (mode == "sigint") {
      ArmSignal(site, SIGINT, on_hit);
    } else if (mode == "sigterm") {
      ArmSignal(site, SIGTERM, on_hit);
    } else if (mode.rfind("errno=", 0) == 0) {
      const std::string_view name = Trim(mode.substr(6));
      const int errno_value = ErrnoFromName(name);
      if (errno_value == 0) {
        return Status::InvalidArgument(
            "failpoint segment '" + std::string(segment) +
            "' has unknown errno name '" + std::string(name) +
            "' (supported: ENOSPC, EIO, EDQUOT, EACCES, EMFILE)");
      }
      ArmErrno(site, errno_value, on_hit);
    } else {
      return Status::InvalidArgument("failpoint segment '" +
                                     std::string(segment) +
                                     "' has unknown mode '" +
                                     std::string(mode) + "'");
    }
  }
  return Status::OK();
}

void FailpointRegistry::Arm(std::string_view site, Status status,
                            int max_fires) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry entry;
  entry.status = std::move(status);
  entry.remaining = max_fires;
  auto [it, inserted] =
      sites_.insert_or_assign(std::string(site), std::move(entry));
  (void)it;
  if (inserted) {
    armed_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FailpointRegistry::ArmErrno(std::string_view site, int errno_value,
                                 int on_hit) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry entry;
  entry.status = Status::IoError(
      std::string("injected ") + ErrnoName(errno_value) + " (" +
      std::strerror(errno_value) + ") at " + std::string(site));
  entry.remaining = 1;  // one-shot: the disk "recovers" after this write
  entry.skip_hits = on_hit < 1 ? 0 : on_hit - 1;
  auto [it, inserted] =
      sites_.insert_or_assign(std::string(site), std::move(entry));
  (void)it;
  if (inserted) {
    armed_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FailpointRegistry::ArmAbort(std::string_view site, int on_hit) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry entry;
  entry.status = Status::OK();
  entry.abort_mode = true;
  entry.abort_countdown = on_hit < 1 ? 1 : on_hit;
  auto [it, inserted] =
      sites_.insert_or_assign(std::string(site), std::move(entry));
  (void)it;
  if (inserted) {
    armed_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FailpointRegistry::ArmCallback(std::string_view site,
                                    std::function<void()> callback) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry entry;
  entry.callback = std::move(callback);
  auto [it, inserted] =
      sites_.insert_or_assign(std::string(site), std::move(entry));
  (void)it;
  if (inserted) {
    armed_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FailpointRegistry::ArmSignal(std::string_view site, int signo,
                                  int on_hit) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry entry;
  entry.status = Status::OK();
  entry.abort_mode = true;  // reuse the countdown plumbing
  entry.abort_countdown = on_hit < 1 ? 1 : on_hit;
  entry.signal_number = signo;
  auto [it, inserted] =
      sites_.insert_or_assign(std::string(site), std::move(entry));
  (void)it;
  if (inserted) {
    armed_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FailpointRegistry::Disarm(std::string_view site) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sites_.erase(std::string(site)) > 0) {
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FailpointRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_count_.fetch_sub(static_cast<int>(sites_.size()),
                         std::memory_order_relaxed);
  sites_.clear();
  hits_.clear();
}

Status FailpointRegistry::Fire(std::string_view site) {
  std::unique_lock<std::mutex> lock(mu_);
  ++hits_[std::string(site)];
  auto it = sites_.find(std::string(site));
  if (it == sites_.end()) {
    return Status::OK();
  }
  if (it->second.callback) {
    const std::function<void()> callback = it->second.callback;
    lock.unlock();
    callback();
    return Status::OK();
  }
  if (it->second.abort_mode) {
    if (--it->second.abort_countdown <= 0) {
      if (it->second.signal_number != 0) {
        // Signal mode: deliver the shutdown signal at exactly this boundary
        // and keep going — the cooperative cancellation machinery, not the
        // failpoint, decides what happens next. One-shot: a disarm here
        // keeps a re-entrant handler or retry loop from re-raising.
        const int signo = it->second.signal_number;
        std::fprintf(stderr, "failpoint signal %d at '%.*s'\n", signo,
                     static_cast<int>(site.size()), site.data());
        sites_.erase(it);
        armed_count_.fetch_sub(1, std::memory_order_relaxed);
        ::raise(signo);
        return Status::OK();
      }
      // The whole point: die exactly here, the way a power cut or OOM kill
      // would, so the crash-recovery harness can assert that a restart
      // resumes cleanly from the last checkpoint.
      std::fprintf(stderr, "failpoint abort at '%.*s'\n",
                   static_cast<int>(site.size()), site.data());
      std::abort();
    }
    return Status::OK();
  }
  if (it->second.skip_hits > 0) {
    --it->second.skip_hits;
    return Status::OK();
  }
  Status injected = it->second.status;
  if (!injected.ok()) {
    fired_count_.fetch_add(1, std::memory_order_relaxed);
  }
  if (it->second.remaining > 0 && --it->second.remaining == 0) {
    sites_.erase(it);
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  return injected;
}

uint64_t FailpointRegistry::HitCount(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hits_.find(std::string(site));
  return it == hits_.end() ? 0 : it->second;
}

std::vector<std::string> FailpointRegistry::ArmedSites() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(sites_.size());
  for (const auto& [site, entry] : sites_) {
    out.push_back(site);
  }
  return out;
}

}  // namespace wcop
