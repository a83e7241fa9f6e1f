#include "common/signals.h"

#include <signal.h>

#include <atomic>
#include <mutex>
#include <vector>

namespace wcop {

namespace {

std::atomic<int> g_last_signal{0};

/// The token the handler trips. RequestCancellation() is a shared_ptr
/// dereference plus one relaxed atomic store — no allocation, no locks —
/// so calling it from a signal handler is safe. The pointer itself is
/// published before the handlers are installed and only swapped by the
/// test-only reset, never freed (copies may outlive a reset).
std::atomic<CancellationToken*> g_token{nullptr};

std::mutex g_install_mu;
bool g_handlers_installed = false;

/// Tokens replaced by ResetShutdownSignalStateForTesting (guarded by
/// g_install_mu). A handler racing the reset may still dereference the old
/// token, so it is never freed; holding it here keeps it reachable, which
/// is what leak checkers ask of intentionally immortal objects.
std::vector<CancellationToken*>* g_retired_tokens = nullptr;

extern "C" void HandleShutdownSignal(int signo) {
  int expected = 0;
  if (!g_last_signal.compare_exchange_strong(expected, signo)) {
    // Second signal: the cooperative path is apparently wedged. Restore the
    // default disposition and re-raise so the process actually dies.
    ::signal(signo, SIG_DFL);
    ::raise(signo);
    return;
  }
  if (CancellationToken* token =
          g_token.load(std::memory_order_acquire);
      token != nullptr) {
    token->RequestCancellation();
  }
}

}  // namespace

CancellationToken InstallShutdownSignalHandlers() {
  std::lock_guard<std::mutex> lock(g_install_mu);
  if (g_token.load(std::memory_order_relaxed) == nullptr) {
    g_token.store(new CancellationToken(), std::memory_order_release);
  }
  if (!g_handlers_installed) {
    struct sigaction action = {};
    action.sa_handler = &HandleShutdownSignal;
    ::sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: blocked accept()/read() wake up
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
    g_handlers_installed = true;
  }
  return *g_token.load(std::memory_order_relaxed);
}

bool ShutdownSignalReceived() {
  return g_last_signal.load(std::memory_order_relaxed) != 0;
}

int LastShutdownSignal() {
  return g_last_signal.load(std::memory_order_relaxed);
}

void ResetShutdownSignalStateForTesting() {
  std::lock_guard<std::mutex> lock(g_install_mu);
  g_last_signal.store(0, std::memory_order_relaxed);
  // Old token copies stay tripped; future installs hand out a fresh flag.
  // The previous token object is retired, never freed — a handler racing
  // the reset may still dereference it.
  if (g_retired_tokens == nullptr) {
    g_retired_tokens = new std::vector<CancellationToken*>();
  }
  g_retired_tokens->push_back(
      g_token.exchange(new CancellationToken(), std::memory_order_acq_rel));
}

}  // namespace wcop
