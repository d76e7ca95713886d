#include "support/check.hpp"

#include <cstdio>
#include <cstdlib>

#include "support/env.hpp"
#include "support/spinlock.hpp"
#include "support/thread_annotations.hpp"

namespace tlb::audit {

namespace {

std::atomic<Mode> g_mode{Mode::abort_process};
std::atomic<FailureHook> g_failure_hook{nullptr};
std::atomic<std::size_t> g_violations{0};
SpinLock g_last_mutex;
std::string g_last TLB_GUARDED_BY(g_last_mutex);

bool env_enabled() {
  // Read once: toggling mid-run would make audit coverage nondeterministic.
  // Unset means on: an audit build audits unless told not to.
  static bool const value = env_switch("TLB_AUDIT", true);
  return value;
}

} // namespace

// The environment is validated even when the auditor is compiled out, so
// a malformed TLB_AUDIT fails the same way in every build.
bool enabled() { return env_enabled() && TLB_AUDIT_ENABLED != 0; }

void set_mode(Mode m) { g_mode.store(m, std::memory_order_relaxed); }

Mode mode() { return g_mode.load(std::memory_order_relaxed); }

std::size_t violation_count() {
  return g_violations.load(std::memory_order_acquire);
}

void reset_violations() {
  SpinLockGuard lock{g_last_mutex};
  g_last.clear();
  g_violations.store(0, std::memory_order_release);
}

std::string last_violation() {
  SpinLockGuard lock{g_last_mutex};
  return g_last;
}

void report(char const* expr, char const* what, char const* file, int line) {
  if (mode() == Mode::count) {
    {
      SpinLockGuard lock{g_last_mutex};
      g_last = std::string{what} + ": (" + expr + ")";
    }
    g_violations.fetch_add(1, std::memory_order_acq_rel);
    return;
  }
  std::fprintf(stderr, "tlb: invariant violated: %s: (%s) at %s:%d\n", what,
               expr, file, line);
  if (FailureHook const hook =
          g_failure_hook.load(std::memory_order_acquire)) {
    hook(what);
  }
  std::abort();
}

void set_failure_hook(FailureHook hook) {
  g_failure_hook.store(hook, std::memory_order_release);
}

FailureHook failure_hook() {
  return g_failure_hook.load(std::memory_order_acquire);
}

} // namespace tlb::audit
