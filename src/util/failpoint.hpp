// Deterministic environment-fault injection: named failpoints compiled
// into the I/O and service paths (same near-zero-overhead discipline as
// src/obs: one relaxed atomic load when nothing is configured).  One
// site injects a synthesis defect instead (flow.synthesis.widen), so
// tests can drive the synthesis cache's admission lint.
//
// A failpoint is a named site in the code that asks "should I fail
// here?".  Sites are activated through the BB_FAILPOINTS environment
// variable (or the programmatic API below, which the tests use):
//
//   BB_FAILPOINTS="io.wfa.fsync=error;serve.disk_cache.store.crash=crash(3)"
//
// Spec grammar (whitespace around tokens is ignored):
//
//   spec    := entry (';' entry)*
//   entry   := name '=' action
//   action  := 'off'                fail never (removes the entry)
//            | 'error'              return-error on every hit
//            | 'once'               return-error on the first hit only
//            | 'every(N)'           return-error on hits N, 2N, 3N, ...
//            | 'short(N)'           short-write: cap the write at N bytes
//            | 'crash'              crash the process on the first hit
//            | 'crash(N)'           crash the process on the Nth hit
//            | 'p(X)'               return-error with probability X, from
//                                   a per-site PRNG seeded by BB_CHAOS_SEED
//
// "Crash" is a hard ::_exit(kCrashExitCode) at the evaluation site — no
// atexit handlers, no buffers flushed — which is what makes it a faithful
// stand-in for SIGKILL / power loss in the chaos harness.  Every other
// action only *reports* the hit; the call site decides what an injected
// error means (a failed write, a dropped connection, a cache miss).
//
// When the build compiles failpoints out (BB_FAILPOINTS_COMPILED unset,
// the default for Release builds unless -DBB_FAILPOINTS_ENABLED=ON),
// failpoint() is a constant no-hit and the whole mechanism folds away.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace bb::util {

/// What an evaluated failpoint asks the call site to do.  Crash actions
/// never return (the process exits inside evaluate).
struct FailpointHit {
  enum class Kind {
    kNone,        ///< proceed normally
    kError,       ///< fail this operation
    kShortWrite,  ///< write at most `arg` bytes, then fail
  };
  Kind kind = Kind::kNone;
  std::uint64_t arg = 0;
  explicit operator bool() const { return kind != Kind::kNone; }
};

class Failpoints {
 public:
  /// The exit status of a crash action: 128 + SIGKILL, so a forked
  /// daemon killed by a failpoint looks exactly like a kill -9 to the
  /// supervising harness.
  static constexpr int kCrashExitCode = 137;

  /// True when the build carries the failpoint machinery (tests skip
  /// themselves when it is compiled out).
  static bool compiled_in();

  /// Replaces the whole table with `spec` (the BB_FAILPOINTS grammar
  /// above).  Returns false and fills `error` on a malformed spec; the
  /// previous table is kept in that case.  An empty spec clears.
  static bool configure(std::string_view spec, std::string* error = nullptr);

  /// Sets or replaces one failpoint ("off" removes it).  Returns false
  /// on a malformed action.
  static bool set(std::string_view name, std::string_view action,
                  std::string* error = nullptr);

  /// Removes every failpoint (the fast path goes back to one load).
  static void clear();

  /// Seed for the p(X) per-site PRNGs; also settable via BB_CHAOS_SEED.
  static void set_seed(std::uint64_t seed);

  /// How many times the named site was evaluated / how many times it
  /// fired.  Zero for unknown names.  Test/diagnostic use.
  static std::uint64_t hits(std::string_view name);
  static std::uint64_t triggers(std::string_view name);

  /// Slow path: look the site up, count the hit, decide.  Call through
  /// failpoint() below, never directly.
  static FailpointHit evaluate(std::string_view name);

#if BB_FAILPOINTS_COMPILED
  static bool active() { return active_.load(std::memory_order_relaxed); }

 private:
  friend struct FailpointsEnvInit;
  static std::atomic<bool> active_;
#else
  static constexpr bool active() { return false; }
#endif
};

/// The inline site check: one relaxed atomic load when no failpoint is
/// configured, a mutex-guarded table lookup when any is.
inline FailpointHit failpoint(std::string_view name) {
#if BB_FAILPOINTS_COMPILED
  if (Failpoints::active()) return Failpoints::evaluate(name);
#endif
  (void)name;
  return {};
}

}  // namespace bb::util
