// Per-thread instrumentation of primitive shared-memory steps.
//
// Every primitive read or write of an embedded atomic register in this
// library funnels through step_point(). This single choke point serves three
// purposes:
//
//   1. Complexity measurement (experiment E5/E7): per-thread counters of
//      primitive register operations let benchmarks measure the paper's
//      O(n^2) step bound (Lemmas 3.4 / 4.4) and the Section-6 compound cost
//      directly, instead of inferring it from wall-clock time.
//
//   2. Deterministic scheduling (sched/): the per-thread hook, when set by
//      the turnstile scheduler, yields control before every primitive step,
//      turning an arbitrary multithreaded execution into a fully controlled
//      interleaving of atomic events — exactly the event granularity at
//      which the paper's correctness proofs reason.
//
//   3. Failure-point injection in tests (stalling a process at a chosen
//      step to realize the adversarial schedules from the proofs of
//      Lemmas 3.1 / 4.1 / 5.1).
//
// The hook is thread-local, so production use (hook unset) costs one
// thread-local load and one increment per register operation.
#pragma once

#include <cstdint>

namespace asnap {

enum class StepKind : std::uint8_t {
  kRegisterRead = 0,
  kRegisterWrite = 1,
};

/// Counters of primitive operations executed by the current thread.
struct StepCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;

  std::uint64_t total() const { return reads + writes; }

  StepCounters operator-(const StepCounters& rhs) const {
    return StepCounters{reads - rhs.reads, writes - rhs.writes};
  }
};

/// Hook invoked before every primitive step of the calling thread.
using StepHook = void (*)(void* ctx, StepKind kind);

struct ThreadStepState {
  StepCounters counters;
  StepHook hook = nullptr;
  void* hook_ctx = nullptr;
};

/// Access the calling thread's instrumentation state.
ThreadStepState& step_state();

/// Called by every register implementation immediately before performing a
/// primitive read or write of shared memory.
inline void step_point(StepKind kind) {
  ThreadStepState& s = step_state();
  if (kind == StepKind::kRegisterRead) {
    ++s.counters.reads;
  } else {
    ++s.counters.writes;
  }
  if (s.hook != nullptr) s.hook(s.hook_ctx, kind);
}

/// RAII installer for a step hook on the current thread. Restores the
/// previous hook on destruction so scopes nest correctly.
class ScopedStepHook {
 public:
  ScopedStepHook(StepHook hook, void* ctx) : saved_(step_state()) {
    step_state().hook = hook;
    step_state().hook_ctx = ctx;
  }
  ~ScopedStepHook() {
    step_state().hook = saved_.hook;
    step_state().hook_ctx = saved_.hook_ctx;
  }
  ScopedStepHook(const ScopedStepHook&) = delete;
  ScopedStepHook& operator=(const ScopedStepHook&) = delete;

 private:
  ThreadStepState saved_;
};

/// Measures the primitive operations executed by the current thread between
/// construction and elapsed().
class StepMeter {
 public:
  StepMeter() : start_(step_state().counters) {}
  StepCounters elapsed() const { return step_state().counters - start_; }
  void reset() { start_ = step_state().counters; }

 private:
  StepCounters start_;
};

}  // namespace asnap
