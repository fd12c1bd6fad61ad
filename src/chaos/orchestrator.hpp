// Chaos orchestrator: sustained snapshot workload + injected failures +
// online invariant monitors.
//
// Runs the Section 6 message-passing snapshot (MessagePassingSnapshot over
// lin::Tag values) with one worker per node issuing degraded-mode updates
// and scans, while a schedule (schedule.hpp) crashes/recovers nodes,
// partitions/heals the network and injects message loss — and the
// self-healing layer (failure detector, circuit breaker, supervisor) that
// run() builds over the cluster repairs the damage. Three verdicts come
// out:
//
//   * SAFETY — the workers and the closing check are workload.hpp's:
//     every completed operation is recorded, timed-out updates are retried
//     with the same tag, an update unfinished at shutdown is indeterminate,
//     and the run ends with the exact single-writer linearizability check.
//   * LIVENESS — a watchdog flags any worker whose node has been healthy
//     (alive, not isolated by the current partition, majority available)
//     for a full stall window yet still has an operation blocked or has
//     completed nothing; and the quiesce phase at the end demands every
//     auto-recovery converge (all nodes alive) once injection stops.
//   * HEALING TELEMETRY — detection latency (crash injection -> first
//     suspicion), recovery latency (supervisor), breaker/epoch counters,
//     per-op latency histograms for availability reporting.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "abd/abd_register.hpp"
#include "abd/supervisor.hpp"
#include "chaos/schedule.hpp"
#include "chaos/workload.hpp"
#include "net/failure_detector.hpp"

namespace asnap::chaos {

struct OrchestratorOptions {
  std::size_t nodes = 5;
  std::uint64_t seed = 1;
  /// Workload duration; the schedule should fit inside it.
  std::chrono::microseconds duration{std::chrono::seconds(2)};
  Schedule schedule;

  /// Client timing + circuit breaker. Chaos defaults: fast retransmits and
  /// an op deadline far below the watchdog stall window, so a hung
  /// operation is distinguishable from a slow one.
  abd::AbdConfig abd = [] {
    abd::AbdConfig c;
    c.initial_rto = std::chrono::microseconds(500);
    c.max_rto = std::chrono::milliseconds(8);
    c.op_deadline = std::chrono::milliseconds(250);
    c.breaker.enabled = true;
    c.breaker.fail_fast_grace = std::chrono::milliseconds(10);
    return c;
  }();

  /// The self-healing layer run() builds over the cluster: a failure
  /// detector whose suspicions arm the breaker, and a supervisor that
  /// restarts crashed nodes.
  net::DetectorConfig detector;
  /// Chaos default: the "reboot" (restart_delay) takes longer than failure
  /// detection (DetectorConfig::initial_timeout), as it would in a real
  /// deployment — and so the crash -> first-suspicion latency is observable
  /// before the supervisor erases the evidence.
  abd::SupervisorConfig supervisor = [] {
    abd::SupervisorConfig s;
    s.restart_delay = std::chrono::milliseconds(20);
    return s;
  }();
};

struct RunReport : WorkloadReport {
  // Self-healing telemetry.
  std::uint64_t crashes_injected = 0;
  std::uint64_t partitions_injected = 0;
  std::uint64_t suspicions = 0;
  std::uint64_t trusts = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t failed_recovery_attempts = 0;
  std::vector<std::chrono::nanoseconds> detection_latencies;
  std::vector<std::chrono::nanoseconds> recovery_latencies;
};

/// Execute one chaos scenario to completion. Deterministically seeded up to
/// thread interleaving (like every other seeded harness in this repo).
RunReport run(const OrchestratorOptions& options);

}  // namespace asnap::chaos
