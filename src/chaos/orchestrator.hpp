// Chaos orchestrator: sustained snapshot workload + injected failures +
// online invariant monitors.
//
// Runs the Section 6 message-passing snapshot (MessagePassingSnapshot over
// lin::Tag values) with one worker per node issuing degraded-mode updates
// and scans, while a schedule (schedule.hpp) crashes/recovers nodes,
// partitions/heals the network and ramps message loss — and the
// self-healing layer (failure detector, circuit breaker, supervisor)
// repairs the damage. Three verdicts come out:
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

  /// Failure detector + supervisor; disable to measure the un-healed
  /// baseline or to hand-drive recovery from the schedule alone.
  bool self_healing = true;
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

  /// Liveness watchdog: a healthy worker stuck for this long is flagged.
  std::chrono::microseconds watchdog_stall{std::chrono::seconds(2)};
  /// Pause between a worker's failed attempt and its retry.
  std::chrono::microseconds op_retry_pause{200};
  /// After injection stops and the network heals, all nodes must be alive
  /// within this long ("every auto-recovery converges").
  std::chrono::microseconds convergence_timeout{std::chrono::seconds(5)};
  /// Extra tail of healthy-network workload before shutdown, letting
  /// pending same-tag retries resolve so few updates end indeterminate.
  std::chrono::microseconds quiesce_tail{std::chrono::milliseconds(100)};
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

  // Cluster counters.
  std::uint64_t protocol_rounds = 0;
  std::uint64_t fast_reads = 0;
  std::uint64_t fast_fallbacks = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t round_timeouts = 0;
  std::uint64_t breaker_skips = 0;
  std::uint64_t fail_fasts = 0;
  std::uint64_t stale_epoch_replies = 0;
  std::uint64_t messages_sent = 0;
};

/// Execute one chaos scenario to completion. Deterministically seeded up to
/// thread interleaving (like every other seeded harness in this repo).
RunReport run(const OrchestratorOptions& options);

}  // namespace asnap::chaos
