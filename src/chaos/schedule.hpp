// Declarative, seeded chaos schedules.
//
// A Schedule is a time-ordered list of fault actions the orchestrator
// (orchestrator.hpp) injects into a running cluster: crash/recover a node,
// partition/heal the network, install a lossy-network FaultPlan.
// Schedules are DATA — a scenario is reproducible from (profile, seed)
// alone, and hand-written schedules express targeted regressions (e.g. the
// partition that the negative breaker test needs).
//
// random_schedule() generates one from a ChaosProfile under two safety
// rails that keep the LIVENESS claim under test honest:
//   * at most floor((n-1)/2) nodes are scheduled down at any instant, so a
//     majority always exists for survivors (the orchestrator additionally
//     refuses an injection that would break majority at runtime — the
//     supervisor may not have caught up with the schedule's assumptions);
//   * every kCrash is paired with a fallback kRecover at outage end. The
//     self-healing supervisor normally restarts the node much earlier; the
//     fallback rides on recover()'s double-recover no-op and only matters
//     when the supervisor is held off or wedged.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "net/fault.hpp"

namespace asnap::chaos {

enum class ActionKind : std::uint8_t {
  kCrash = 0,     ///< fail-stop `node`
  kRecover = 1,   ///< restart `node` (no-op if already live)
  kPartition = 2, ///< split the cluster into `groups`
  kHeal = 3,      ///< reconnect all partition groups
  kSetFaultPlan = 4,  ///< install `plan` (loss/dup/delay)
};

struct Action {
  std::chrono::microseconds at{0};  ///< offset from run start
  ActionKind kind = ActionKind::kCrash;
  net::NodeId node = 0;                         ///< kCrash / kRecover
  std::vector<std::vector<net::NodeId>> groups; ///< kPartition
  net::FaultPlan plan;                          ///< kSetFaultPlan
};

struct Schedule {
  std::vector<Action> actions;  ///< sorted by `at`
};

/// Tunable shape of a random schedule. Rates are expected events per
/// second of run duration; each crash keeps its node down for a uniform
/// outage in [20, 120] ms (the supervisor usually restarts it after its own
/// restart_delay, whichever comes first), and each partition isolates a
/// random minority for a uniform [20, 80] ms.
struct ChaosProfile {
  std::chrono::microseconds duration{std::chrono::seconds(2)};
  double crash_rate_hz = 2.0;
  double partition_rate_hz = 0.5;
  /// Lossy-network plan, installed at t=0.
  net::FaultPlan plan;
};

/// Deterministic schedule from (nodes, profile, seed).
Schedule random_schedule(std::size_t nodes, const ChaosProfile& profile,
                         std::uint64_t seed);

}  // namespace asnap::chaos
