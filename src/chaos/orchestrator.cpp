#include "chaos/orchestrator.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "abd/abd_snapshot.hpp"
#include "common/rng.hpp"
#include "lin/history.hpp"
#include "trace/event.hpp"

namespace asnap::chaos {

namespace {

using Clock = std::chrono::steady_clock;
using lin::Tag;
using Snapshot = abd::MessagePassingSnapshot<Tag>;

std::chrono::microseconds uniform_between(Rng& rng,
                                          std::chrono::microseconds lo,
                                          std::chrono::microseconds hi) {
  if (hi <= lo) return lo;
  const auto span = static_cast<std::uint64_t>((hi - lo).count());
  return lo + std::chrono::microseconds(rng.below(span + 1));
}

}  // namespace

Schedule random_schedule(std::size_t nodes, const ChaosProfile& profile,
                         std::uint64_t seed) {
  Rng rng(seed ^ 0xC4A0C4A0C4A0ULL);
  Schedule sched;
  const double dur_s = std::chrono::duration<double>(profile.duration).count();
  const auto dur_us = static_cast<std::uint64_t>(profile.duration.count());
  const std::size_t max_down = nodes >= 1 ? (nodes - 1) / 2 : 0;

  // Lossy-network plan: flat from t=0, or ramped to full drop_prob across
  // the first half of the run.
  if (profile.loss_ramp_steps > 0) {
    for (std::uint32_t s = 1; s <= profile.loss_ramp_steps; ++s) {
      Action a;
      a.kind = ActionKind::kSetFaultPlan;
      a.at = profile.duration / 2 * (s - 1) / profile.loss_ramp_steps;
      a.plan = profile.plan;
      a.plan.drop_prob =
          profile.plan.drop_prob * s / profile.loss_ramp_steps;
      sched.actions.push_back(std::move(a));
    }
  } else if (profile.plan.drop_prob > 0 || profile.plan.dup_prob > 0 ||
             profile.plan.delay_prob > 0) {
    Action a;
    a.kind = ActionKind::kSetFaultPlan;
    a.plan = profile.plan;
    sched.actions.push_back(std::move(a));
  }

  // Crash/recover pairs, capped so scheduled outages never overlap on one
  // node and never exceed floor((n-1)/2) concurrently.
  struct Outage {
    std::chrono::microseconds start, end;
    net::NodeId node;
  };
  std::vector<Outage> outages;
  const auto n_crashes =
      static_cast<std::size_t>(profile.crash_rate_hz * dur_s + 0.5);
  for (std::size_t c = 0; c < n_crashes && dur_us > 0; ++c) {
    const auto at = std::chrono::microseconds(rng.below(dur_us));
    const auto len =
        uniform_between(rng, profile.min_outage, profile.max_outage);
    const auto end = std::min(at + len, profile.duration);
    const auto node = static_cast<net::NodeId>(rng.below(nodes));
    std::size_t concurrent = 0;
    bool clash = false;
    for (const Outage& o : outages) {
      if (at < o.end && o.start < end) {
        if (o.node == node) clash = true;
        ++concurrent;
      }
    }
    if (clash || concurrent >= max_down) continue;
    outages.push_back(Outage{at, end, node});
    Action crash;
    crash.kind = ActionKind::kCrash;
    crash.at = at;
    crash.node = node;
    sched.actions.push_back(std::move(crash));
    // Fallback restart at outage end; the supervisor usually wins the race
    // (recover() of a live node is a no-op).
    Action restart;
    restart.kind = ActionKind::kRecover;
    restart.at = end;
    restart.node = node;
    sched.actions.push_back(std::move(restart));
  }

  // Partition/heal pairs: one partition at a time, minority sized so that
  // together with concurrently-scheduled outages at most max_down nodes
  // are unusable.
  struct Window {
    std::chrono::microseconds start, end;
  };
  std::vector<Window> windows;
  const auto n_parts =
      static_cast<std::size_t>(profile.partition_rate_hz * dur_s + 0.5);
  for (std::size_t c = 0; c < n_parts && dur_us > 0; ++c) {
    const auto at = std::chrono::microseconds(rng.below(dur_us));
    const auto len =
        uniform_between(rng, profile.min_partition, profile.max_partition);
    const auto end = std::min(at + len, profile.duration);
    bool clash = false;
    for (const Window& w : windows) {
      if (at < w.end && w.start < end) clash = true;
    }
    if (clash) continue;
    std::size_t outages_during = 0;
    for (const Outage& o : outages) {
      if (at < o.end && o.start < end) ++outages_during;
    }
    if (outages_during >= max_down) continue;
    const std::size_t k =
        1 + rng.below(static_cast<std::uint64_t>(max_down - outages_during));
    std::vector<net::NodeId> order(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      order[i] = static_cast<net::NodeId>(i);
    }
    for (std::size_t i = nodes - 1; i > 0; --i) {  // Fisher–Yates
      std::swap(order[i], order[rng.below(i + 1)]);
    }
    Action part;
    part.kind = ActionKind::kPartition;
    part.at = at;
    part.groups = {{order.begin(), order.begin() + static_cast<long>(k)},
                   {order.begin() + static_cast<long>(k), order.end()}};
    sched.actions.push_back(std::move(part));
    Action heal;
    heal.kind = ActionKind::kHeal;
    heal.at = end;
    sched.actions.push_back(std::move(heal));
    windows.push_back(Window{at, end});
  }

  std::stable_sort(sched.actions.begin(), sched.actions.end(),
                   [](const Action& a, const Action& b) { return a.at < b.at; });
  return sched;
}

RunReport run(const OrchestratorOptions& opt) {
  const std::size_t n = opt.nodes;
  const std::size_t majority = n / 2 + 1;

  RunReport report;
  std::mutex report_mu;  // violations + detection latencies
  const auto add_violation = [&](std::string what) {
    std::lock_guard lock(report_mu);
    report.violations.push_back(std::move(what));
  };

  // Injection-side view of the cluster, shared with the watchdog: which
  // nodes the current partition isolates from the main component, and
  // which crash injections await their first suspicion (detection
  // latency). Declared before `snap` so the detector callback and worker
  // threads (joined by snap's destructor / inner scopes) never outlive
  // them.
  std::vector<std::atomic<bool>> isolated(n);
  std::vector<std::atomic<std::uint64_t>> crash_pending(n);
  for (std::size_t i = 0; i < n; ++i) {
    isolated[i].store(false, std::memory_order_relaxed);
    crash_pending[i].store(0, std::memory_order_relaxed);
  }

  Snapshot snap(n, Tag{}, opt.seed, opt.abd);
  if (opt.self_healing) {
    Snapshot::SelfHealingConfig heal;
    heal.detector = opt.detector;
    heal.supervisor = opt.supervisor;
    heal.detector_callback = [&](net::NodeId, net::NodeId target,
                                 bool suspected) {
      if (!suspected) return;
      // First suspicion after an injected crash claims the pending stamp.
      const std::uint64_t t =
          crash_pending[target].exchange(0, std::memory_order_acq_rel);
      if (t == 0) return;
      std::lock_guard lock(report_mu);
      report.detection_latencies.emplace_back(now_ns() - t);
    };
    snap.enable_self_healing(heal);
  }

  lin::Recorder recorder(n);
  std::vector<WorkerState> workers_state(n);
  std::atomic<bool> stop{false};

  // How many nodes are currently usable (alive and in the main partition
  // component); liveness can only be demanded of clients while at least a
  // majority is.
  const auto usable_count = [&] {
    std::size_t usable = 0;
    for (std::size_t p = 0; p < n; ++p) {
      if (!snap.crashed(static_cast<ProcessId>(p)) &&
          !isolated[p].load(std::memory_order_relaxed)) {
        ++usable;
      }
    }
    return usable;
  };

  const auto apply = [&](const Action& a) {
    switch (a.kind) {
      case ActionKind::kCrash: {
        if (snap.crashed(a.node)) break;
        // Refuse an injection that would leave the main component without
        // a majority: the schedule's safety rail assumed outage windows
        // that self-healing may have reshaped.
        std::size_t usable_after = 0;
        for (std::size_t p = 0; p < n; ++p) {
          if (p != a.node && !snap.crashed(static_cast<ProcessId>(p)) &&
              !isolated[p].load(std::memory_order_relaxed)) {
            ++usable_after;
          }
        }
        if (usable_after < majority) break;
        snap.crash(a.node);
        crash_pending[a.node].store(now_ns(), std::memory_order_release);
        ++report.crashes_injected;
        ASNAP_TRACE_EVENT(trace::EventKind::kChaosAction, 0,
                          static_cast<std::uint64_t>(a.kind), a.node);
        break;
      }
      case ActionKind::kRecover:
        // Fallback restart; races (and loses to) the supervisor by design —
        // recover() of a live node is a no-op.
        snap.recover(a.node);
        ASNAP_TRACE_EVENT(trace::EventKind::kChaosAction, 0,
                          static_cast<std::uint64_t>(a.kind), a.node);
        break;
      case ActionKind::kPartition: {
        if (a.groups.empty()) break;
        snap.partition(a.groups);
        // Everything outside the largest group is isolated.
        std::size_t main_group = 0;
        for (std::size_t g = 1; g < a.groups.size(); ++g) {
          if (a.groups[g].size() > a.groups[main_group].size()) main_group = g;
        }
        for (std::size_t g = 0; g < a.groups.size(); ++g) {
          if (g == main_group) continue;
          for (const net::NodeId p : a.groups[g]) {
            isolated[p].store(true, std::memory_order_relaxed);
          }
        }
        ++report.partitions_injected;
        ASNAP_TRACE_EVENT(trace::EventKind::kChaosAction, 0,
                          static_cast<std::uint64_t>(a.kind),
                          a.groups.size());
        break;
      }
      case ActionKind::kHeal:
        snap.heal();
        for (std::size_t p = 0; p < n; ++p) {
          isolated[p].store(false, std::memory_order_relaxed);
        }
        ASNAP_TRACE_EVENT(trace::EventKind::kChaosAction, 0,
                          static_cast<std::uint64_t>(a.kind), 0);
        break;
      case ActionKind::kSetFaultPlan:
        snap.set_fault_plan(a.plan);
        ASNAP_TRACE_EVENT(
            trace::EventKind::kChaosAction, 0,
            static_cast<std::uint64_t>(a.kind),
            static_cast<std::uint64_t>(a.plan.drop_prob * 1000.0));
        break;
    }
  };

  {
    std::vector<std::jthread> workers;
    for (std::size_t p = 0; p < n; ++p) {
      workers.emplace_back([&, p] {
        worker_loop(snap, recorder, workers_state[p],
                    static_cast<ProcessId>(p), opt.op_retry_pause,
                    std::chrono::microseconds(0), stop);
      });
    }

    // Liveness watchdog: flags a worker whose node has been healthy for a
    // full stall window yet still has an operation in flight from before
    // the window, or has completed nothing inside it.
    std::jthread watchdog([&](std::stop_token st) {
      std::vector<std::uint64_t> healthy_since(n, now_ns());
      std::vector<bool> flagged(n, false);
      const auto stall =
          static_cast<std::uint64_t>(std::chrono::duration_cast<
                                         std::chrono::nanoseconds>(
                                         opt.watchdog_stall)
                                         .count());
      while (!st.stop_requested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const std::uint64_t now = now_ns();
        // Time since `stamp`. A worker may store a stamp after `now` was
        // read; that op has just begun or ended, so it has waited 0 ns —
        // the plain unsigned difference would wrap and flag a phantom stall.
        const auto since = [now](std::uint64_t stamp) {
          return now > stamp ? now - stamp : 0;
        };
        const bool quorum = usable_count() >= majority;
        for (std::size_t p = 0; p < n; ++p) {
          // A node that came back before anyone suspected it forfeits its
          // detection-latency sample; expire the stamp so a later unrelated
          // suspicion cannot claim it.
          if (!snap.crashed(static_cast<ProcessId>(p))) {
            crash_pending[p].store(0, std::memory_order_relaxed);
          }
          if (!quorum || snap.crashed(static_cast<ProcessId>(p)) ||
              isolated[p].load(std::memory_order_relaxed)) {
            healthy_since[p] = now;
            continue;
          }
          if (flagged[p]) continue;
          const WorkerState& ws = workers_state[p];
          const std::uint64_t started =
              ws.op_start_ns.load(std::memory_order_relaxed);
          if (started != 0 &&
              since(std::max(started, healthy_since[p])) > stall) {
            flagged[p] = true;
            add_violation("liveness: operation by healthy node " +
                          std::to_string(p) + " blocked past the stall window");
            continue;
          }
          const std::uint64_t last =
              ws.last_success_ns.load(std::memory_order_relaxed);
          if (since(std::max(last, healthy_since[p])) > stall) {
            flagged[p] = true;
            add_violation("liveness: healthy node " + std::to_string(p) +
                          " completed no operation inside the stall window");
          }
        }
      }
    });

    // Injection timeline.
    const auto start = Clock::now();
    for (const Action& a : opt.schedule.actions) {
      std::this_thread::sleep_until(start + a.at);
      apply(a);
    }
    std::this_thread::sleep_until(start + opt.duration);

    // Injection over: heal the network and demand convergence.
    snap.heal();
    for (std::size_t p = 0; p < n; ++p) {
      isolated[p].store(false, std::memory_order_relaxed);
    }
    snap.set_fault_plan(net::FaultPlan{});
    if (!opt.self_healing) {
      for (std::size_t p = 0; p < n; ++p) {
        if (snap.crashed(static_cast<ProcessId>(p))) {
          snap.recover(static_cast<ProcessId>(p));
        }
      }
    }
    const auto converge_by = Clock::now() + opt.convergence_timeout;
    while (snap.alive_count() < n && Clock::now() < converge_by) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (snap.alive_count() < n) {
      add_violation("liveness: " + std::to_string(n - snap.alive_count()) +
                    " node(s) still down after the convergence timeout");
    }

    // Healthy-network tail so pending same-tag retries resolve.
    std::this_thread::sleep_for(opt.quiesce_tail);
    watchdog.request_stop();
    watchdog.join();
    stop.store(true, std::memory_order_relaxed);
  }  // workers join

  finish(recorder, workers_state, report);
  if (const net::FailureDetector* fd = snap.detector()) {
    report.suspicions = fd->suspicions();
    report.trusts = fd->trusts();
  }
  if (const auto* sup = snap.supervisor()) {
    report.recoveries = sup->recoveries();
    report.failed_recovery_attempts = sup->failed_attempts();
    report.recovery_latencies = sup->recovery_latencies();
  }
  report.protocol_rounds = snap.protocol_rounds();
  report.fast_reads = snap.fast_reads();
  report.fast_fallbacks = snap.fast_fallbacks();
  report.retransmits = snap.retransmits_sent();
  report.round_timeouts = snap.round_timeouts();
  report.breaker_skips = snap.breaker_skips();
  report.fail_fasts = snap.fail_fasts();
  report.stale_epoch_replies = snap.stale_epoch_replies();
  report.messages_sent = snap.messages_sent();
  return report;
}

}  // namespace asnap::chaos
