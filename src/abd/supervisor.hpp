// Cluster supervisor: detects crashed-but-restartable nodes and drives
// AbdCluster::recover() until they rejoin.
//
// The recovery protocol itself (reopen endpoints, resync replicas from a
// majority quorum, bump the incarnation epoch) lives in abd_register.hpp;
// what was missing is an actor that INVOKES it — before this, tests had to
// call recover() by hand at scripted moments. The supervisor closes the
// loop: it polls the network's fail-stop flags (the simulation's stand-in
// for a process manager noticing a dead process), waits out a configurable
// restart delay (reboot time), then calls recover() with exponential
// backoff between failed attempts (a resync can fail while no majority is
// reachable — e.g. during a partition — and must be retried, not abandoned).
//
// Safety of racing everyone else: recover() is idempotent and internally
// serialized per node (the double-recover no-op), so a chaos schedule or a
// test calling recover() concurrently with the supervisor is harmless.
// One supervisor thread handles all nodes; recoveries are therefore
// serialized, which bounds resync quorum pressure on a struggling cluster.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "abd/abd_register.hpp"
#include "common/backoff.hpp"

namespace asnap::abd {

struct SupervisorConfig {
  /// How often the supervisor scans for crashed nodes.
  std::chrono::microseconds poll_interval{500};
  /// Simulated reboot time: minimum downtime before the first recover()
  /// attempt. Gives chaos runs a real outage window instead of instant
  /// resurrection.
  std::chrono::microseconds restart_delay{2'000};
};

template <typename V>
class AbdSupervisor {
 public:
  explicit AbdSupervisor(AbdCluster<V>& cluster, SupervisorConfig cfg = {})
      : cluster_(cluster),
        cfg_(cfg),
        thread_([this](std::stop_token st) { run(st); }) {}

  ~AbdSupervisor() { thread_.request_stop(); }  // jthread joins

  AbdSupervisor(const AbdSupervisor&) = delete;
  AbdSupervisor& operator=(const AbdSupervisor&) = delete;

  /// Backoff between failed recover() attempts (no majority reachable).
  static constexpr std::chrono::microseconds kInitialBackoff{1'000};
  static constexpr std::chrono::microseconds kMaxBackoff{32'000};

  /// Completed recoveries (recover() returned true for a node this
  /// supervisor observed down).
  std::uint64_t recoveries() const {
    return recoveries_.load(std::memory_order_relaxed);
  }
  /// recover() attempts that failed and were rescheduled with backoff.
  std::uint64_t failed_attempts() const {
    return failed_attempts_.load(std::memory_order_relaxed);
  }

  /// Durations from "crash first observed" to "recover() returned true",
  /// one entry per completed recovery. Includes the restart delay.
  std::vector<std::chrono::nanoseconds> recovery_latencies() const {
    std::lock_guard lock(latency_mu_);
    return latencies_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Book-keeping for one node currently observed down.
  struct Outage {
    Clock::time_point detected;
    Clock::time_point next_attempt;
    RetryBackoff backoff;
  };

  void run(std::stop_token st) {
    const std::size_t n = cluster_.nodes();
    std::vector<std::optional<Outage>> down(n);
    while (!st.stop_requested()) {
      std::this_thread::sleep_for(cfg_.poll_interval);
      for (net::NodeId node = 0; node < n; ++node) {
        if (st.stop_requested()) return;
        if (!cluster_.network().crashed(node)) {
          // Live — either it was never down, someone else recovered it, or
          // our own recover() below just succeeded.
          down[node].reset();
          continue;
        }
        const auto now = Clock::now();
        if (!down[node]) {
          down[node] = Outage{
              now, now + cfg_.restart_delay,
              RetryBackoff(kInitialBackoff, kMaxBackoff)};
          continue;
        }
        if (now < down[node]->next_attempt) continue;
        if (cluster_.recover(node)) {
          recoveries_.fetch_add(1, std::memory_order_relaxed);
          const auto latency = Clock::now() - down[node]->detected;
          {
            std::lock_guard lock(latency_mu_);
            latencies_.push_back(latency);
          }
          down[node].reset();
        } else {
          failed_attempts_.fetch_add(1, std::memory_order_relaxed);
          down[node]->backoff.grow();
          down[node]->next_attempt = Clock::now() +
                                     down[node]->backoff.current();
        }
      }
    }
  }

  AbdCluster<V>& cluster_;
  SupervisorConfig cfg_;
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> failed_attempts_{0};
  mutable std::mutex latency_mu_;
  std::vector<std::chrono::nanoseconds> latencies_;
  std::jthread thread_;  ///< last member: joins before state is destroyed
};

}  // namespace asnap::abd
