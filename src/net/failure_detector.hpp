// Heartbeat-based eventually-perfect failure detector (◇P) for the
// simulated cluster.
//
// [ABD]'s emulation tolerates crashes passively: a quorum round simply never
// hears from a dead replica and keeps retransmitting until its deadline. The
// crash-prone follow-ups (Imbs–Mostéfaoui–Perrin–Raynal; Hadjistasi–
// Nicolaou–Schwarzmann's Oh-RAM) make the next step explicit — clients keep
// per-replica liveness estimates so rounds wait only on plausibly-live
// nodes. This detector supplies those estimates: every node broadcasts a
// heartbeat on its own port (Port::kDetector, so detector traffic shares the
// lossy network with the data path but never competes for the protocol
// mailboxes) and monitors everyone else's. Silence past an adaptive timeout
// makes the observer SUSPECT the target; a later heartbeat re-TRUSTs it.
//
// Eventual perfection, not perfection: over a lossy or partitioned network a
// live node can be falsely suspected. Two mechanisms keep that convergent:
//   * heartbeats carry the sender's detector incarnation (bumped each time
//     its node returns from a crash), so an observer can tell a false alarm
//     (same incarnation resurfaces) from a genuine crash-recovery;
//   * on a false alarm the observer grows that target's timeout
//     multiplicatively up to a ceiling — the classic ◇P adaptation — so any
//     fixed message-delay bound is eventually exceeded by the timeout.
// Consumers must therefore treat suspicion as a HINT (the ABD circuit
// breaker skips suspected replicas but never shrinks its quorum), keeping
// safety independent of detector accuracy.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "net/network.hpp"

namespace asnap::net {

/// Message type tag for heartbeats on Port::kDetector. The sender's detector
/// incarnation rides in Message::rid; there is no payload.
inline constexpr std::uint64_t kHeartbeatMsg = 0xFD00'0001;

struct DetectorConfig {
  /// How often each live node broadcasts a heartbeat.
  std::chrono::microseconds heartbeat_interval{1'000};
  /// Initial silence threshold before suspecting a node.
  std::chrono::microseconds initial_timeout{8'000};
  /// Floor for the adaptive timeout. The observed-gap EWMA tracks heartbeat
  /// arrival cadence, so a burst of fast heartbeats (e.g. a sender catching
  /// up after a stall, or a very chatty interval) would otherwise drive the
  /// suspect threshold toward zero — below one network RTT, where every
  /// in-flight heartbeat looks like silence. The floor caps how aggressive
  /// adaptation may get; set it to at least one RTT of the deployment.
  std::chrono::microseconds min_timeout{2'000};
  /// Ceiling for the adaptive timeout.
  std::chrono::microseconds max_timeout{64'000};
  /// Adaptive timeout = EWMA of observed heartbeat gaps × this multiplier,
  /// clamped to [min_timeout, max_timeout] and never below the false-alarm
  /// penalty floor.
  double timeout_multiplier = 4.0;
};

class FailureDetector {
 public:
  /// Invoked from a monitor thread when `observer` starts suspecting
  /// (`suspected == true`) or re-trusts `target`. May fire concurrently
  /// from different observers; must be cheap and non-blocking.
  using Callback =
      std::function<void(NodeId observer, NodeId target, bool suspected)>;

  /// Starts one monitor thread per node immediately.
  FailureDetector(Network& net, DetectorConfig cfg, Callback cb = nullptr);
  ~FailureDetector();

  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// Does `observer`'s detector module currently suspect `target`?
  bool suspected(NodeId observer, NodeId target) const {
    return suspected_[static_cast<std::size_t>(observer) * nodes_ + target]
        .load(std::memory_order_relaxed);
  }

  /// Total suspect transitions across all observers (including false alarms).
  std::uint64_t suspicions() const {
    return suspicions_.load(std::memory_order_relaxed);
  }
  /// Total trust transitions (recoveries observed + false alarms retracted).
  std::uint64_t trusts() const {
    return trusts_.load(std::memory_order_relaxed);
  }
  /// Heartbeats broadcast by all live nodes so far.
  std::uint64_t heartbeats_sent() const {
    return heartbeats_sent_.load(std::memory_order_relaxed);
  }

  /// The silence threshold `observer` currently applies to `target`.
  /// Always within [cfg.min_timeout, cfg.max_timeout].
  std::chrono::microseconds current_timeout(NodeId observer,
                                            NodeId target) const {
    return std::chrono::microseconds(
        timeout_us_[static_cast<std::size_t>(observer) * nodes_ + target].load(
            std::memory_order_relaxed));
  }

 private:
  void run_node(std::stop_token st, NodeId self);

  Network& net_;
  DetectorConfig cfg_;
  std::size_t nodes_;
  Callback cb_;
  std::vector<std::atomic<bool>> suspected_;  ///< [observer * nodes_ + target]
  /// Current per-pair silence threshold in µs, same layout as suspected_.
  std::vector<std::atomic<std::int64_t>> timeout_us_;
  std::atomic<std::uint64_t> suspicions_{0};
  std::atomic<std::uint64_t> trusts_{0};
  std::atomic<std::uint64_t> heartbeats_sent_{0};
  std::vector<std::jthread> monitors_;
};

}  // namespace asnap::net
