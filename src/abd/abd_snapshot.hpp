// Atomic snapshot memory for message-passing systems (Section 6):
// the UNCHANGED Figure 2 algorithm instantiated over ABD-emulated registers.
//
// "Snapshots obtained this way are true instantaneous images of the global
//  state. In addition, these implementations are resilient to process and
//  link failures, as long as a majority of the system remains connected."
//
// Each logical process is a cluster node; its snapshot operations translate
// into quorum message rounds. Crash any minority of nodes and the survivors'
// updates and scans keep completing and keep being linearizable.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "abd/abd_register.hpp"
#include "common/config.hpp"
#include "core/unbounded_sw_snapshot.hpp"

namespace asnap::abd {

template <typename T>
class MessagePassingSnapshot {
 public:
  using Snapshot = core::UnboundedSwSnapshot<T, AbdRegisterArray>;
  using Record = typename Snapshot::Record;

  MessagePassingSnapshot(std::size_t n, const T& init, std::uint64_t seed = 1,
                         AbdConfig config = {})
      : cluster_(n, n, Snapshot::initial_record(n, init), seed, config),
        snapshot_(AbdRegisterArray<Record>(cluster_)) {}

  std::size_t size() const { return snapshot_.size(); }

  /// Asserting entry points for callers operating under the liveness
  /// precondition (a majority alive and reachable) — the original Section 6
  /// behavior.
  void update(ProcessId i, T value) {
    try {
      snapshot_.update(i, std::move(value));
    } catch (const QuorumUnavailable& e) {
      ASNAP_ASSERT_MSG(false, e.what());
    }
  }
  std::vector<T> scan(ProcessId i) {
    try {
      return snapshot_.scan(i);
    } catch (const QuorumUnavailable& e) {
      ASNAP_ASSERT_MSG(false, e.what());
    }
    return {};  // unreachable
  }

  /// Degraded-mode entry points: a quorum failure (majority crashed,
  /// partitioned away, or the caller's own node down) is reported instead
  /// of aborting, so a workload can ride through outages and retry.
  /// A failed update is INDETERMINATE — the value may or may not have
  /// reached a majority; retrying with the same logical value is the sound
  /// recovery (the embedded write is idempotent at equal tags).
  bool try_update(ProcessId i, T value) {
    try {
      snapshot_.update(i, std::move(value));
      return true;
    } catch (const QuorumUnavailable&) {
      return false;
    }
  }
  std::optional<std::vector<T>> try_scan(ProcessId i) {
    try {
      return snapshot_.scan(i);
    } catch (const QuorumUnavailable&) {
      return std::nullopt;
    }
  }

  const core::ScanStats& stats(ProcessId i) const { return snapshot_.stats(i); }

  /// The cluster under the snapshot: node i runs process i. Crashes,
  /// recoveries, links, network faults, the failure detector and the
  /// protocol counters are all its.
  AbdCluster<Record>& cluster() { return cluster_; }
  const AbdCluster<Record>& cluster() const { return cluster_; }

  /// Shorthands for the counters benchmarks read.
  std::uint64_t protocol_rounds() const { return counters().protocol_rounds; }
  std::uint64_t fast_reads() const { return counters().fast_reads; }
  std::uint64_t fast_fallbacks() const { return counters().fast_fallbacks; }
  std::uint64_t messages_sent() const { return cluster_.messages_sent(); }
  std::uint64_t retransmits_sent() const { return counters().retransmit_waves; }

 private:
  CounterValues counters() const { return cluster_.counters(); }

  AbdCluster<Record> cluster_;
  Snapshot snapshot_;
};

}  // namespace asnap::abd
