// The checked chaos workload, shared by every chaos run: the in-process
// orchestrator (orchestrator.hpp) and chaos_run's process scenarios drive
// the same worker loop and close the run with the same finish(); only the
// adversary differs.
//
// The recording rules that make the verdict sound under faults:
//   * a timed-out update is INDETERMINATE (the value may have reached a
//     majority), so the worker retries the SAME tag until it lands — sound
//     because the retried write is idempotent at equal tags and tag
//     visibility is monotone (the read write-back) — and records one
//     operation whose interval spans every attempt;
//   * an update still unfinished at shutdown is recorded by finish() with
//     its response at a final clock tick, i.e. "possibly took effect any
//     time up to the end" (the Jepsen :info convention);
//   * a failed scan observed nothing and is dropped;
//   * the run ends with the exact single-writer linearizability check.
//
// `Ops` is the snapshot under test: abd::MessagePassingSnapshot<lin::Tag>
// in process, abd::RemoteSnapshot over abd_replicad daemons. It provides
//   bool try_update(ProcessId, lin::Tag);
//   std::optional<std::vector<lin::Tag>> try_scan(ProcessId);
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "lin/history.hpp"
#include "trace/histogram.hpp"

namespace asnap::chaos {

/// Steady-clock nanoseconds: the stamps the liveness watchdogs compare.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One worker's state. Atomics are the watchdog-facing surface, readable
/// mid-run; the rest is worker-private until the worker thread is joined.
struct WorkerState {
  std::atomic<std::uint64_t> op_start_ns{0};  ///< 0 = no op in flight
  /// Last completed operation; the state's creation until the first.
  std::atomic<std::uint64_t> last_success_ns{now_ns()};
  /// Update k carries seq k and is retried until it lands, so this is
  /// also the seq of the last acknowledged update.
  std::atomic<std::uint64_t> updates_ok{0};
  std::atomic<std::uint64_t> scans_ok{0};
  std::atomic<std::uint64_t> failed_update_attempts{0};
  std::atomic<std::uint64_t> failed_scans{0};

  bool has_pending = false;  ///< update unfinished at shutdown (indeterminate)
  lin::Tag pending_tag;
  lin::Time pending_inv = 0;

  trace::LogHistogram update_hist;
  trace::LogHistogram scan_hist;
};

/// Worker p alternates updates of word p and scans until `stop`, recording
/// every completed operation. It waits `retry_pause` before retrying a
/// failed attempt and `think` after every operation.
template <typename Ops>
void worker_loop(Ops& ops, lin::Recorder& recorder, WorkerState& ws,
                 ProcessId p, std::chrono::microseconds retry_pause,
                 std::chrono::microseconds think,
                 const std::atomic<bool>& stop) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  std::uint64_t seq = 0;
  for (std::uint64_t op = 0; !stop.load(kRelaxed); ++op) {
    const lin::Time inv = recorder.tick();
    const std::uint64_t started = now_ns();
    ws.op_start_ns.store(started, kRelaxed);
    if (op % 2 == 0) {
      const lin::Tag tag{p, ++seq};
      while (!ops.try_update(p, tag)) {
        ws.failed_update_attempts.fetch_add(1, kRelaxed);
        if (stop.load(kRelaxed)) {
          ws.has_pending = true;  // shutdown mid-retry: possibly applied
          ws.pending_tag = tag;
          ws.pending_inv = inv;
          ws.op_start_ns.store(0, kRelaxed);
          return;
        }
        std::this_thread::sleep_for(retry_pause);
      }
      const lin::Time res = recorder.tick();
      recorder.add_update(p, p, tag, inv, res);
      ws.update_hist.record(now_ns() - started);
      ws.updates_ok.fetch_add(1, kRelaxed);
      ws.last_success_ns.store(now_ns(), kRelaxed);
    } else if (std::optional<std::vector<lin::Tag>> view = ops.try_scan(p)) {
      const lin::Time res = recorder.tick();
      recorder.add_scan(p, std::move(*view), inv, res);
      ws.scan_hist.record(now_ns() - started);
      ws.scans_ok.fetch_add(1, kRelaxed);
      ws.last_success_ns.store(now_ns(), kRelaxed);
    } else {
      ws.failed_scans.fetch_add(1, kRelaxed);
      ws.op_start_ns.store(0, kRelaxed);
      std::this_thread::sleep_for(retry_pause);
    }
    // Cleared only after last_success_ns, so a watchdog never sees an
    // operation that is neither in flight nor completed.
    ws.op_start_ns.store(0, kRelaxed);
    if (think.count() > 0) std::this_thread::sleep_for(think);
  }
}

/// What every chaos run reports about its workload.
struct WorkloadReport {
  /// Safety violations and liveness flags; empty means the run passed.
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }

  std::uint64_t updates_ok = 0;
  std::uint64_t scans_ok = 0;
  std::uint64_t failed_update_attempts = 0;
  std::uint64_t failed_scans = 0;
  std::uint64_t indeterminate_updates = 0;  ///< unfinished at shutdown
  std::size_t history_ops = 0;

  // Per-operation wall latency of SUCCESSFUL ops, nanoseconds; an update's
  // latency spans all retries of its tag (availability view, not raw RTT).
  trace::LogHistogram update_latency_ns;
  trace::LogHistogram scan_latency_ns;
};

/// Closes a run once every worker (workers[p] ran as process p) has joined:
/// records each update unfinished at shutdown as indeterminate up to a
/// final tick, adds a "linearizability: " violation if the exact
/// single-writer check rejects the history, and adds the workers' counts
/// and latency histograms to `report`. Returns the checked history.
lin::History finish(lin::Recorder& recorder,
                    const std::vector<WorkerState>& workers,
                    WorkloadReport& report);

}  // namespace asnap::chaos
