#include "chaos/workload.hpp"

#include "lin/snapshot_checker.hpp"

namespace asnap::chaos {

lin::History finish(lin::Recorder& recorder,
                    const std::vector<WorkerState>& workers,
                    WorkloadReport& report) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  const lin::Time final_tick = recorder.tick();
  for (std::size_t p = 0; p < workers.size(); ++p) {
    const WorkerState& ws = workers[p];
    if (ws.has_pending) {
      recorder.add_update(static_cast<ProcessId>(p), p, ws.pending_tag,
                          ws.pending_inv, final_tick);
      ++report.indeterminate_updates;
    }
    report.updates_ok += ws.updates_ok.load(kRelaxed);
    report.scans_ok += ws.scans_ok.load(kRelaxed);
    report.failed_update_attempts += ws.failed_update_attempts.load(kRelaxed);
    report.failed_scans += ws.failed_scans.load(kRelaxed);
    report.update_latency_ns.merge(ws.update_hist);
    report.scan_latency_ns.merge(ws.scan_hist);
  }
  lin::History history = recorder.take();
  report.history_ops = history.total_ops();
  if (const auto violation = lin::check_single_writer(history)) {
    report.violations.push_back("linearizability: " + *violation);
  }
  return history;
}

}  // namespace asnap::chaos
