// Experiment E9 — Section 6's message-passing snapshot via ABD emulation.
//
// Part 1 reports messages per snapshot operation as the cluster grows, and
// demonstrates liveness under minority crashes: updates/scans keep
// completing, at a reduced message cost (crashed nodes' traffic vanishes).
// Expected shape: a scan is n register reads, each ~2 quorum rounds of ~2n
// messages, so messages/scan grows ~n^2 (times retries under contention).
//
// Part 2 sweeps the lossy-network adversary (seeded drop rate, optional
// duplication) on a fixed cluster and reports the robustness overhead the
// retransmission machinery pays: messages and retransmitted broadcasts per
// operation, plus duplicate replies discarded by the per-responder dedup.
// Each sweep row is also emitted as a JSON line (prefix "JSON ") so results
// files stay machine-readable alongside the human table.
//
// Flags: --trace <path> records a protocol trace (ABD quorum rounds,
// retransmissions, fault-injector decisions) for tools/trace_analyze.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "abd/abd_snapshot.hpp"
#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "lin/history.hpp"
#include "lin/snapshot_checker.hpp"
#include "trace/exporter.hpp"
#include "trace/histogram.hpp"

namespace {

using namespace asnap;
using namespace std::chrono_literals;

struct OpCost {
  double update_msgs;
  double scan_msgs;
};

OpCost measure(abd::MessagePassingSnapshot<std::uint64_t>& snap,
               std::size_t live_process) {
  constexpr int kOps = 10;
  const auto pid = static_cast<ProcessId>(live_process);
  const std::uint64_t before_updates = snap.messages_sent();
  for (int i = 0; i < kOps; ++i) snap.update(pid, i + 1);
  const std::uint64_t after_updates = snap.messages_sent();
  for (int i = 0; i < kOps; ++i) (void)snap.scan(pid);
  const std::uint64_t after_scans = snap.messages_sent();
  return OpCost{
      static_cast<double>(after_updates - before_updates) / kOps,
      static_cast<double>(after_scans - after_updates) / kOps,
  };
}

struct LossCost {
  double msgs_per_op;
  double protocol_rounds_per_op;  ///< query/write/write-back rounds started
  double retransmit_waves_per_op;  ///< resends INSIDE rounds, not new rounds
  double dup_replies_per_op;
  std::uint64_t timeouts;    ///< quorum rounds that hit their deadline
  std::uint64_t failed_ops;  ///< operations that gave up (degraded mode)
};

/// Mixed update/scan workload on one process under a fault plan; reports
/// per-operation message and retransmission overhead.
LossCost measure_loss(double drop, bool dup) {
  constexpr std::size_t kNodes = 5;
  constexpr int kOps = 40;  // kOps updates + kOps scans
  abd::AbdConfig config;
  config.initial_rto = 300us;
  config.max_rto = 5ms;
  config.op_deadline = 30s;
  abd::MessagePassingSnapshot<std::uint64_t> snap(kNodes, 0, /*seed=*/9,
                                                  config);
  net::FaultPlan plan;
  plan.drop_prob = drop;
  plan.dup_prob = dup ? 0.3 : 0.0;
  snap.cluster().set_fault_plan(plan);
  const std::uint64_t msgs0 = snap.messages_sent();
  const abd::CounterValues before = snap.cluster().counters();
  std::uint64_t failed_ops = 0;
  for (int i = 0; i < kOps; ++i) {
    // Degraded-mode entry points: under this sweep's deadlines every op
    // should complete, so failed_ops is itself a result (expected 0).
    if (!snap.try_update(0, i + 1)) ++failed_ops;
    if (!snap.try_scan(0).has_value()) ++failed_ops;
  }
  const double ops = 2.0 * kOps;
  const abd::CounterValues after = snap.cluster().counters();
  return LossCost{
      static_cast<double>(snap.messages_sent() - msgs0) / ops,
      static_cast<double>(after.protocol_rounds - before.protocol_rounds) /
          ops,
      static_cast<double>(after.retransmit_waves - before.retransmit_waves) /
          ops,
      static_cast<double>(after.dup_replies - before.dup_replies) / ops,
      after.round_timeouts - before.round_timeouts,
      failed_ops,
  };
}

// --- E16: one-round fast reads -----------------------------------------------

struct FastreadResult {
  double scan_p50_us = 0;
  double scan_p99_us = 0;
  double fast_hit_ratio = 0;   ///< fast reads / all reads
  double rounds_per_read = 0;  ///< 1 for a fast read, 2 for a fallback
  std::uint64_t fast_reads = 0;
  std::uint64_t fast_fallbacks = 0;
  std::uint64_t failed_ops = 0;
  std::uint64_t violations = 0;  ///< exact checker verdict (0 expected)
};

/// One E16 cell: kN concurrent processes on a mixed workload with the given
/// read ratio, under seeded loss/delay, fast path on or off. EVERY cell
/// runs the full history through the exact single-writer linearizability
/// checker — the sweep doubles as a fault-matrix safety gate for the fast
/// path, not just a latency benchmark.
FastreadResult measure_fastread(bool fast, double read_ratio, double drop,
                                double delay_ms) {
  constexpr std::size_t kN = 5;
  constexpr int kOpsPerProc = 60;
  abd::AbdConfig config;
  config.initial_rto = 300us;
  config.max_rto = 5ms;
  config.op_deadline = 30s;
  config.fast_reads = fast;
  abd::MessagePassingSnapshot<lin::Tag> snap(kN, lin::Tag{}, /*seed=*/11,
                                             config);
  net::FaultPlan plan;
  plan.drop_prob = drop;
  if (delay_ms > 0) {
    plan.delay_prob = 0.5;
    plan.min_delay = std::chrono::microseconds(100);
    plan.max_delay = std::chrono::microseconds(
        static_cast<std::int64_t>(delay_ms * 1e3));
  }
  snap.cluster().set_fault_plan(plan);

  lin::Recorder recorder(kN);
  std::vector<trace::LogHistogram> scan_ns(kN);
  std::vector<std::uint64_t> failed(kN, 0);
  {
    std::vector<std::jthread> threads;
    for (std::size_t p = 0; p < kN; ++p) {
      threads.emplace_back([&, p, pid = static_cast<ProcessId>(p)] {
        Rng rng(0x16E16 + 7919 * p + (fast ? 1 : 0));
        std::uint64_t seq = 0;
        for (int op = 0; op < kOpsPerProc; ++op) {
          if (rng.chance(read_ratio)) {
            const lin::Time inv = recorder.tick();
            const auto t0 = std::chrono::steady_clock::now();
            auto view = snap.try_scan(pid);
            const auto t1 = std::chrono::steady_clock::now();
            const lin::Time res = recorder.tick();
            if (!view.has_value()) {
              ++failed[p];
              continue;
            }
            scan_ns[p].record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()));
            recorder.add_scan(pid, std::move(*view), inv, res);
          } else {
            const lin::Tag tag{pid, ++seq};
            const lin::Time inv = recorder.tick();
            const bool ok = snap.try_update(pid, tag);
            const lin::Time res = recorder.tick();
            // 30s deadlines on a healthy-majority sim: failure means the
            // write is indeterminate; record the full interval either way.
            if (!ok) ++failed[p];
            recorder.add_update(pid, pid, tag, inv, res);
          }
        }
      });
    }
  }

  FastreadResult r;
  trace::LogHistogram merged;
  for (std::size_t p = 0; p < kN; ++p) {
    merged.merge(scan_ns[p]);
    r.failed_ops += failed[p];
  }
  r.scan_p50_us = static_cast<double>(merged.percentile(0.50)) / 1e3;
  r.scan_p99_us = static_cast<double>(merged.percentile(0.99)) / 1e3;
  r.fast_reads = snap.fast_reads();
  r.fast_fallbacks = snap.fast_fallbacks();
  const std::uint64_t reads = r.fast_reads + r.fast_fallbacks;
  if (fast && reads != 0) {
    r.fast_hit_ratio =
        static_cast<double>(r.fast_reads) / static_cast<double>(reads);
    r.rounds_per_read =
        static_cast<double>(r.fast_reads + 2 * r.fast_fallbacks) /
        static_cast<double>(reads);
  } else {
    r.rounds_per_read = 2.0;  // every slow-path read is query + write-back
  }
  if (const auto violation = lin::check_single_writer(recorder.take())) {
    std::fprintf(stderr, "E16 VIOLATION: %s\n", violation->c_str());
    r.violations = 1;
  }
  return r;
}

void print_fastread_json(bool fast, double read_ratio, double drop,
                         double delay_ms, const FastreadResult& r) {
  bench::JsonWriter("E16-fastread")
      .field("n", 5)
      .field("fast", fast)
      .field("read_ratio", read_ratio)
      .field("drop", drop)
      .field("delay_ms", delay_ms)
      .field("scan_p50_us", r.scan_p50_us)
      .field("scan_p99_us", r.scan_p99_us)
      .field("fast_hit_ratio", r.fast_hit_ratio)
      .field("rounds_per_read", r.rounds_per_read)
      .field("fast_reads", r.fast_reads)
      .field("fast_fallbacks", r.fast_fallbacks)
      .field("failed_ops", r.failed_ops)
      .field("violations", r.violations)
      .print();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path = consume_flag(argc, argv, "--trace");
  trace::Session trace_session(trace_path);

  std::printf("%4s %8s %14s %12s %14s %12s\n", "n", "crashed",
              "msgs/update", "msgs/scan", "msgs/update", "msgs/scan");
  std::printf("%4s %8s %27s %27s\n", "", "", "(all nodes alive)",
              "(minority crashed)");
  for (const std::size_t n : {3u, 5u, 7u, 9u}) {
    abd::MessagePassingSnapshot<std::uint64_t> snap(n, 0);
    const OpCost healthy = measure(snap, 0);

    // Crash a minority (floor((n-1)/2) nodes from the top).
    const std::size_t to_crash = (n - 1) / 2;
    for (std::size_t c = 0; c < to_crash; ++c) {
      snap.cluster().crash(static_cast<ProcessId>(n - 1 - c));
    }
    const OpCost degraded = measure(snap, 0);

    std::printf("%4zu %8zu %14.1f %12.1f %14.1f %12.1f\n", n, to_crash,
                healthy.update_msgs, healthy.scan_msgs, degraded.update_msgs,
                degraded.scan_msgs);
  }
  std::printf("\nA scan = n ABD reads (each 2 quorum rounds) inside >=1 "
              "double collect: messages/scan ~ 4n^2 + handshake-free.\n"
              "Minority crashes reduce traffic but never block operations "
              "(liveness needs only a majority).\n");

  std::printf("\n-- loss-rate sweep (n=5, seeded adversary; messages include "
              "retransmitted broadcasts) --\n");
  std::printf("%6s %5s %12s %10s %14s %16s %9s %11s\n", "drop", "dup",
              "msgs/op", "rounds/op", "retx waves/op", "dup replies/op",
              "timeouts", "failed ops");
  for (const bool dup : {false, true}) {
    for (const double drop : {0.0, 0.1, 0.3}) {
      const LossCost cost = measure_loss(drop, dup);
      std::printf("%5.0f%% %5s %12.1f %10.2f %14.2f %16.2f %9llu %11llu\n",
                  drop * 100, dup ? "on" : "off", cost.msgs_per_op,
                  cost.protocol_rounds_per_op, cost.retransmit_waves_per_op,
                  cost.dup_replies_per_op,
                  static_cast<unsigned long long>(cost.timeouts),
                  static_cast<unsigned long long>(cost.failed_ops));
      bench::JsonWriter("E9-loss")
          .field("n", 5)
          .field("drop", drop)
          .field("dup", dup)
          .field("msgs_per_op", cost.msgs_per_op)
          .field("protocol_rounds_per_op", cost.protocol_rounds_per_op)
          .field("retransmit_waves_per_op", cost.retransmit_waves_per_op)
          .field("dup_replies_per_op", cost.dup_replies_per_op)
          .field("timeouts", cost.timeouts)
          .field("failed_ops", cost.failed_ops)
          .print();
    }
  }
  std::printf("\nRetransmission overhead stays sub-linear in drop rate while "
              "every operation still completes; the dedup-by-responder rule "
              "is what keeps duplicated replies from corrupting quorums.\n"
              "Protocol rounds and retransmit waves are separate books: a "
              "wave is a resend inside a round, never a new round.\n");

  // -- E16 part A: the headline A/B — read ratio 0.99, healthy wire, fast
  // path off vs on. Acceptance: >= 30% p50 scan-latency reduction with the
  // fast-hit ratio reported alongside.
  std::printf("\n-- E16: one-round fast reads, A/B at read ratio 0.99 "
              "(n=5, healthy wire, every cell checked) --\n");
  std::printf("%5s %14s %14s %10s %12s %11s %10s\n", "fast", "scan p50 us",
              "scan p99 us", "fast hit", "rounds/read", "violations",
              "failed");
  FastreadResult off, on;
  for (const bool fast : {false, true}) {
    const FastreadResult r = measure_fastread(fast, 0.99, 0.0, 0.0);
    (fast ? on : off) = r;
    std::printf("%5s %14.1f %14.1f %9.1f%% %12.2f %11llu %10llu\n",
                fast ? "on" : "off", r.scan_p50_us, r.scan_p99_us,
                100.0 * r.fast_hit_ratio, r.rounds_per_read,
                static_cast<unsigned long long>(r.violations),
                static_cast<unsigned long long>(r.failed_ops));
    print_fastread_json(fast, 0.99, 0.0, 0.0, r);
  }
  if (off.scan_p50_us > 0) {
    std::printf("p50 scan latency reduction: %.1f%% (goal >= 30%%)\n",
                100.0 * (off.scan_p50_us - on.scan_p50_us) / off.scan_p50_us);
  }

  // -- E16 part B: fault-matrix sweep (read ratio x loss x delay), fast
  // path on, every cell through the exact checker. The fast-hit ratio
  // degrading gracefully (fallbacks, never violations) under loss/delay is
  // the point.
  std::printf("\n-- E16: fast-read sweep, read ratio x drop x delay "
              "(fast on, every cell checked) --\n");
  std::printf("%6s %6s %9s %14s %10s %12s %11s\n", "ratio", "drop",
              "delay ms", "scan p50 us", "fast hit", "rounds/read",
              "violations");
  for (const double ratio : {0.5, 0.99}) {
    for (const double drop : {0.0, 0.1, 0.3}) {
      for (const double delay_ms : {0.0, 2.0}) {
        const FastreadResult r = measure_fastread(true, ratio, drop, delay_ms);
        std::printf("%6.2f %5.0f%% %9.1f %14.1f %9.1f%% %12.2f %11llu\n",
                    ratio, drop * 100, delay_ms, r.scan_p50_us,
                    100.0 * r.fast_hit_ratio, r.rounds_per_read,
                    static_cast<unsigned long long>(r.violations));
        print_fastread_json(true, ratio, drop, delay_ms, r);
      }
    }
  }
  std::printf("\nA fast read settles in ONE quorum round when the query "
              "evidence proves the value is already stabilized (unanimous "
              "timestamps or a confirmed reply); disagreement falls back to "
              "the proven query + write-back path.\n");
  return 0;
}
