// Lossy-network fault matrix for the ABD emulation (extends experiment E9).
//
// The retransmitting client rounds must keep snapshot operations live AND
// atomic while the network drops, duplicates and delays messages; with no
// majority reachable they must fail gracefully (timeout result, no hang, no
// assert); crashed nodes must be able to recover() and resynchronize their
// replicas from a majority before serving again. Every case is seeded, so a
// failure replays.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "abd/abd_register.hpp"
#include "abd/abd_snapshot.hpp"
#include "common/instrumentation.hpp"
#include "lin/history.hpp"
#include "lin/snapshot_checker.hpp"

namespace asnap::abd {
namespace {

using namespace std::chrono_literals;
using lin::Tag;

/// Timing knobs for fault runs: retransmit quickly (the simulated network
/// round-trips in microseconds) but give each operation a budget that only a
/// genuinely unreachable majority exhausts.
AbdConfig fault_config() {
  AbdConfig config;
  config.initial_rto = 500us;
  config.max_rto = 8ms;
  config.op_deadline = 30s;
  return config;
}

struct FaultCase {
  double drop;
  bool dup;
  std::size_t nodes;
  int ops_per_thread;
};

/// Concurrent update/scan workload over MessagePassingSnapshot under the
/// given fault plan; the recorded history must satisfy the single-writer
/// snapshot checker (atomicity), and with duplication enabled the
/// per-responder dedup must have discarded something.
void run_matrix_case(const FaultCase& fc, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "drop=" << fc.drop << " dup=" << fc.dup << " n=" << fc.nodes
               << " seed=" << seed);
  MessagePassingSnapshot<Tag> snap(fc.nodes, Tag{}, seed, fault_config());
  net::FaultPlan plan;
  plan.drop_prob = fc.drop;
  plan.dup_prob = fc.dup ? 0.3 : 0.0;
  plan.delay_prob = 0.1;  // a slice of surviving traffic is also delayed
  plan.min_delay = 100us;
  plan.max_delay = 2ms;
  snap.cluster().set_fault_plan(plan);

  const std::size_t threads = std::min<std::size_t>(4, fc.nodes);
  lin::Recorder recorder(fc.nodes);
  {
    std::vector<std::jthread> workers;
    for (std::size_t p = 0; p < threads; ++p) {
      workers.emplace_back([&, pid = static_cast<ProcessId>(p)] {
        std::uint64_t seq = 0;
        for (int op = 0; op < fc.ops_per_thread; ++op) {
          if (op % 2 == 0) {
            const lin::Time inv = recorder.tick();
            snap.update(pid, Tag{pid, ++seq});
            const lin::Time res = recorder.tick();
            recorder.add_update(pid, pid, Tag{pid, seq}, inv, res);
          } else {
            const lin::Time inv = recorder.tick();
            std::vector<Tag> view = snap.scan(pid);
            const lin::Time res = recorder.tick();
            recorder.add_scan(pid, std::move(view), inv, res);
          }
        }
      });
    }
  }
  const lin::History history = recorder.take();
  EXPECT_EQ(history.total_ops(),
            static_cast<std::size_t>(fc.ops_per_thread) * threads);
  const auto violation = lin::check_single_writer(history);
  ASSERT_FALSE(violation.has_value()) << *violation;
  if (fc.drop > 0.0) {
    EXPECT_GT(snap.retransmits_sent(), 0u)
        << "a lossy run must have exercised the retransmission path";
  }
  if (fc.dup) {
    EXPECT_GT(snap.cluster().counters().dup_replies, 0u)
        << "duplication must have exercised the per-responder dedup";
  }
}

TEST(AbdFaultMatrix, NoLossBaselineN3) {
  run_matrix_case({0.0, false, 3, 12}, 0xA1);
}

TEST(AbdFaultMatrix, NoLossDuplicationN3) {
  run_matrix_case({0.0, true, 3, 12}, 0xA2);
}

TEST(AbdFaultMatrix, Drop10N3) { run_matrix_case({0.1, false, 3, 12}, 0xA3); }

TEST(AbdFaultMatrix, Drop10DuplicationN5) {
  run_matrix_case({0.1, true, 5, 12}, 0xA4);
}

TEST(AbdFaultMatrix, Drop30N5) { run_matrix_case({0.3, false, 5, 12}, 0xA5); }

// The ISSUE acceptance scenario: 30% per-link drop + duplication on a 5-node
// cluster, 4 threads, >= 200 operations, no deadlock/assert, history atomic.
TEST(AbdFaultMatrix, AcceptanceDrop30DuplicationN5With200Ops) {
  run_matrix_case({0.3, true, 5, 50}, 0xACCE);
}

// Register-level soundness under loss+duplication: single-writer registers
// written with increasing values must never appear to go backwards at any
// reader, and the owner always reads back its own latest write.
TEST(AbdFaultMatrix, RegistersMonotoneUnderLossAndDuplication) {
  constexpr std::size_t kNodes = 3;
  AbdCluster<std::uint64_t> cluster(kNodes, kNodes, 0, 0xB1, fault_config());
  cluster.set_fault_plan(net::FaultPlan{.drop_prob = 0.2, .dup_prob = 0.3});
  std::vector<std::jthread> workers;
  for (std::size_t p = 0; p < kNodes; ++p) {
    workers.emplace_back([&, id = static_cast<net::NodeId>(p)] {
      std::vector<std::uint64_t> last_seen(kNodes, 0);
      for (std::uint64_t v = 1; v <= 30; ++v) {
        cluster.write(id, id, v);
        ASSERT_EQ(cluster.read(id, id), v) << "owner must read its own write";
        for (std::size_t r = 0; r < kNodes; ++r) {
          const std::uint64_t seen = cluster.read(r, id);
          ASSERT_GE(seen, last_seen[r]) << "atomic register went backwards";
          last_seen[r] = seen;
        }
      }
    });
  }
}

// --- graceful degradation ----------------------------------------------------

TEST(AbdFault, NoMajorityTimesOutGracefullyWithinDeadline) {
  AbdConfig config;
  config.initial_rto = 500us;
  config.max_rto = 4ms;
  config.op_deadline = 100ms;
  AbdCluster<int> cluster(5, 1, 0, 0xC1, config);
  cluster.write(0, 0, 7);
  cluster.crash(2);
  cluster.crash(3);
  cluster.crash(4);  // 3 of 5 down: no majority anywhere

  const auto start = std::chrono::steady_clock::now();
  const std::optional<int> read = cluster.try_read(0, 0);
  const OpStatus write_status = cluster.try_write(0, 0, 8);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(read.has_value()) << "no majority: read must not succeed";
  EXPECT_EQ(write_status, OpStatus::kTimeout);
  EXPECT_LT(elapsed, 5s) << "timeout must respect the configured deadline";
  EXPECT_GE(cluster.counters().round_timeouts, 2u);

  // Recover one node: a majority (3 of 5) is back and operations succeed.
  ASSERT_TRUE(cluster.recover(2));
  const std::optional<int> after = cluster.try_read(0, 1);
  ASSERT_TRUE(after.has_value());
  // A timed-out write has INDETERMINATE effect (quorum systems cannot
  // abort): the 8 reached the two live replicas, so a later majority read
  // may observe either the acked 7 or the leaked 8 — never anything else.
  EXPECT_TRUE(*after == 7 || *after == 8) << "got " << *after;
  // A successful write settles the register again.
  EXPECT_EQ(cluster.try_write(0, 0, 9), OpStatus::kOk);
  EXPECT_EQ(cluster.try_read(0, 1), std::optional<int>(9));
}

TEST(AbdFault, MinorityPartitionTimesOutUntilHeal) {
  AbdConfig config;
  config.initial_rto = 500us;
  config.max_rto = 4ms;
  config.op_deadline = 100ms;
  AbdCluster<int> cluster(5, 1, 0, 0xC2, config);
  cluster.partition({{0, 1, 2}, {3, 4}});
  cluster.write(0, 0, 5);  // majority side keeps working
  EXPECT_EQ(cluster.try_read(0, 1), std::optional<int>(5));
  EXPECT_FALSE(cluster.try_read(0, 3).has_value())
      << "minority side must time out, not hang";
  cluster.heal();
  EXPECT_EQ(cluster.try_read(0, 3), std::optional<int>(5));
}

// --- crash recovery ----------------------------------------------------------

TEST(AbdFault, RecoverResynchronizesReplicasFromMajority) {
  AbdCluster<int> cluster(3, 2, 0, 0xD1, fault_config());
  cluster.write(0, 0, 1);
  cluster.crash(2);
  cluster.write(0, 0, 2);   // node 2 misses ts=2 while down
  cluster.write(1, 1, 10);  // and the other register's first write

  ASSERT_TRUE(cluster.recover(2));
  // The resync quorum reads brought node 2's replicas up to the latest
  // majority-acked timestamps before it resumed serving.
  EXPECT_EQ(cluster.replica_ts(2, 0), 2u);
  EXPECT_EQ(cluster.replica_ts(2, 1), 1u);

  // The recovered node now sustains a majority with node 1 alone.
  cluster.crash(0);
  EXPECT_EQ(cluster.try_read(0, 1), std::optional<int>(2));
  EXPECT_EQ(cluster.try_read(1, 1), std::optional<int>(10));
}

TEST(AbdFault, RecoverFailsGracefullyWithoutMajority) {
  AbdConfig config;
  config.initial_rto = 500us;
  config.max_rto = 4ms;
  config.op_deadline = 50ms;
  AbdCluster<int> cluster(5, 1, 0, 0xD2, config);
  cluster.crash(1);
  cluster.crash(2);
  cluster.crash(3);
  cluster.crash(4);
  // Node 4's resync quorum is itself plus majority()-1 = 2 distinct other
  // replicas, but only node 0 is up: recover must fail and re-crash, and
  // the cluster must stay responsive (timeouts, not hangs).
  EXPECT_FALSE(cluster.recover(4));
  EXPECT_EQ(cluster.alive_count(), 1u);
  EXPECT_FALSE(cluster.try_read(0, 0).has_value());
}

TEST(AbdFault, RecoverSucceedsOnceResyncQuorumIsReachable) {
  AbdCluster<int> cluster(5, 1, 0, 0xD3, fault_config());
  cluster.write(0, 0, 4);
  cluster.crash(2);
  cluster.crash(3);
  cluster.crash(4);
  // Nodes 0 and 1 are up: node 4's resync quorum {4, 0, 1} is reachable,
  // and its return restores the cluster's majority.
  ASSERT_TRUE(cluster.recover(4));
  EXPECT_EQ(cluster.alive_count(), 3u);
  EXPECT_EQ(cluster.replica_ts(4, 0), 1u) << "resync must adopt ts=1";
  cluster.write(0, 0, 5);
  EXPECT_EQ(cluster.try_read(0, 1), std::optional<int>(5));
}

// A partition that opens up BETWEEN a scanner's two collects (the
// pigeonhole argument's most delicate moment) must not produce a stale
// view: the scan's quorum rounds retry until the link heals, survivors on
// the majority side stay linearizable throughout, and the blocked scan
// completes once restore_link() reconnects it.
TEST(AbdFault, PartitionThenHealMidScanStaysLinearizable) {
  constexpr std::size_t kN = 3;
  MessagePassingSnapshot<Tag> snap(kN, Tag{}, 0xF1, fault_config());
  lin::Recorder recorder(kN);

  // Fires on the scanner's own thread at every ABD register read; after the
  // first collect (kN reads) finishes, sever the scanner from everyone.
  struct MidScanCut {
    MessagePassingSnapshot<Tag>* snap;
    std::atomic<int> reads{0};
    std::atomic<bool> cut_done{false};
    static void hook(void* ctx, StepKind kind) {
      auto* self = static_cast<MidScanCut*>(ctx);
      if (kind != StepKind::kRegisterRead) return;
      // Fire on the (kN+1)-th read: the first collect (kN reads) has
      // completed and the second is about to start.
      if (self->reads.fetch_add(1, std::memory_order_relaxed) ==
          static_cast<int>(kN)) {
        self->snap->cluster().cut_link(0, 1);
        self->snap->cluster().cut_link(0, 2);
        self->cut_done.store(true, std::memory_order_release);
      }
    }
  } cut{&snap, {}, {}};

  std::atomic<bool> scan_returned{false};
  std::jthread scanner([&] {
    ScopedStepHook hook(&MidScanCut::hook, &cut);
    const lin::Time inv = recorder.tick();
    std::vector<Tag> view = snap.scan(0);  // blocks mid-scan at the cut
    const lin::Time res = recorder.tick();
    recorder.add_scan(0, std::move(view), inv, res);
    scan_returned.store(true, std::memory_order_release);
  });

  // Survivors (nodes 1 and 2 still see each other: a majority) keep
  // updating and scanning while node 0's scan is wedged on the partition.
  {
    std::vector<std::jthread> survivors;
    for (ProcessId p = 1; p < kN; ++p) {
      survivors.emplace_back([&, p] {
        std::uint64_t seq = 0;
        for (int op = 0; op < 16; ++op) {
          if (op % 2 == 0) {
            const lin::Time inv = recorder.tick();
            snap.update(p, Tag{p, ++seq});
            const lin::Time res = recorder.tick();
            recorder.add_update(p, p, Tag{p, seq}, inv, res);
          } else {
            const lin::Time inv = recorder.tick();
            std::vector<Tag> view = snap.scan(p);
            const lin::Time res = recorder.tick();
            recorder.add_scan(p, std::move(view), inv, res);
          }
        }
      });
    }
  }
  // The survivors finished a full workload; the cut scan must still be
  // parked (no majority for node 0), not returning garbage.
  ASSERT_TRUE(cut.cut_done.load(std::memory_order_acquire));
  EXPECT_FALSE(scan_returned.load(std::memory_order_acquire))
      << "scan must not complete while its node is partitioned away";

  std::this_thread::sleep_for(50ms);
  snap.cluster().restore_link(0, 1);
  snap.cluster().restore_link(0, 2);
  scanner.join();
  EXPECT_TRUE(scan_returned.load(std::memory_order_acquire));

  const auto violation = lin::check_single_writer(recorder.take());
  ASSERT_FALSE(violation.has_value()) << *violation;
}

// recover() used to assert that its target was crashed, so a supervisor and
// a fallback schedule racing to restart the same node would abort the
// process. Now the loser of the race (and any caller on a live node) gets a
// successful no-op.
TEST(AbdFault, DoubleRecoverIsASafeNoOp) {
  AbdCluster<int> cluster(3, 1, 0, 0xF2, fault_config());
  cluster.write(0, 0, 3);

  EXPECT_TRUE(cluster.recover(1)) << "recover of a live node is a no-op";

  cluster.crash(2);
  std::atomic<int> successes{0};
  {
    std::vector<std::jthread> racers;
    for (int t = 0; t < 2; ++t) {
      racers.emplace_back([&] {
        if (cluster.recover(2)) successes.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(successes.load(), 2)
      << "both the winner and the no-op loser must report success";
  EXPECT_EQ(cluster.alive_count(), 3u);
  EXPECT_EQ(cluster.try_read(0, 2), std::optional<int>(3));
}

TEST(AbdFault, SnapshotStaysLinearizableAcrossCrashAndRecovery) {
  constexpr std::size_t kN = 5;
  MessagePassingSnapshot<Tag> snap(kN, Tag{}, 0xE1, fault_config());
  snap.cluster().set_fault_plan(
      net::FaultPlan{.drop_prob = 0.1, .dup_prob = 0.2});
  lin::Recorder recorder(kN);
  auto worker = [&](ProcessId pid, std::uint64_t& seq, int ops) {
    for (int op = 0; op < ops; ++op) {
      if (op % 2 == 0) {
        const lin::Time inv = recorder.tick();
        snap.update(pid, Tag{pid, ++seq});
        const lin::Time res = recorder.tick();
        recorder.add_update(pid, pid, Tag{pid, seq}, inv, res);
      } else {
        const lin::Time inv = recorder.tick();
        std::vector<Tag> view = snap.scan(pid);
        const lin::Time res = recorder.tick();
        recorder.add_scan(pid, std::move(view), inv, res);
      }
    }
  };

  std::vector<std::uint64_t> seq(kN, 0);
  {
    std::vector<std::jthread> phase1;
    for (ProcessId p = 0; p < 3; ++p) {
      phase1.emplace_back([&, p] { worker(p, seq[p], 8); });
    }
  }
  snap.cluster().crash(4);
  {
    std::vector<std::jthread> phase2;
    for (ProcessId p = 0; p < 3; ++p) {
      phase2.emplace_back([&, p] { worker(p, seq[p], 8); });
    }
  }
  ASSERT_TRUE(snap.cluster().recover(4));
  {
    std::vector<std::jthread> phase3;
    for (ProcessId p = 0; p < 4; ++p) {  // recovered node operates again
      phase3.emplace_back([&, p] { worker(p, seq[p], 8); });
    }
  }
  const auto violation = lin::check_single_writer(recorder.take());
  ASSERT_FALSE(violation.has_value()) << *violation;
}

// --- the one-round fast read under faults (E16) ------------------------------
//
// The fast path's fallback boundary must engage exactly where the stability
// evidence runs out: quorums straddling a half-propagated write, replicas
// the breaker suspects, and replies from stale incarnations. Each case runs
// a seeded workload and demands BOTH that the history stays atomic and that
// the boundary was actually exercised (counters), so a regression that
// quietly stops falling back — or quietly stops going fast — trips here
// before it trips a linearizability checker somewhere downstream.

// (a) Concurrent writes racing fast reads through a dropping+delaying
// network: write rounds stop retransmitting once a majority acks, so slow
// replicas permanently miss writes and read quorums straddle the
// propagation front — ts disagreement — while ~drop_prob of the
// fire-and-forget confirms vanish — no stability bit. Both force the
// two-round fallback; the history must stay atomic through the mix of
// one-round and two-round reads.
TEST(FastReadFault, ConcurrentWritesForceFallbacksAndStayLinearizable) {
  constexpr std::size_t kN = 5;
  MessagePassingSnapshot<Tag> snap(kN, Tag{}, 0xFA57, fault_config());
  net::FaultPlan plan;
  plan.drop_prob = 0.3;
  plan.dup_prob = 0.2;
  plan.delay_prob = 0.3;
  plan.min_delay = 100us;
  plan.max_delay = 2ms;
  snap.cluster().set_fault_plan(plan);

  lin::Recorder recorder(kN);
  {
    std::vector<std::jthread> workers;
    for (std::size_t p = 0; p < 4; ++p) {
      workers.emplace_back([&, pid = static_cast<ProcessId>(p)] {
        std::uint64_t seq = 0;
        for (int op = 0; op < 40; ++op) {
          if (op % 4 == 0) {  // read-heavy: 3 scans per update
            const lin::Time inv = recorder.tick();
            snap.update(pid, Tag{pid, ++seq});
            const lin::Time res = recorder.tick();
            recorder.add_update(pid, pid, Tag{pid, seq}, inv, res);
          } else {
            const lin::Time inv = recorder.tick();
            std::vector<Tag> view = snap.scan(pid);
            const lin::Time res = recorder.tick();
            recorder.add_scan(pid, std::move(view), inv, res);
          }
        }
      });
    }
  }
  const auto violation = lin::check_single_writer(recorder.take());
  ASSERT_FALSE(violation.has_value()) << *violation;
  EXPECT_GT(snap.fast_reads(), 0u)
      << "stable registers must still go fast under loss";
  EXPECT_GT(snap.fast_fallbacks(), 0u)
      << "a 30%-loss run must have hit the fallback boundary";
}

// (b) Suspected replicas: with the breaker on and a minority crashed, query
// quorums exclude the suspects — the evidence comes from fewer, live
// replicas and must still be judged against the replies actually counted
// (agree == accepted, not agree == n). Histories stay atomic and the fast
// path keeps working in degraded mode.
TEST(FastReadFault, SuspectedReplicasDoNotBreakFastReadEvidence) {
  constexpr std::size_t kN = 5;
  AbdConfig config = fault_config();
  config.breaker.enabled = true;
  MessagePassingSnapshot<Tag> snap(kN, Tag{}, 0xFA58, config);
  lin::Recorder recorder(kN);

  auto worker = [&](ProcessId pid, std::uint64_t& seq, int ops) {
    for (int op = 0; op < ops; ++op) {
      if (op % 4 == 0) {
        const lin::Time inv = recorder.tick();
        snap.update(pid, Tag{pid, ++seq});
        const lin::Time res = recorder.tick();
        recorder.add_update(pid, pid, Tag{pid, seq}, inv, res);
      } else {
        const lin::Time inv = recorder.tick();
        std::vector<Tag> view = snap.scan(pid);
        const lin::Time res = recorder.tick();
        recorder.add_scan(pid, std::move(view), inv, res);
      }
    }
  };

  std::vector<std::uint64_t> seq(kN, 0);
  {  // healthy phase: seeds RTT estimates and confirmed state
    std::vector<std::jthread> phase1;
    for (ProcessId p = 0; p < 3; ++p) {
      phase1.emplace_back([&, p] { worker(p, seq[p], 8); });
    }
  }
  snap.cluster().crash(3);
  snap.cluster().crash(4);  // minority down: breaker learns to skip them
  {
    std::vector<std::jthread> phase2;
    for (ProcessId p = 0; p < 3; ++p) {
      phase2.emplace_back([&, p] { worker(p, seq[p], 16); });
    }
  }
  const auto violation = lin::check_single_writer(recorder.take());
  ASSERT_FALSE(violation.has_value()) << *violation;
  EXPECT_GT(snap.fast_reads(), 0u)
      << "degraded-mode reads must still use the fast path";
}

// (c) Stale incarnations: crash/recover churn while the workload runs. A
// recovered node's resync must not mint stability evidence, and replies
// from pre-crash incarnations must not count toward (or corrupt) a live
// round's evidence. Atomicity is the judge.
TEST(FastReadFault, CrashRecoverChurnKeepsFastReadsLinearizable) {
  constexpr std::size_t kN = 5;
  MessagePassingSnapshot<Tag> snap(kN, Tag{}, 0xFA59, fault_config());
  snap.cluster().set_fault_plan(
      net::FaultPlan{.drop_prob = 0.1, .dup_prob = 0.2});
  lin::Recorder recorder(kN);

  std::atomic<bool> stop{false};
  std::jthread churn([&] {
    for (int round = 0; round < 3 && !stop.load(); ++round) {
      snap.cluster().crash(4);
      std::this_thread::sleep_for(5ms);
      while (!snap.cluster().recover(4) && !stop.load()) {
        std::this_thread::sleep_for(1ms);
      }
      std::this_thread::sleep_for(5ms);
    }
  });
  {
    std::vector<std::jthread> workers;
    for (std::size_t p = 0; p < 3; ++p) {
      workers.emplace_back([&, pid = static_cast<ProcessId>(p)] {
        std::uint64_t seq = 0;
        for (int op = 0; op < 30; ++op) {
          if (op % 3 == 0) {
            const lin::Time inv = recorder.tick();
            snap.update(pid, Tag{pid, ++seq});
            const lin::Time res = recorder.tick();
            recorder.add_update(pid, pid, Tag{pid, seq}, inv, res);
          } else {
            const lin::Time inv = recorder.tick();
            std::vector<Tag> view = snap.scan(pid);
            const lin::Time res = recorder.tick();
            recorder.add_scan(pid, std::move(view), inv, res);
          }
        }
      });
    }
  }
  stop.store(true);
  churn.join();
  const auto violation = lin::check_single_writer(recorder.take());
  ASSERT_FALSE(violation.has_value()) << *violation;
  EXPECT_GT(snap.fast_reads() + snap.fast_fallbacks(), 0u);
}

}  // namespace
}  // namespace asnap::abd
