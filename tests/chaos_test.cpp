// Self-healing layer and chaos orchestrator suite.
//
// Covers the pieces individually — failure detector verdicts, supervised
// auto-recovery, circuit-breaker fail-fast, incarnation epochs, the shared
// chaos workload's recording rules against a scripted fake snapshot — and
// then end-to-end: a seeded chaos run must finish with zero safety
// violations and zero liveness flags, while the sabotaged negative control
// (a breaker allowed to shrink quorums below a majority) MUST be caught by
// the linearizability checker. Everything is seeded; a failure replays.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "abd/abd_register.hpp"
#include "abd/abd_snapshot.hpp"
#include "abd/supervisor.hpp"
#include "chaos/orchestrator.hpp"
#include "chaos/schedule.hpp"
#include "chaos/workload.hpp"
#include "lin/history.hpp"
#include "net/failure_detector.hpp"
#include "net/network.hpp"

namespace asnap {
namespace {

using namespace std::chrono_literals;
using lin::Tag;

/// Spin until pred() holds or the budget runs out; true iff it held.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds budget = 2000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(200us);
  }
  return pred();
}

net::DetectorConfig fast_detector() {
  net::DetectorConfig cfg;
  cfg.heartbeat_interval = 500us;
  cfg.initial_timeout = 4ms;
  // Floor the adaptive timeout at the old fixed threshold: these tests
  // assert point-in-time trust of live nodes, and on a loaded CI machine a
  // tighter-than-4ms adapted threshold makes transient false suspicions
  // (which production tolerates by design) too likely to sample.
  cfg.min_timeout = 4ms;
  return cfg;
}

// --- failure detector --------------------------------------------------------

TEST(FailureDetector, SuspectsCrashedNodeThenRetrustsAfterRecovery) {
  net::Network net(3, /*seed=*/0x51);
  std::atomic<int> suspect_cbs{0};
  std::atomic<int> trust_cbs{0};
  net::FailureDetector fd(net, fast_detector(),
                          [&](net::NodeId, net::NodeId, bool suspected) {
                            (suspected ? suspect_cbs : trust_cbs)
                                .fetch_add(1, std::memory_order_relaxed);
                          });

  // Heartbeats flowing: everybody trusts everybody. Eventual, not
  // point-in-time — ◇P permits (and self-corrects) transient false alarms
  // when a monitor thread is descheduled past the timeout on a loaded box.
  ASSERT_TRUE(eventually([&] {
    return fd.heartbeats_sent() > 10 && !fd.suspected(0, 1) &&
           !fd.suspected(1, 0);
  }));

  net.crash(2);
  ASSERT_TRUE(eventually([&] {
    return fd.suspected(0, 2) && fd.suspected(1, 2);
  })) << "every live observer must eventually suspect the crashed node";
  ASSERT_TRUE(eventually([&] { return !fd.suspected(0, 1); }))
      << "live nodes stay (eventually) trusted";
  EXPECT_GE(suspect_cbs.load(), 2);

  net.recover(2);
  ASSERT_TRUE(eventually([&] {
    return !fd.suspected(0, 2) && !fd.suspected(1, 2);
  })) << "fresh heartbeats must restore trust";
  EXPECT_GE(trust_cbs.load(), 2);
  EXPECT_GE(fd.suspicions(), 2u);
  EXPECT_GE(fd.trusts(), 2u);
}

TEST(FailureDetector, AdaptiveTimeoutClampsToConfiguredFloor) {
  net::Network net(2, /*seed=*/0x54);
  net::DetectorConfig cfg;
  // Cadence 100× below the floor: even a heavily loaded CI machine cannot
  // stretch the observed-gap EWMA past min_timeout, so the clamp engaging
  // is the only steady state.
  cfg.heartbeat_interval = 200us;
  cfg.initial_timeout = 40ms;
  cfg.min_timeout = 20ms;
  cfg.max_timeout = 80ms;
  // Multiplier 1 makes the unclamped adaptive threshold equal the observed
  // cadence EWMA (~200µs), so hitting exactly min_timeout proves the clamp
  // engaged rather than adaptation merely slowing down.
  cfg.timeout_multiplier = 1.0;
  net::FailureDetector fd(net, cfg);

  ASSERT_TRUE(eventually([&] {
    return fd.current_timeout(0, 1) == cfg.min_timeout &&
           fd.current_timeout(1, 0) == cfg.min_timeout;
  })) << "a 200µs heartbeat burst must shrink the threshold but stop at the "
         "floor, observed 0->1: "
      << fd.current_timeout(0, 1).count()
      << "µs 1->0: " << fd.current_timeout(1, 0).count() << "µs";
  // The tightened-but-floored threshold must not falsely suspect live nodes
  // (the floor is what keeps it above one RTT)...
  EXPECT_FALSE(fd.suspected(0, 1));
  EXPECT_FALSE(fd.suspected(1, 0));
  // ...while real silence past the floor is still detected.
  net.crash(1);
  ASSERT_TRUE(eventually([&] { return fd.suspected(0, 1); }));
  EXPECT_GE(fd.current_timeout(0, 1), cfg.min_timeout);
  EXPECT_LE(fd.current_timeout(0, 1), cfg.max_timeout);
}

TEST(FailureDetector, OutOfBandConfigIsNormalizedIntoTheClampBand) {
  net::Network net(2, /*seed=*/0x55);
  net::DetectorConfig cfg;
  cfg.initial_timeout = 40ms;  // above the ceiling
  cfg.min_timeout = 2ms;
  cfg.max_timeout = 10ms;
  net::FailureDetector fd(net, cfg);
  EXPECT_LE(fd.current_timeout(0, 1), cfg.max_timeout);
  EXPECT_GE(fd.current_timeout(0, 1), cfg.min_timeout);
}

// --- supervisor --------------------------------------------------------------

TEST(Supervisor, AutoRecoversCrashedNodeAndRecordsLatency) {
  using Snapshot = abd::MessagePassingSnapshot<Tag>;
  Snapshot snap(3, Tag{}, 0x52);
  abd::SupervisorConfig cfg;
  cfg.poll_interval = 200us;
  cfg.restart_delay = 1ms;
  // It polls the crash flags, so it needs no detector. Declared after the
  // snapshot, so it stops first.
  const abd::AbdSupervisor<Snapshot::Record> supervisor(snap.cluster(), cfg);

  snap.update(0, Tag{0, 1});
  snap.cluster().crash(2);
  // Poll the supervisor's own counter (not crashed()): the node flips to
  // alive inside recover(), an instant before the counter is bumped.
  ASSERT_TRUE(eventually([&] { return supervisor.recoveries() >= 1; }))
      << "the supervisor must restart the crashed node on its own";
  EXPECT_FALSE(snap.cluster().crashed(2));
  EXPECT_FALSE(supervisor.recovery_latencies().empty());
  EXPECT_GE(snap.cluster().epoch(2), 1u)
      << "recovery must bump the node's epoch";

  // The healed cluster serves a full workload again, node 2 included.
  snap.update(2, Tag{2, 1});
  const std::vector<Tag> view = snap.scan(1);
  EXPECT_EQ(view[2], (Tag{2, 1}));
}

// --- circuit breaker ---------------------------------------------------------

TEST(Breaker, FailsFastOnceMajorityIsSuspected) {
  abd::AbdConfig config;
  config.initial_rto = 500us;
  config.max_rto = 4ms;
  config.op_deadline = 10s;  // only fail-fast can return quickly
  config.breaker.enabled = true;
  config.breaker.fail_fast_grace = 10ms;
  abd::MessagePassingSnapshot<Tag> snap(3, Tag{}, 0x53, config);
  // No supervisor: the outage must persist.
  const net::FailureDetector detector(snap.cluster().network(),
                                      fast_detector());
  snap.cluster().attach_detector(&detector);

  snap.update(0, Tag{0, 1});
  snap.cluster().crash(1);
  snap.cluster().crash(2);
  ASSERT_TRUE(eventually([&] {
    return detector.suspected(0, 1) && detector.suspected(0, 2);
  }));

  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(snap.try_scan(0).has_value());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, 5s)
      << "with a majority suspected the round must fail fast, not ride out "
         "the full operation deadline";
  EXPECT_GE(snap.cluster().counters().fail_fasts, 1u);
}

TEST(Breaker, NeverShrinksTheQuorum) {
  // Breaker on, one node down and suspected: operations still demand a true
  // majority (2 of 3), which the survivors supply.
  abd::AbdConfig config;
  config.breaker.enabled = true;
  abd::MessagePassingSnapshot<Tag> snap(3, Tag{}, 0x54, config);
  const net::FailureDetector detector(snap.cluster().network(),
                                      fast_detector());
  snap.cluster().attach_detector(&detector);

  snap.cluster().crash(2);
  ASSERT_TRUE(eventually([&] { return detector.suspected(0, 2); }));
  EXPECT_TRUE(snap.try_update(0, Tag{0, 1}));
  const auto view = snap.try_scan(1);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ((*view)[0], (Tag{0, 1}));
  EXPECT_GT(snap.cluster().counters().breaker_skips, 0u)
      << "rounds must have skipped the suspected replica";
}

// --- incarnation epochs ------------------------------------------------------

TEST(Epochs, EachRecoveryBumpsTheNodeEpoch) {
  abd::AbdCluster<int> cluster(3, 1, 0, 0x55);
  EXPECT_EQ(cluster.epoch(2), 0u);
  cluster.crash(2);
  ASSERT_TRUE(cluster.recover(2));
  EXPECT_EQ(cluster.epoch(2), 1u);
  cluster.crash(2);
  ASSERT_TRUE(cluster.recover(2));
  EXPECT_EQ(cluster.epoch(2), 2u);
  // A no-op recover of the live node must NOT mint a new incarnation.
  ASSERT_TRUE(cluster.recover(2));
  EXPECT_EQ(cluster.epoch(2), 2u);
}

// --- shared workload (chaos/workload.hpp) -----------------------------------

/// A scripted snapshot: each test says what an update attempt and a scan
/// return, and sets `stop` to end the worker.
struct FakeOps {
  std::function<bool(Tag)> update;
  std::function<std::optional<std::vector<Tag>>()> scan;

  bool try_update(ProcessId, Tag tag) { return update(tag); }
  std::optional<std::vector<Tag>> try_scan(ProcessId) { return scan(); }
};

/// Worker 0 of a one-word workload, run to its stop in the test thread.
class ChaosWorkload : public ::testing::Test {
 protected:
  void run_worker() {
    chaos::worker_loop(ops, recorder, workers[0], 0, 0us, 0us, stop);
  }
  lin::History finish() { return chaos::finish(recorder, workers, report); }

  FakeOps ops;
  lin::Recorder recorder{1};
  std::atomic<bool> stop{false};
  std::vector<chaos::WorkerState> workers = std::vector<chaos::WorkerState>(1);
  chaos::WorkloadReport report;
};

TEST_F(ChaosWorkload, RetriedUpdateIsOneOperationSpanningEveryAttempt) {
  std::vector<lin::Time> attempts;  // a clock tick inside each attempt
  ops.update = [&](Tag) {
    attempts.push_back(recorder.tick());
    return attempts.size() > 3;
  };
  ops.scan = [&]() -> std::optional<std::vector<Tag>> {
    stop = true;
    return std::vector<Tag>{Tag{0, 1}};
  };
  run_worker();
  const lin::History history = finish();

  ASSERT_EQ(history.updates.size(), 1u) << "retries are one logical update";
  EXPECT_EQ(history.updates[0].tag, (Tag{0, 1})) << "retried with the same tag";
  EXPECT_LT(history.updates[0].inv, attempts.front());
  EXPECT_GT(history.updates[0].res, attempts.back());
  EXPECT_EQ(report.failed_update_attempts, 3u);
  EXPECT_EQ(report.updates_ok, 1u);
  EXPECT_TRUE(report.ok());
}

TEST_F(ChaosWorkload, UpdateUnfinishedAtStopIsIndeterminateUntilFinalTick) {
  int attempts = 0;
  ops.update = [&](Tag) {
    if (++attempts == 5) stop = true;
    return false;
  };
  ops.scan = []() -> std::optional<std::vector<Tag>> {
    ADD_FAILURE() << "no scan after an update that never landed";
    return std::nullopt;
  };
  run_worker();
  const lin::Time before_finish = recorder.tick();
  const lin::History history = finish();
  const lin::Time after_finish = recorder.tick();

  ASSERT_EQ(history.updates.size(), 1u);
  EXPECT_EQ(history.updates[0].tag, (Tag{0, 1}));
  EXPECT_GT(history.updates[0].res, before_finish)
      << "an indeterminate update may have landed up to finish()'s tick";
  EXPECT_LT(history.updates[0].res, after_finish);
  EXPECT_EQ(report.indeterminate_updates, 1u);
  EXPECT_EQ(report.updates_ok, 0u);
  EXPECT_EQ(report.failed_update_attempts, 5u);
  EXPECT_TRUE(report.ok());
}

TEST_F(ChaosWorkload, FailedScanIsCountedAndAbsentFromTheHistory) {
  ops.update = [](Tag) { return true; };
  ops.scan = [&]() -> std::optional<std::vector<Tag>> {
    stop = true;
    return std::nullopt;
  };
  run_worker();
  const lin::History history = finish();

  EXPECT_TRUE(history.scans.empty()) << "a failed scan observed nothing";
  EXPECT_EQ(history.updates.size(), 1u);
  EXPECT_EQ(report.failed_scans, 1u);
  EXPECT_EQ(report.scans_ok, 0u);
  EXPECT_EQ(report.history_ops, 1u);
}

TEST_F(ChaosWorkload, UpdatesOkIsTheSeqOfTheLastAcknowledgedUpdate) {
  int attempts = 0;
  Tag acked{};
  ops.update = [&](Tag tag) {
    if (++attempts % 2 == 1) return false;  // every update needs a retry
    acked = tag;
    return true;
  };
  ops.scan = [&]() -> std::optional<std::vector<Tag>> {
    if (acked.seq == 4) stop = true;
    return std::vector<Tag>{acked};
  };
  run_worker();

  EXPECT_EQ(acked.seq, 4u);
  EXPECT_EQ(workers[0].updates_ok.load(), acked.seq);
  finish();
  EXPECT_EQ(report.updates_ok, 4u);
  EXPECT_EQ(report.failed_update_attempts, 4u);
  EXPECT_TRUE(report.ok());
}

TEST_F(ChaosWorkload, StaleScanAfterCompletedUpdateIsALinearizabilityViolation) {
  ops.update = [](Tag) { return true; };
  ops.scan = [&]() -> std::optional<std::vector<Tag>> {
    stop = true;
    return std::vector<Tag>{Tag{}};  // the initial value, after Tag{0,1}
  };
  run_worker();
  finish();

  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rfind("linearizability: ", 0), 0u)
      << report.violations[0];
}

// --- orchestrator ------------------------------------------------------------

TEST(ChaosOrchestrator, RandomScheduleRespectsSafetyRails) {
  chaos::ChaosProfile profile;
  profile.duration = 10s;  // long horizon -> many actions to check
  profile.crash_rate_hz = 4.0;
  profile.partition_rate_hz = 1.0;
  const chaos::Schedule sched = chaos::random_schedule(5, profile, 0x56);
  ASSERT_FALSE(sched.actions.empty());
  std::size_t crashes = 0, recovers = 0, partitions = 0, heals = 0;
  std::vector<bool> down(5, false);
  std::size_t down_count = 0;
  auto prev = sched.actions.front().at;
  for (const chaos::Action& a : sched.actions) {
    EXPECT_GE(a.at.count(), prev.count()) << "actions must be time-sorted";
    EXPECT_LE(a.at, profile.duration);
    prev = a.at;
    switch (a.kind) {
      case chaos::ActionKind::kCrash:
        ++crashes;
        ASSERT_FALSE(down[a.node]) << "node crashed while already down";
        down[a.node] = true;
        ASSERT_LE(++down_count, std::size_t{2})
            << "more than floor((n-1)/2) nodes scheduled down at once";
        break;
      case chaos::ActionKind::kRecover:
        ++recovers;
        if (down[a.node]) {
          down[a.node] = false;
          --down_count;
        }
        break;
      case chaos::ActionKind::kPartition:
        ++partitions;
        ASSERT_EQ(a.groups.size(), 2u);
        EXPECT_LE(std::min(a.groups[0].size(), a.groups[1].size()),
                  std::size_t{2});
        break;
      case chaos::ActionKind::kHeal:
        ++heals;
        break;
      case chaos::ActionKind::kSetFaultPlan:
        break;
    }
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_EQ(crashes, recovers) << "every crash needs a fallback recover";
  EXPECT_EQ(partitions, heals) << "every partition needs a heal";
  // Same (nodes, profile, seed) -> same schedule, action for action.
  const chaos::Schedule again = chaos::random_schedule(5, profile, 0x56);
  ASSERT_EQ(again.actions.size(), sched.actions.size());
  for (std::size_t i = 0; i < sched.actions.size(); ++i) {
    EXPECT_EQ(again.actions[i].at, sched.actions[i].at);
    EXPECT_EQ(static_cast<int>(again.actions[i].kind),
              static_cast<int>(sched.actions[i].kind));
  }
}

TEST(ChaosOrchestrator, SeededMixedRunHasNoViolations) {
  chaos::OrchestratorOptions opt;
  opt.nodes = 5;
  opt.seed = 0x57;
  opt.duration = 1200ms;
  chaos::ChaosProfile profile;
  profile.duration = opt.duration;
  profile.plan.drop_prob = 0.10;
  opt.schedule = chaos::random_schedule(opt.nodes, profile, opt.seed);
  const chaos::RunReport report = chaos::run(opt);

  for (const std::string& v : report.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.updates_ok, 0u);
  EXPECT_GT(report.scans_ok, 0u);
  EXPECT_GT(report.history_ops, 0u);
  if (report.crashes_injected > 0) {
    EXPECT_GE(report.recoveries, 1u)
        << "injected crashes must have been auto-recovered";
  }
}

TEST(ChaosOrchestrator, UnsafeQuorumShrinkIsCaughtByTheCheckers) {
  // Negative control: with unsafe_shrink_quorum the isolated node commits
  // against itself alone — split-brain by construction. If this run ever
  // comes back clean, the invariant monitors have stopped watching.
  chaos::OrchestratorOptions opt;
  opt.nodes = 5;
  opt.seed = 0x58;
  opt.duration = 1200ms;
  opt.abd.breaker.unsafe_shrink_quorum = true;
  chaos::Action part;
  part.kind = chaos::ActionKind::kPartition;
  part.at = 100ms;
  part.groups = {{0}, {1, 2, 3, 4}};
  chaos::Action healer;
  healer.kind = chaos::ActionKind::kHeal;
  healer.at = 1000ms;
  opt.schedule.actions = {part, healer};
  const chaos::RunReport report = chaos::run(opt);
  EXPECT_FALSE(report.ok())
      << "the sabotaged breaker must produce a detected violation";
}

}  // namespace
}  // namespace asnap
