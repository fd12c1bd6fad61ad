// One-round fast-read suite (experiment E16): the Oh-RAM!-style read path
// that skips the write-back round when the query quorum's stability
// evidence proves the adopted value is already stored at a majority.
//
// Three layers of teeth:
//   * positive: a confirmed (or unanimously stored) value reads in ONE
//     protocol round, and the round/message accounting says so;
//   * boundary: a deterministic partition schedule around a timed-out
//     write forces the disagreement fallback, and the fallback's
//     write-back is what makes the NEXT read safe;
//   * mutant: unsafe_always_fast_read (the unconditional skip) replays the
//     same schedule and the exact single-writer checker MUST reject the
//     resulting history — if this test fails, the checker lost its teeth.
//
// Satellite: recovery resync must never manufacture stability evidence — a
// resynced replica knows the value, not that a majority does.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "abd/abd_register.hpp"
#include "abd/abd_snapshot.hpp"
#include "chaos/fastread_inversion.hpp"
#include "lin/history.hpp"
#include "lin/snapshot_checker.hpp"

namespace asnap::abd {
namespace {

using namespace std::chrono_literals;
using lin::Tag;

AbdConfig fast_config() {
  AbdConfig config;
  config.initial_rto = 500us;
  config.max_rto = 4ms;
  // Short enough that the deliberately-partitioned writes below time out
  // quickly; healthy in-process rounds settle in microseconds.
  config.op_deadline = 100ms;
  return config;
}

// --- positive path -----------------------------------------------------------

TEST(FastRead, ConfirmedWriteReadsInOneRound) {
  AbdCluster<int> cluster(5, 1, 0, /*seed=*/1, fast_config());
  cluster.write(0, 0, 7);
  const std::uint64_t rounds_before = cluster.protocol_rounds();
  EXPECT_EQ(cluster.read(0, 1), 7);
  EXPECT_EQ(cluster.fast_reads(), 1u);
  EXPECT_EQ(cluster.fast_fallbacks(), 0u);
  EXPECT_EQ(cluster.protocol_rounds() - rounds_before, 1u)
      << "a fast read is exactly one (query) round";
}

TEST(FastRead, UnwrittenRegisterIsUnanimousAndFast) {
  // ts = 0 everywhere: the quorum itself proves the initial value is
  // majority-stored, even though ts = 0 is never confirmed.
  AbdCluster<int> cluster(3, 1, -1, /*seed=*/2, fast_config());
  EXPECT_EQ(cluster.read(0, 1), -1);
  EXPECT_EQ(cluster.fast_reads(), 1u);
  EXPECT_EQ(cluster.fast_fallbacks(), 0u);
}

TEST(FastRead, DisabledConfigAlwaysTakesTwoRounds) {
  AbdConfig config = fast_config();
  config.fast_reads = false;
  AbdCluster<int> cluster(5, 1, 0, /*seed=*/3, config);
  cluster.write(0, 0, 7);
  const std::uint64_t rounds_before = cluster.protocol_rounds();
  EXPECT_EQ(cluster.read(0, 1), 7);
  EXPECT_EQ(cluster.fast_reads(), 0u);
  EXPECT_EQ(cluster.fast_fallbacks(), 0u)
      << "with the feature off, reads are not even counted as fallbacks";
  EXPECT_EQ(cluster.protocol_rounds() - rounds_before, 2u)
      << "query + write-back";
}

TEST(FastRead, ConfirmBroadcastReachesEveryReplica) {
  AbdCluster<int> cluster(3, 1, 0, /*seed=*/4, fast_config());
  cluster.write(0, 0, 5);
  // The confirm is fire-and-forget; servers fold it in asynchronously.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  for (net::NodeId node = 0; node < 3; ++node) {
    while (cluster.replica_confirmed_ts(node, 0) < 1 &&
           std::chrono::steady_clock::now() < deadline) {
    }
    EXPECT_EQ(cluster.replica_confirmed_ts(node, 0), 1u)
        << "replica " << node << " never saw the confirm";
  }
}

// --- the fallback boundary, deterministically --------------------------------

// The four-step schedule is chaos::run_fastread_inversion, which chaos_run's
// broken-fastread scenario runs too. With the real stability rule reader 1
// falls back and its write-back makes reader 2 return B; with the mutant
// both reads skip the write-back and reader 2 returns the OLD A after
// reader 1 returned B.

TEST(FastRead, ConcurrentStalledWriteForcesFallbackAndStaysLinearizable) {
  const chaos::FastReadInversion r =
      chaos::run_fastread_inversion(fast_config(), /*seed=*/5);
  ASSERT_FALSE(r.setup_error.has_value())
      << "schedule setup failed: " << *r.setup_error;
  EXPECT_FALSE(r.violation.has_value()) << *r.violation;
  EXPECT_GE(r.fast_fallbacks, 1u)
      << "the disagreeing quorum must have taken the slow path";
  // Reader 1's fallback wrote B back to {0,1}; reader 2 therefore sees B
  // too — monotone, never a new/old inversion.
  EXPECT_EQ(r.read1, (Tag{0, 2}));
  EXPECT_EQ(r.read2, (Tag{0, 2}));
}

// THE MUTANT: skip the write-back unconditionally. The exact checker must
// reject the resulting history — this is the must-fail witness that the
// stability evidence is load-bearing, not decorative.
TEST(FastRead, UnconditionalSkipMutantIsRejectedByChecker) {
  AbdConfig config = fast_config();
  config.unsafe_always_fast_read = true;
  const chaos::FastReadInversion r =
      chaos::run_fastread_inversion(config, /*seed=*/5);
  ASSERT_FALSE(r.setup_error.has_value())
      << "schedule setup failed: " << *r.setup_error;
  // The mutant fast-returns both reads: B first, then the resurrected A.
  EXPECT_EQ(r.read1, (Tag{0, 2}));
  EXPECT_EQ(r.read2, (Tag{0, 1}));
  EXPECT_TRUE(r.violation.has_value())
      << "checker FAILED to reject the unconditional write-back skip — "
         "the fast-read safety net is gone";
  EXPECT_EQ(r.fast_reads, 2u);
  EXPECT_EQ(r.fast_fallbacks, 0u);
}

// --- recovery resync must not manufacture evidence (satellite 3) -------------

TEST(FastRead, ResyncedReplicaIsNotConfirmed) {
  AbdCluster<int> cluster(3, 1, 0, /*seed=*/6, fast_config());
  cluster.write(0, 0, 1);  // ts=1, confirmed (eventually) everywhere
  cluster.crash(2);
  cluster.write(0, 0, 2);  // ts=2 completes on {0,1}; node 2 misses it

  ASSERT_TRUE(cluster.recover(2));
  // Resync installed the value it missed...
  EXPECT_EQ(cluster.replica_ts(2, 0), 2u);
  // ...but resync reads pass no stability evidence and apply_write never
  // touches confirmed_ts: knowing the value is NOT knowing a majority
  // stores it, so the recovered replica must not claim ts=2 confirmed.
  EXPECT_LT(cluster.replica_confirmed_ts(2, 0), 2u)
      << "resync manufactured stability evidence";

  // A read that write-backs (or a fresh confirmed write) is what upgrades
  // it: after a slow-path-capable read from node 2's quorum, values flow
  // normally and stay correct.
  EXPECT_EQ(cluster.try_read(0, 2), std::optional<int>(2));
}

// --- fast path composes with the snapshot (E16 sanity) -----------------------

TEST(FastRead, SnapshotHistoriesStayLinearizableWithFastReadsOn) {
  constexpr std::size_t kN = 3;
  AbdConfig config = fast_config();
  config.op_deadline = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::seconds(30));
  MessagePassingSnapshot<Tag> snap(kN, Tag{}, /*seed=*/7, config);
  lin::Recorder recorder(kN);
  {
    std::vector<std::jthread> threads;
    for (std::size_t p = 0; p < kN; ++p) {
      threads.emplace_back([&, pid = static_cast<ProcessId>(p)] {
        std::uint64_t seq = 0;
        for (int op = 0; op < 12; ++op) {
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
  const auto violation = lin::check_single_writer(recorder.take());
  ASSERT_FALSE(violation.has_value()) << *violation;
  EXPECT_GT(snap.fast_reads(), 0u)
      << "a read-heavy snapshot workload must hit the fast path";
}

}  // namespace
}  // namespace asnap::abd
