// Sharded-fabric suite (src/shard/): hash routing, the two-level global
// scan, the sealed fallback, and the partial-scan extension of the exact
// checker that makes cross-shard histories checkable at all.
//
// Organization:
//   * checker unit tests over hand-built histories with partial
//     (word_base != 0) scans — including the canonical BAD interleaving a
//     two-level scan must not produce: a global view that observes one
//     shard's later update while missing another shard's earlier, already
//     completed one ("the global scan split a shard's update"). The exact
//     single-writer checker MUST reject it;
//   * history text/file round-trips for partial scans ('P' records), the
//     shape tools/loadgen --check-file spills;
//   * ShardedSnapshotFabric unit tests over A1 (routing determinism, global
//     word indexing, generation monotonicity, confirmed vs sealed global
//     scans, counter aggregation);
//   * randomized churn typed over A1/A2/A3: M clients hash-routed across
//     2 shards mix updates, shard-local scans and cross-shard global scans;
//     the complete recorded history (partial + full views) must pass the
//     exact checker — the acceptance bar that sharding preserved the
//     paper's correctness notion.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/bounded_mw_snapshot.hpp"
#include "core/bounded_sw_snapshot.hpp"
#include "core/mvcc_snapshot.hpp"
#include "core/snapshot_types.hpp"
#include "core/unbounded_sw_snapshot.hpp"
#include "common/rng.hpp"
#include "lin/history.hpp"
#include "lin/history_io.hpp"
#include "lin/snapshot_checker.hpp"
#include "shard/fabric.hpp"
#include "svc/errors.hpp"
#include "svc/service.hpp"

namespace asnap {
namespace {

using lin::Tag;
using shard::FabricConfig;
using shard::ShardedSnapshotFabric;
using svc::ClientId;
using svc::SvcError;

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Exact checker on partial-scan histories.
// ---------------------------------------------------------------------------

lin::UpdateOp upd(ProcessId proc, std::size_t word, std::uint64_t seq,
                  lin::Time inv, lin::Time res) {
  return {proc, word, Tag{proc, seq}, inv, res};
}

/// The known-bad interleaving: 4 words = 2 shards x 2. Update of word 0
/// completes at time 2; update of word 2 completes at time 4; a global scan
/// over [5,6] observes the word-2 update but claims word 0 is still initial.
/// No linearization order exists (the scan would have to precede the word-0
/// update it started after), so the checker must reject — this is exactly
/// the anomaly an unconfirmed generation vector would let through.
TEST(ShardChecker, RejectsGlobalScanSplittingAShardsUpdate) {
  lin::History h;
  h.num_words = 4;
  h.updates.push_back(upd(0, 0, 1, 1, 2));
  h.updates.push_back(upd(2, 2, 1, 3, 4));
  h.scans.push_back(
      {/*proc=*/1, {Tag{}, Tag{}, Tag{2, 1}, Tag{}}, /*inv=*/5, /*res=*/6,
       /*word_base=*/0});
  const lin::CheckResult verdict = lin::check_single_writer(h);
  ASSERT_TRUE(verdict.has_value());
}

/// Same ops, but the view reflects both completed updates: accepted.
TEST(ShardChecker, AcceptsGlobalScanObservingBothShards) {
  lin::History h;
  h.num_words = 4;
  h.updates.push_back(upd(0, 0, 1, 1, 2));
  h.updates.push_back(upd(2, 2, 1, 3, 4));
  h.scans.push_back(
      {1, {Tag{0, 1}, Tag{}, Tag{2, 1}, Tag{}}, 5, 6, 0});
  EXPECT_FALSE(lin::check_single_writer(h).has_value());
}

/// A shard-local (partial) scan is constrained only by writes to the words
/// it covers: missing a completed write OUTSIDE its word range is fine...
TEST(ShardChecker, PartialScanUnconstrainedByOtherShardsWords) {
  lin::History h;
  h.num_words = 4;
  h.updates.push_back(upd(0, 0, 1, 1, 2));  // completed before the scan
  // Scan of shard 1's words [2,4) after the word-0 update; view need not
  // (and cannot) mention word 0.
  h.scans.push_back({2, {Tag{}, Tag{}}, 3, 4, /*word_base=*/2});
  EXPECT_FALSE(lin::check_single_writer(h).has_value());
}

/// ...but missing a completed write INSIDE its range is still a violation.
TEST(ShardChecker, PartialScanMustObserveCompletedWritesInItsRange) {
  lin::History h;
  h.num_words = 4;
  h.updates.push_back(upd(2, 2, 1, 1, 2));
  h.scans.push_back({2, {Tag{}, Tag{}}, 3, 4, /*word_base=*/2});  // stale
  EXPECT_TRUE(lin::check_single_writer(h).has_value());
}

/// Partial scans on different shards can coexist with concurrent updates;
/// a mixed partial + full history with consistent views is accepted.
TEST(ShardChecker, MixedPartialAndFullViewsConsistent) {
  lin::History h;
  h.num_words = 4;
  h.updates.push_back(upd(0, 0, 1, 1, 2));
  h.updates.push_back(upd(3, 3, 1, 2, 5));     // concurrent with both scans
  h.scans.push_back({0, {Tag{0, 1}, Tag{}}, 3, 4, 0});       // shard 0
  h.scans.push_back({2, {Tag{}, Tag{3, 1}}, 3, 4, 2});       // shard 1
  h.scans.push_back(
      {1, {Tag{0, 1}, Tag{}, Tag{}, Tag{3, 1}}, 6, 7, 0});   // global
  EXPECT_FALSE(lin::check_single_writer(h).has_value());
}

/// A view that runs past num_words (word_base + width overflow) is malformed
/// input, reported as a violation rather than silently truncated.
TEST(ShardChecker, ViewExceedingWordRangeIsRejected) {
  lin::History h;
  h.num_words = 4;
  h.scans.push_back({0, {Tag{}, Tag{}}, 1, 2, /*word_base=*/3});
  EXPECT_TRUE(lin::check_single_writer(h).has_value());
}

// ---------------------------------------------------------------------------
// Partial scans through the text format and the streaming file writer.
// ---------------------------------------------------------------------------

TEST(ShardHistoryIo, PartialScansRoundTripThroughText) {
  lin::History h;
  h.num_words = 4;
  h.updates.push_back(upd(2, 2, 1, 1, 2));
  h.scans.push_back({2, {Tag{2, 1}, Tag{}}, 3, 4, /*word_base=*/2});
  h.scans.push_back({0, {Tag{}, Tag{}, Tag{2, 1}, Tag{}}, 5, 6, 0});

  const std::string text = lin::dump_history(h);
  std::string error;
  const auto back = lin::parse_history(text, &error);
  ASSERT_TRUE(back.has_value()) << error;
  ASSERT_EQ(back->scans.size(), 2u);
  EXPECT_EQ(back->scans[0].word_base, 2u);
  EXPECT_EQ(back->scans[0].view, h.scans[0].view);
  EXPECT_EQ(back->scans[1].word_base, 0u);
  EXPECT_FALSE(lin::check_single_writer(*back).has_value());
}

TEST(ShardHistoryIo, FileWriterStreamsAndReplaysExactly) {
  const std::string path = "shard_history_spill_test.txt";
  {
    lin::HistoryFileWriter writer(path, 4);
    ASSERT_TRUE(writer.ok());
    writer.add_update(2, 2, Tag{2, 1}, 1, 2);
    writer.add_scan(2, 2, {Tag{2, 1}, Tag{}}, 3, 4);
    writer.add_scan(0, 0, {Tag{}, Tag{}, Tag{2, 1}, Tag{}}, 5, 6);
    EXPECT_TRUE(writer.close());
  }
  std::ifstream in(path);
  std::string error;
  const auto h = lin::read_history(in, &error);
  ASSERT_TRUE(h.has_value()) << error;
  EXPECT_EQ(h->num_words, 4u);
  ASSERT_EQ(h->updates.size(), 1u);
  ASSERT_EQ(h->scans.size(), 2u);
  EXPECT_EQ(h->scans[0].word_base, 2u);
  EXPECT_EQ(h->scans[1].view.size(), 4u);
  EXPECT_FALSE(lin::check_single_writer(*h).has_value());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fabric unit tests over A1.
// ---------------------------------------------------------------------------

using A1 = core::UnboundedSwSnapshot<Tag>;
using A1Fabric = ShardedSnapshotFabric<A1, Tag>;

A1Fabric make_a1_fabric(std::size_t shards, std::size_t words_per_shard,
                        FabricConfig cfg = {}) {
  std::vector<std::unique_ptr<A1>> backends;
  for (std::size_t s = 0; s < shards; ++s) {
    backends.push_back(std::make_unique<A1>(words_per_shard, Tag{}));
  }
  return A1Fabric(std::move(backends), cfg);
}

TEST(ShardedFabric, RoutingIsDeterministicAndCoversAllShards) {
  auto fabric = make_a1_fabric(4, 2);
  std::set<std::size_t> hit;
  for (ClientId c = 0; c < 64; ++c) {
    const std::size_t sh = fabric.shard_of(c);
    ASSERT_LT(sh, 4u);
    EXPECT_EQ(sh, fabric.shard_of(c));  // stateless and stable
    hit.insert(sh);
  }
  // splitmix64 over 64 ids cannot plausibly leave a shard of 4 empty.
  EXPECT_EQ(hit.size(), 4u);
}

TEST(ShardedFabric, ConnectLeasesGlobalSlotInTheHomeShard) {
  auto fabric = make_a1_fabric(2, 3);
  EXPECT_EQ(fabric.words(), 6u);
  for (ClientId c = 0; c < 4; ++c) {
    auto conn = fabric.connect(c, 1s);
    ASSERT_EQ(conn.error, SvcError::kOk);
    EXPECT_EQ(conn.session.shard(), fabric.shard_of(c));
    const std::size_t base = conn.session.shard() * 3;
    EXPECT_GE(conn.session.slot(), base);
    EXPECT_LT(conn.session.slot(), base + 3);
    EXPECT_EQ(fabric.disconnect(conn.session).error, SvcError::kOk);
  }
}

TEST(ShardedFabric, GlobalScanOfFreshFabricConfirmsFirstTry) {
  auto fabric = make_a1_fabric(3, 2);
  const auto g = fabric.global_scan();
  EXPECT_EQ(g.view.size(), 6u);
  for (const Tag& t : g.view) EXPECT_TRUE(t.is_initial());
  EXPECT_EQ(g.attempts, 1u);
  EXPECT_FALSE(g.sealed);
}

TEST(ShardedFabric, UpdateLandsAtItsGlobalWordAndBumpsGeneration) {
  auto fabric = make_a1_fabric(2, 2);
  auto conn = fabric.connect(7, 1s);
  ASSERT_EQ(conn.error, SvcError::kOk);
  const std::size_t word = conn.session.slot();
  const std::size_t sh = conn.session.shard();
  const std::uint64_t gen_before = fabric.generation(sh);

  auto r = fabric.submit_update(
      conn.session, [](ProcessId p, std::uint64_t q) { return Tag{p, q}; });
  ASSERT_EQ(r.error, SvcError::kOk);
  ASSERT_EQ(fabric.flush(conn.session).error, SvcError::kOk);
  EXPECT_GT(fabric.generation(sh), gen_before);

  const auto g = fabric.global_scan();
  ASSERT_EQ(g.view.size(), 4u);
  // The stored tag carries the GLOBAL word index — unique fabric-wide.
  EXPECT_EQ(g.view[word], (Tag{static_cast<ProcessId>(word), 1}));
  for (std::size_t w = 0; w < g.view.size(); ++w) {
    if (w != word) {
      EXPECT_TRUE(g.view[w].is_initial());
    }
  }
  (void)fabric.disconnect(conn.session);
}

TEST(ShardedFabric, LocalScanCoversExactlyTheHomeShard) {
  auto fabric = make_a1_fabric(2, 3);
  auto conn = fabric.connect(5, 1s);
  ASSERT_EQ(conn.error, SvcError::kOk);
  auto s = fabric.scan(conn.session);
  ASSERT_EQ(s.error, SvcError::kOk);
  EXPECT_EQ(s.view.size(), 3u);
  EXPECT_EQ(s.word_base, conn.session.shard() * 3);
  (void)fabric.disconnect(conn.session);
}

TEST(ShardedFabric, ZeroAttemptBudgetForcesTheSealedPathExactly) {
  FabricConfig cfg;
  cfg.max_global_attempts = 0;  // straight to the quiesce fallback
  auto fabric = make_a1_fabric(2, 2, cfg);
  auto conn = fabric.connect(3, 1s);
  ASSERT_EQ(conn.error, SvcError::kOk);
  (void)fabric.submit_update(
      conn.session, [](ProcessId p, std::uint64_t q) { return Tag{p, q}; });
  ASSERT_EQ(fabric.flush(conn.session).error, SvcError::kOk);
  const std::size_t word = conn.session.slot();

  const auto g = fabric.global_scan();
  EXPECT_TRUE(g.sealed);
  EXPECT_EQ(g.attempts, 0u);
  ASSERT_EQ(g.view.size(), 4u);
  EXPECT_EQ(g.view[word], (Tag{static_cast<ProcessId>(word), 1}));

  const auto fs = fabric.fabric_stats();
  EXPECT_EQ(fs.global_scans, 1u);
  EXPECT_EQ(fs.sealed_scans, 1u);
  (void)fabric.disconnect(conn.session);
}

TEST(ShardedFabric, StatsAggregateAcrossShards) {
  auto fabric = make_a1_fabric(2, 2);
  std::size_t connected = 0;
  for (ClientId c = 0; c < 3; ++c) {
    auto conn = fabric.connect(c, 1s);
    ASSERT_EQ(conn.error, SvcError::kOk);
    ++connected;
    (void)fabric.submit_update(
        conn.session, [](ProcessId p, std::uint64_t q) { return Tag{p, q}; });
    (void)fabric.flush(conn.session);
    (void)fabric.scan(conn.session);
    (void)fabric.disconnect(conn.session);
  }
  const auto st = fabric.stats();
  EXPECT_EQ(st.connects, connected);
  EXPECT_EQ(st.disconnects, connected);
  EXPECT_EQ(st.submits, connected);
  EXPECT_EQ(st.scans, connected);
  const auto ls = fabric.lease_stats();
  EXPECT_EQ(ls.grants, connected);
  EXPECT_EQ(ls.releases, connected);
}

// ---------------------------------------------------------------------------
// Randomized churn across shards, typed over A1/A2/A3; exact check at the
// end over the mixed partial/global history.
// ---------------------------------------------------------------------------

/// A3 behind the single-writer adapter (m == n), as in svc_test.cpp.
class MwAsSw {
 public:
  MwAsSw(std::size_t n, const Tag& init) : snap_(n, n, init), adapter_(snap_) {}
  std::size_t size() const { return adapter_.size(); }
  void update(ProcessId i, Tag v) { adapter_.update(i, v); }
  std::vector<Tag> scan(ProcessId i) { return adapter_.scan(i); }

 private:
  core::BoundedMwSnapshot<Tag> snap_;
  core::SingleWriterAdapter<core::BoundedMwSnapshot<Tag>> adapter_;
};

template <typename S>
struct ShardChurnTest : public ::testing::Test {};

using ShardBackends =
    ::testing::Types<core::UnboundedSwSnapshot<Tag>,
                     core::BoundedSwSnapshot<Tag>, MwAsSw,
                     core::MvccSnapshot<Tag>>;
TYPED_TEST_SUITE(ShardChurnTest, ShardBackends);

struct PendingUpdate {
  std::uint64_t seq;
  Tag tag;
  lin::Time inv;
};

void complete_through(lin::Recorder& rec, std::vector<PendingUpdate>& pending,
                      std::size_t slot, std::uint64_t flushed_through) {
  if (pending.empty() || pending.front().seq > flushed_through) return;
  const lin::Time res = rec.tick();
  std::size_t i = 0;
  for (; i < pending.size() && pending[i].seq <= flushed_through; ++i) {
    rec.add_update(static_cast<ProcessId>(slot), slot, pending[i].tag,
                   pending[i].inv, res);
  }
  pending.erase(pending.begin(), pending.begin() + i);
}

template <typename Backend>
void run_shard_churn(bool cache_scans, std::size_t max_global_attempts,
                     std::uint64_t seed) {
  constexpr std::size_t kShards = 2;
  constexpr std::size_t kSlots = 3;  // per shard
  constexpr std::size_t kClients = 8;
  constexpr int kOpsPerClient = 100;

  FabricConfig cfg;
  cfg.service.cache_scans = cache_scans;
  cfg.service.max_batch = 4;
  cfg.service.lease.ttl = 50ms;
  cfg.max_global_attempts = max_global_attempts;
  std::vector<std::unique_ptr<Backend>> backends;
  for (std::size_t s = 0; s < kShards; ++s) {
    backends.push_back(std::make_unique<Backend>(kSlots, Tag{}));
  }
  ShardedSnapshotFabric<Backend, Tag> fabric(std::move(backends), cfg);
  lin::Recorder recorder(fabric.words());
  std::atomic<bool> go{false};

  {
    std::vector<std::jthread> threads;
    threads.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Rng rng(seed * 0x9E3779B9ULL + c);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        typename ShardedSnapshotFabric<Backend, Tag>::Session sess;
        std::vector<PendingUpdate> pending;
        auto connect = [&]() -> bool {
          for (int attempt = 0; attempt < 200; ++attempt) {
            auto conn = fabric.connect(static_cast<ClientId>(c), 500ms);
            if (conn.error == SvcError::kOk) {
              sess = conn.session;
              return true;
            }
          }
          return false;
        };
        ASSERT_TRUE(connect()) << "client " << c << " never got a lease";
        for (int op = 0; op < kOpsPerClient; ++op) {
          if (!sess.connected() && !connect()) break;
          const std::size_t slot = sess.slot();
          const double dice = rng.uniform01();
          if (dice < 0.05) {  // churn: flush, give the lease back, re-join
            const auto d = fabric.disconnect(sess);
            ASSERT_EQ(d.error, SvcError::kOk);
            complete_through(recorder, pending, slot, d.flushed_through);
            ASSERT_TRUE(pending.empty());
            continue;
          }
          if (dice < 0.20) {  // cross-shard global scan (lease-free)
            const lin::Time inv = recorder.tick();
            auto g = fabric.global_scan();
            const lin::Time res = recorder.tick();
            ASSERT_EQ(g.view.size(), fabric.words());
            recorder.add_scan(static_cast<ProcessId>(slot), 0,
                              std::move(g.view), inv, res);
          } else if (dice < 0.45) {  // shard-local scan (partial view)
            const lin::Time inv = recorder.tick();
            auto s = fabric.scan(sess);
            if (s.error == SvcError::kLeaseExpired) {
              complete_through(recorder, pending, slot, s.flushed_through);
              ASSERT_TRUE(pending.empty());
              sess = {};
              continue;
            }
            ASSERT_EQ(s.error, SvcError::kOk);
            const lin::Time res = recorder.tick();
            complete_through(recorder, pending, slot, s.flushed_through);
            recorder.add_scan(static_cast<ProcessId>(slot), s.word_base,
                              std::move(s.view), inv, res);
          } else {  // update (pipelined; acked at a covering flush)
            const lin::Time inv = recorder.tick();
            const auto r = fabric.submit_update(
                sess, [](ProcessId p, std::uint64_t q) { return Tag{p, q}; });
            if (r.error == SvcError::kLeaseExpired) {
              complete_through(recorder, pending, slot, r.flushed_through);
              ASSERT_TRUE(pending.empty());
              sess = {};
              continue;
            }
            ASSERT_EQ(r.error, SvcError::kOk);
            pending.push_back(
                {r.seq, Tag{static_cast<ProcessId>(slot), r.seq}, inv});
            complete_through(recorder, pending, slot, r.flushed_through);
          }
          if (rng.chance(0.01)) std::this_thread::yield();
        }
        if (sess.connected()) {
          const std::size_t slot = sess.slot();
          const auto d = fabric.disconnect(sess);
          complete_through(recorder, pending, slot, d.flushed_through);
        }
        ASSERT_TRUE(pending.empty());
      });
    }
    go.store(true, std::memory_order_release);
  }  // join

  lin::History history = recorder.take();
  EXPECT_GT(history.updates.size(), 0u);
  EXPECT_GT(history.scans.size(), 0u);
  const lin::CheckResult violation = lin::check_single_writer(history);
  EXPECT_FALSE(violation.has_value()) << *violation;

  const auto fs = fabric.fabric_stats();
  EXPECT_GT(fs.global_scans, 0u);
}

TYPED_TEST(ShardChurnTest, ChurningClientsStayLinearizableCacheOn) {
  run_shard_churn<TypeParam>(/*cache_scans=*/true, /*max_global_attempts=*/8,
                             /*seed=*/42);
}

TYPED_TEST(ShardChurnTest, ChurningClientsStayLinearizableCacheOff) {
  run_shard_churn<TypeParam>(/*cache_scans=*/false, /*max_global_attempts=*/8,
                             /*seed=*/1337);
}

/// Every global scan takes the sealed path: the quiesce fallback itself
/// must also compose linearizably under churn.
TYPED_TEST(ShardChurnTest, SealedFallbackStaysLinearizableUnderChurn) {
  run_shard_churn<TypeParam>(/*cache_scans=*/true, /*max_global_attempts=*/0,
                             /*seed=*/7);
}

}  // namespace
}  // namespace asnap
