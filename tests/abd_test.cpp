// Tests for the ABD register emulation and the message-passing snapshot
// (experiment E9): the protocol core's two state machines driven by an
// injected clock (QuorumRound, ReplicaCore), the client loop over a
// scripted transport, register atomicity, snapshot linearizability over
// the network, minority-crash resilience, and message-complexity
// accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "abd/abd_register.hpp"
#include "abd/abd_snapshot.hpp"
#include "abd/client.hpp"
#include "abd/core.hpp"
#include "lin/history.hpp"
#include "lin/snapshot_checker.hpp"

namespace asnap::abd {
namespace {

using namespace std::chrono_literals;
using lin::Tag;
using Frame = net::wire::BasicFrame<int>;

// --- QuorumRound: one client round, clock injected -------------------------

/// A fixed origin for the injected clock: only differences matter.
const Clock::time_point kT0 = Clock::time_point{} + 1h;

Frame reply(std::uint8_t type, std::uint64_t epoch, std::uint64_t ts = 0,
            int value = 0, bool confirmed = false) {
  Frame f;
  f.type = type;
  f.epoch = epoch;
  f.ts = ts;
  f.value = value;
  f.flags = confirmed ? net::wire::kFlagTsConfirmed : 0;
  return f;
}

Frame read_reply(std::uint64_t ts, int value, bool confirmed = false) {
  return reply(net::wire::kReadReply, 0, ts, value, confirmed);
}

/// One client's view of n replicas plus a round over them.
struct RoundFixture {
  explicit RoundFixture(std::size_t n, AbdConfig cfg = {},
                        Suspects suspects = {}, std::size_t needed = 0,
                        bool majority_first = false)
      : config(cfg), peers(n) {
    round.emplace(peers, config, counters,
                  QuorumRound<int>::Params{
                      .pid = 1,
                      .rid = 7,
                      .needed = needed != 0 ? needed : n / 2 + 1,
                      .rto = 1ms,
                      .suspects = std::move(suspects),
                      .majority_first = majority_first},
                  kT0);
  }

  /// Run a wave at `now` and return the replicas it targeted.
  std::set<std::size_t> wave(Clock::time_point now) {
    std::set<std::size_t> targets;
    round->wave(now, [&](std::size_t to) { targets.insert(to); });
    return targets;
  }

  /// Widen at `now` and return the replicas the hedge targeted.
  std::set<std::size_t> widen(Clock::time_point now) {
    std::set<std::size_t> targets;
    round->widen(now, [&](std::size_t to) { targets.insert(to); });
    return targets;
  }

  AbdConfig config;
  Counters counters;
  std::vector<Peer> peers;
  std::optional<QuorumRound<int>> round;
};

TEST(QuorumRound, CountsEachResponderOnce) {
  RoundFixture f(3);
  f.wave(kT0);
  f.round->on_reply(0, read_reply(1, 10), kT0 + 10us);
  f.round->on_reply(0, read_reply(1, 10), kT0 + 20us);  // duplicate
  EXPECT_EQ(f.round->counted(), 1u);
  EXPECT_EQ(load(f.counters.dup_replies), 1u);
  EXPECT_FALSE(f.round->done()) << "one replica must not fill a quorum of 2";
  f.round->on_reply(2, read_reply(1, 10), kT0 + 30us);
  EXPECT_TRUE(f.round->done());
}

TEST(QuorumRound, StaleEpochReplyLeavesReplicaUncounted) {
  RoundFixture f(3);
  f.peers[1].epoch_floor = 2;  // the client has heard incarnation 2
  f.wave(kT0);
  f.round->on_reply(1, reply(net::wire::kReadReply, 1, 5, 50), kT0 + 10us);
  EXPECT_EQ(f.round->counted(), 0u) << "a pre-crash reply must not count";
  EXPECT_EQ(load(f.counters.stale_epoch_replies), 1u);
  // The stale reply was not folded: its ts = 5 must not be adopted.
  f.round->on_reply(1, reply(net::wire::kReadReply, 3, 1, 10), kT0 + 20us);
  EXPECT_EQ(f.round->counted(), 1u) << "the current incarnation still counts";
  EXPECT_EQ(f.peers[1].epoch_floor, 3u) << "the floor rises to what was heard";
  EXPECT_EQ(f.round->best_ts(), 1u);
}

TEST(QuorumRound, UnanimousQuorumIsFastEvenAtTsZero) {
  RoundFixture f(3);
  f.wave(kT0);
  f.round->on_reply(0, read_reply(0, -1), kT0 + 10us);
  f.round->on_reply(1, read_reply(0, -1), kT0 + 10us);
  ASSERT_TRUE(f.round->done());
  EXPECT_EQ(f.round->best_value(), -1) << "the initial value is adopted";
  EXPECT_TRUE(f.round->fast_read())
      << "ts = 0 is never confirmed; unanimity alone proves stability";
}

TEST(QuorumRound, ConfirmedBitCountsOnlyOnBestTsReply) {
  // The confirmed reply is older than the adopted ts: no evidence, whether
  // it arrives before or after the best one.
  for (const bool older_first : {true, false}) {
    RoundFixture f(3);
    f.wave(kT0);
    const Frame older = read_reply(1, 10, /*confirmed=*/true);
    const Frame best = read_reply(2, 20);
    f.round->on_reply(0, older_first ? older : best, kT0 + 1us);
    f.round->on_reply(1, older_first ? best : older, kT0 + 2us);
    EXPECT_EQ(f.round->best_ts(), 2u);
    EXPECT_EQ(f.round->best_value(), 20);
    EXPECT_FALSE(f.round->fast_read()) << "older_first=" << older_first;
  }
  {  // a best-ts reply carries the bit: stable despite disagreement
    RoundFixture f(3);
    f.wave(kT0);
    f.round->on_reply(0, read_reply(1, 10), kT0 + 1us);
    f.round->on_reply(1, read_reply(2, 20, /*confirmed=*/true), kT0 + 2us);
    EXPECT_TRUE(f.round->fast_read());
  }
}

TEST(QuorumRound, DisagreementFallsBackUnlessUnsafeKnob) {
  for (const bool unsafe : {false, true}) {
    AbdConfig config;
    config.unsafe_always_fast_read = unsafe;
    RoundFixture f(3, config);
    f.wave(kT0);
    f.round->on_reply(0, read_reply(2, 20), kT0 + 1us);
    f.round->on_reply(2, read_reply(1, 10), kT0 + 2us);
    EXPECT_EQ(f.round->best_ts(), 2u);
    EXPECT_EQ(f.round->fast_read(), unsafe)
        << "only the negative-test knob may skip write-back without proof";
  }
  AbdConfig off;
  off.fast_reads = false;
  RoundFixture f(3, off);
  f.wave(kT0);
  f.round->on_reply(0, read_reply(2, 20), kT0 + 1us);
  f.round->on_reply(1, read_reply(2, 20), kT0 + 2us);
  EXPECT_FALSE(f.round->fast_read()) << "fast reads off: always write back";
}

TEST(QuorumRound, RetransmitWavesSkipCountedReplicasOnABackoffTimer) {
  RoundFixture f(3);
  EXPECT_EQ(f.round->retransmit_at(), kT0) << "the first wave is due at once";
  EXPECT_EQ(f.wave(kT0), (std::set<std::size_t>{0, 1, 2}));
  EXPECT_EQ(f.round->retransmit_at(), kT0 + 1ms);
  f.round->on_reply(1, read_reply(0, 0), kT0 + 10us);
  const auto t1 = kT0 + 1ms;
  EXPECT_EQ(f.wave(t1), (std::set<std::size_t>{0, 2}));
  EXPECT_EQ(f.round->retransmit_at(), t1 + 2ms) << "the timeout doubles";
  EXPECT_EQ(load(f.counters.retransmits), 1u);
  EXPECT_EQ(load(f.counters.rounds), 1u);
}

TEST(QuorumRound, MajorityFirstWaveAsksOnlyThePreferredReplicas) {
  RoundFixture f(5, {}, {}, 0, /*majority_first=*/true);
  for (const std::size_t r : {0, 2, 3}) f.peers[r].preferred = true;
  f.peers[0].rtt = 30us;
  f.peers[2].rtt = 50us;
  f.peers[3].rtt = 40us;
  f.peers[4].rtt = 900us;  // not asked, so it does not set the hedge
  EXPECT_EQ(f.wave(kT0), (std::set<std::size_t>{0, 2, 3}));
  EXPECT_EQ(f.round->widen_at(), kT0 + 50us)
      << "one smoothed RTT of the slowest replica asked";
  EXPECT_EQ(f.round->retransmit_at(), kT0 + 1ms);
  EXPECT_EQ(load(f.counters.requests), 3u);

  // Without the rule, or with no preference yet, the wave asks everyone
  // and the round never widens.
  for (const bool majority_first : {false, true}) {
    RoundFixture full(5, {}, {}, 0, majority_first);
    if (!majority_first) full.peers[0].preferred = true;
    EXPECT_EQ(full.wave(kT0), (std::set<std::size_t>{0, 1, 2, 3, 4}));
    EXPECT_EQ(full.round->widen_at(), Clock::time_point::max());
  }
}

TEST(QuorumRound, WidenAsksOnlyReplicasNeverAskedAndIsNoRetransmission) {
  RoundFixture f(5, {}, {}, 0, /*majority_first=*/true);
  for (const std::size_t r : {1, 2, 4}) f.peers[r].preferred = true;
  f.peers[1].rtt = f.peers[2].rtt = f.peers[4].rtt = 40us;
  EXPECT_EQ(f.wave(kT0), (std::set<std::size_t>{1, 2, 4}));
  f.round->on_reply(2, read_reply(0, 0), kT0 + 20us);
  const auto hedge = kT0 + 40us;
  EXPECT_EQ(f.widen(hedge), (std::set<std::size_t>{0, 3}))
      << "neither a counted replica nor a silent asked one is asked again";
  EXPECT_EQ(f.round->widen_at(), Clock::time_point::max()) << "widens once";
  EXPECT_EQ(f.round->retransmit_at(), kT0 + 1ms) << "the backoff is untouched";
  EXPECT_EQ(load(f.counters.retransmits), 0u);
  EXPECT_FALSE(f.round->retransmitted());
  EXPECT_EQ(load(f.counters.hedges), 1u);
  EXPECT_EQ(load(f.counters.requests), 5u) << "one request per replica";

  // A widened spare was sent the request once: its reply is a sample,
  // measured from the hedge.
  f.round->on_reply(3, read_reply(0, 0), hedge + 70us);
  EXPECT_EQ(f.peers[3].rtt, 70us);
  f.round->on_reply(4, read_reply(0, 0), hedge + 80us);
  EXPECT_TRUE(f.round->done());
  EXPECT_EQ(f.round->rank(2), 1u) << "counted in reply order";
  EXPECT_EQ(f.round->rank(3), 2u);
  EXPECT_EQ(f.round->rank(4), 3u);
  EXPECT_EQ(f.round->rank(1), 0u) << "silent: not counted";

  // A retransmission wave still asks every uncounted replica.
  RoundFixture g(3, {}, {}, 0, /*majority_first=*/true);
  g.peers[0].preferred = g.peers[1].preferred = true;
  g.wave(kT0);
  EXPECT_EQ(g.wave(kT0 + 1ms), (std::set<std::size_t>{0, 1, 2}));
  EXPECT_EQ(g.round->widen_at(), Clock::time_point::max());
  EXPECT_TRUE(g.round->retransmitted());
}

TEST(QuorumRound, KarnRuleSamplesOnlySingleTransmissions) {
  RoundFixture f(3);
  f.wave(kT0);
  f.round->on_reply(1, read_reply(0, 0), kT0 + 40us);  // answered wave 1
  f.wave(kT0 + 1ms);                                    // resend to 0 and 2
  f.round->on_reply(0, read_reply(0, 0), kT0 + 1ms + 30us);
  EXPECT_EQ(f.peers[1].rtt, 40us);
  EXPECT_EQ(f.peers[0].rtt.count(), 0)
      << "a reply after a retransmission may answer either copy: no sample";
}

TEST(QuorumRound, RttEstimateIsAnEwmaWithAlphaQuarter) {
  std::vector<Peer> peers(1);
  AbdConfig config;
  Counters counters;
  for (const auto rtt : {400us, 800us}) {
    QuorumRound<int> round(peers, config, counters, {.needed = 1, .rto = 1ms},
                           kT0);
    round.wave(kT0, [](std::size_t) {});
    round.on_reply(0, read_reply(0, 0), kT0 + rtt);
  }
  EXPECT_EQ(peers[0].rtt, 500us) << "400 + (800 - 400) / 4";
}

TEST(QuorumRound, RtoRuleClampsFourTimesTheSlowestEstimate) {
  AbdConfig config;  // initial_rto 20 ms, max_rto 160 ms
  constexpr std::chrono::microseconds kFloor = 500us;
  std::vector<Peer> peers(3);
  EXPECT_EQ(round_rto(peers, config, kFloor), config.initial_rto)
      << "no sample yet: the configured initial_rto";
  peers[0].rtt = 100us;
  peers[2].rtt = 300us;
  EXPECT_EQ(round_rto(peers, config, kFloor), 1200us)
      << "4 x the slowest replica";
  peers[2].rtt = 10us;
  EXPECT_EQ(round_rto(peers, config, kFloor), kFloor) << "floored";
  peers[2].rtt = 100ms;
  EXPECT_EQ(round_rto(peers, config, kFloor), config.max_rto) << "capped";
  config.max_rto = 300us;  // a cap below the floor wins, without UB
  peers[2].rtt = 10us;
  EXPECT_EQ(round_rto(peers, config, kFloor), 300us);
}

TEST(QuorumRound, BreakerSkipsSuspectsAndProbesEveryFourthWave) {
  AbdConfig config;
  config.breaker.enabled = true;
  RoundFixture f(3, config, [](std::size_t r) { return r == 2; });
  auto now = kT0;
  for (std::uint32_t wave = 1; wave <= 2 * kProbeEvery; ++wave) {
    const auto targets = f.wave(now);
    EXPECT_EQ(targets.count(2) == 1, wave % kProbeEvery == 0)
        << "wave " << wave;
    EXPECT_EQ(targets.count(0), 1u);
    now = f.round->retransmit_at();
  }
  EXPECT_EQ(load(f.counters.breaker_skips), 2 * (kProbeEvery - 1));
}

TEST(QuorumRound, BreakerFailsFastAfterGraceAndNeverShrinksTheQuorum) {
  AbdConfig config;
  config.breaker.enabled = true;
  config.breaker.fail_fast_grace = 10ms;
  const Suspects majority_down = [](std::size_t r) { return r != 0; };
  RoundFixture f(3, config, majority_down);
  f.wave(kT0);
  f.round->on_reply(0, read_reply(0, 0), kT0 + 10us);
  EXPECT_FALSE(f.round->done()) << "the breaker must not shrink the quorum";
  EXPECT_FALSE(f.round->starved(kT0 + 1ms)) << "grace starts now";
  EXPECT_FALSE(f.round->starved(kT0 + 10ms));
  EXPECT_TRUE(f.round->starved(kT0 + 11ms));
  EXPECT_EQ(load(f.counters.fail_fasts), 1u);

  // Only the negative-test knob shrinks it — and then never fails fast.
  config.breaker.unsafe_shrink_quorum = true;
  RoundFixture broken(3, config, majority_down);
  broken.wave(kT0);
  broken.round->on_reply(0, read_reply(0, 0), kT0 + 10us);
  EXPECT_TRUE(broken.round->done());
  EXPECT_FALSE(broken.round->starved(kT0 + 1s));
}

// --- ReplicaCore: one replica's rules ----------------------------------------

Frame request(std::uint8_t type, std::uint64_t ts = 0, int value = 0) {
  Frame f;
  f.type = type;
  f.rid = 42;
  f.ts = ts;
  f.value = value;
  return f;
}

TEST(ReplicaCore, WriteAppliesOnlyWhenNewerAndIsAlwaysAcked) {
  ReplicaCore<int> core;
  core.set_epoch(7);
  const std::pair<std::uint64_t, int> writes[] = {{2, 20}, {1, 10}, {2, 99}};
  for (const auto& [ts, value] : writes) {
    const auto ack = core.handle(request(net::wire::kWriteReq, ts, value));
    ASSERT_TRUE(ack.has_value()) << "every write is acked, stale or not";
    EXPECT_EQ(ack->type, net::wire::kWriteAck);
    EXPECT_EQ(ack->rid, 42u);
    EXPECT_EQ(ack->epoch, 7u) << "every reply carries the incarnation";
  }
  const auto read = core.handle(request(net::wire::kReadReq));
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->ts, 2u);
  EXPECT_EQ(read->value, 20) << "an equal or older ts never overwrites";
  EXPECT_EQ(read->epoch, 7u);
}

TEST(ReplicaCore, ConfirmsFoldByMaxAndGetNoReply) {
  ReplicaCore<int> core;
  EXPECT_FALSE(core.handle(request(net::wire::kConfirm, 3)).has_value());
  EXPECT_FALSE(core.handle(request(net::wire::kConfirm, 1)).has_value());
  EXPECT_EQ(core.confirmed_ts(0), 3u);
}

TEST(ReplicaCore, ConfirmedFlagIffTsPositiveAndConfirmedAtLeastTs) {
  ReplicaCore<int> core;
  const auto flagged = [&] {
    return (core.handle(request(net::wire::kReadReq))->flags &
            net::wire::kFlagTsConfirmed) != 0;
  };
  core.handle(request(net::wire::kConfirm, 5));
  EXPECT_FALSE(flagged()) << "ts = 0 is never served as confirmed";
  core.handle(request(net::wire::kWriteReq, 6, 60));
  EXPECT_FALSE(flagged()) << "confirmed 5 < ts 6";
  core.handle(request(net::wire::kConfirm, 6));
  EXPECT_TRUE(flagged());
  core.handle(request(net::wire::kWriteReq, 7, 70));
  core.handle(request(net::wire::kConfirm, 9));
  EXPECT_TRUE(flagged()) << "confirmed beyond the stored ts still proves it";
}

TEST(ReplicaCore, InstallFromResyncNeverConfirms) {
  ReplicaCore<int> core;
  core.install(0, 4, 40);
  core.install(0, 3, 30);  // older: ignored
  EXPECT_EQ(core.ts(0), 4u);
  EXPECT_EQ(core.confirmed_ts(0), 0u);
  const auto read = core.handle(request(net::wire::kReadReq));
  EXPECT_EQ(read->value, 40);
  EXPECT_EQ(read->flags & net::wire::kFlagTsConfirmed, 0)
      << "knowing a value is not knowing a majority stores it";
}

// --- Client over a scripted Transport ---------------------------------------

/// A Transport (client.hpp) whose replies come from a script. Each wait()
/// answers the latest request with the next scripted reply, `delay` after
/// the wait began. A replica that was not sent that request stays silent,
/// and so does a used-up script: the wait sleeps to its deadline and
/// returns nothing, as a silent network would. Reads ask a majority first,
/// as over sockets.
struct ScriptedTransport {
  static constexpr bool kAlwaysAdaptiveRto = false;
  static constexpr std::chrono::microseconds kMinRto{200};
  static constexpr bool kMajorityFirst = true;
  using Reply = std::function<net::wire::Received<int>(const Frame& request)>;
  struct Sent {
    std::size_t to;
    Frame frame;
  };
  struct Script {
    std::vector<Sent> sent;
    std::deque<Reply> replies;
    Clock::duration delay{0};
    bool closed = false;
    int waits = 0;

    /// The replicas request `rid` was sent to.
    std::set<std::size_t> asked(std::uint64_t rid) const {
      std::set<std::size_t> to;
      for (const Sent& s : sent) {
        if (s.frame.rid == rid) to.insert(s.to);
      }
      return to;
    }
    std::uint64_t last_rid() const { return sent.back().frame.rid; }
  };
  Script* script;

  std::size_t size() const { return 3; }
  std::uint64_t self() const { return 9; }
  void send(std::size_t to, const Frame& frame, Clock::time_point) {
    script->sent.push_back({to, frame});
  }
  std::optional<net::wire::Received<int>> wait(Clock::time_point deadline) {
    ++script->waits;
    if (script->closed) return std::nullopt;
    if (!script->replies.empty()) {
      const Frame& latest = script->sent.back().frame;
      auto next = script->replies.front()(latest);
      if (script->asked(latest.rid).count(next.from) != 0) {
        script->replies.pop_front();
        std::this_thread::sleep_for(script->delay);
        return next;
      }
    }
    std::this_thread::sleep_until(deadline);
    return std::nullopt;
  }
  bool closed() const { return script->closed; }
  std::uint64_t epoch_floor(std::size_t) const { return 0; }
  Suspects suspects() const { return {}; }
};

/// The scripted transport with the rule off: every read is a full wave,
/// as in process.
struct FullWaveTransport : ScriptedTransport {
  static constexpr bool kMajorityFirst = false;
};

/// Replica `from` answering a request with (ts, value); `rids_back` > 0
/// answers the request that many rounds earlier instead.
ScriptedTransport::Reply answer(std::size_t from, std::uint64_t ts, int value,
                                std::uint64_t rids_back = 0) {
  return [=](const Frame& request) {
    Frame f = read_reply(ts, value);
    if (request.type == net::wire::kWriteReq) f.type = net::wire::kWriteAck;
    f.rid = request.rid - rids_back;
    return net::wire::Received<int>{from, f};
  };
}

template <typename Transport = ScriptedTransport>
struct ClientFixture {
  explicit ClientFixture(AbdConfig cfg = {}) : config(cfg) {}
  AbdConfig config;
  Counters counters;
  ScriptedTransport::Script script;
  Client<int, Transport> client{Transport{{&script}}, config, counters};
};

/// Timing for the majority-first tests: no retransmission timer can fire
/// within a test, and scripted replies that take `kLatency` give the
/// client RTT estimates far above the time a test takes to process them.
AbdConfig patient_config() {
  AbdConfig cfg;
  cfg.initial_rto = 2s;
  cfg.max_rto = 2s;
  return cfg;
}
constexpr auto kLatency = 50ms;

TEST(ClientTransport, ReplyToAnEarlierRidIsSkipped) {
  ClientFixture f;
  f.script.replies = {answer(0, 9, 90, /*rids_back=*/1), answer(0, 2, 20),
                      answer(1, 2, 20)};
  const auto got = f.client.query(0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->ts, 2u) << "the earlier round's reply must not be adopted";
  EXPECT_EQ(got->value, 20);
  EXPECT_EQ(f.script.waits, 3);
}

TEST(ClientTransport, TwoMatchingRepliesEndTheRoundWithTheAdoptedPair) {
  ClientFixture f;
  f.script.replies = {answer(2, 3, 30), answer(0, 5, 50)};
  const auto got = f.client.query(0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->ts, 5u);
  EXPECT_EQ(got->value, 50);
  EXPECT_EQ(f.script.waits, 2) << "a majority of 3 ends the round";
  EXPECT_EQ(f.script.sent.size(), 3u) << "one wave, no retransmission";
  EXPECT_EQ(f.script.asked(f.script.last_rid()),
            (std::set<std::size_t>{0, 1, 2}))
      << "a resync query asks every replica";
  EXPECT_EQ(load(f.counters.retransmits), 0u);
}

TEST(ClientTransport, NextReadAsksTheFirstTwoRespondersOfThePreviousRound) {
  ClientFixture f(patient_config());
  f.script.delay = kLatency;
  f.script.replies = {answer(2, 1, 10), answer(0, 1, 10)};
  ASSERT_TRUE(f.client.read(0).has_value());
  EXPECT_EQ(f.script.asked(f.script.last_rid()),
            (std::set<std::size_t>{0, 1, 2}))
      << "no preference yet: a full wave";

  f.script.delay = 0s;
  f.script.replies = {answer(0, 1, 10), answer(2, 1, 10)};
  ASSERT_TRUE(f.client.read(0).has_value());
  EXPECT_EQ(f.script.asked(f.script.last_rid()),
            (std::set<std::size_t>{0, 2}));
  EXPECT_EQ(load(f.counters.requests), 5u);
  EXPECT_EQ(load(f.counters.hedges), 0u);

  // A write still asks every replica.
  f.script.replies = {answer(1, 2, 20), answer(2, 2, 20)};
  ASSERT_EQ(f.client.write(0, 2, 20), OpStatus::kOk);
  EXPECT_EQ(f.script.asked(f.script.sent[5].frame.rid),
            (std::set<std::size_t>{0, 1, 2}));
}

TEST(ClientTransport, SilentPreferredReplicaIsCoveredByTheHedgeBeforeTheRto) {
  ClientFixture f(patient_config());
  f.script.delay = kLatency;
  f.script.replies = {answer(0, 1, 10), answer(1, 1, 10)};
  ASSERT_TRUE(f.client.read(0).has_value());  // prefers {0, 1}

  // Replica 1 stays silent: replica 2, once asked, completes the quorum.
  f.script.delay = 0s;
  f.script.replies = {answer(0, 1, 10), answer(2, 1, 10)};
  const auto start = Clock::now();
  ASSERT_TRUE(f.client.read(0).has_value());
  const auto took = Clock::now() - start;
  EXPECT_GE(took, kLatency) << "the hedge waits one RTT estimate";
  EXPECT_LT(took, f.config.initial_rto) << "and comes before the RTO";
  EXPECT_EQ(f.script.sent.back().to, 2u) << "the hedge asked the spare";
  EXPECT_EQ(f.script.asked(f.script.last_rid()),
            (std::set<std::size_t>{0, 1, 2}));
  EXPECT_EQ(load(f.counters.hedges), 1u);
  EXPECT_EQ(load(f.counters.retransmits), 0u);
  EXPECT_EQ(load(f.counters.requests), 6u) << "3 + 2 + the hedge's 1";

  // The hedged round was clean: its first responders are preferred now.
  f.script.replies = {answer(2, 1, 10), answer(0, 1, 10)};
  ASSERT_TRUE(f.client.read(0).has_value());
  EXPECT_EQ(f.script.asked(f.script.last_rid()),
            (std::set<std::size_t>{0, 2}));
}

TEST(ClientTransport, TimedOutReadLeavesNoPreference) {
  AbdConfig cfg = patient_config();
  cfg.op_deadline = 100ms;
  ClientFixture f(cfg);
  f.script.replies = {answer(0, 1, 10), answer(1, 1, 10)};
  ASSERT_TRUE(f.client.read(0).has_value());
  f.script.replies.clear();  // nobody answers: the read times out
  EXPECT_FALSE(f.client.read(0).has_value());
  f.script.replies = {answer(0, 1, 10), answer(1, 1, 10)};
  ASSERT_TRUE(f.client.read(0).has_value());
  EXPECT_EQ(f.script.asked(f.script.last_rid()),
            (std::set<std::size_t>{0, 1, 2}));
}

TEST(ClientTransport, TransportWithTheRuleOffKeepsFullWaves) {
  ClientFixture<FullWaveTransport> f(patient_config());
  for (int read = 0; read < 2; ++read) {
    f.script.replies = {answer(2, 1, 10), answer(0, 1, 10)};
    ASSERT_TRUE(f.client.read(0).has_value());
    EXPECT_EQ(f.script.asked(f.script.last_rid()),
              (std::set<std::size_t>{0, 1, 2}))
        << "read " << read;
  }
  EXPECT_EQ(load(f.counters.requests), 6u);
  EXPECT_EQ(load(f.counters.hedges), 0u);
}

TEST(ClientTransport, SilenceUntilTheDeadlineTimesOutAfterRetransmissions) {
  AbdConfig cfg;
  cfg.initial_rto = 2ms;
  cfg.max_rto = 4ms;
  cfg.op_deadline = 30ms;
  ClientFixture f(cfg);
  const auto start = Clock::now();
  EXPECT_EQ(f.client.write(0, 1, 10), OpStatus::kTimeout);
  EXPECT_GE(Clock::now() - start, 30ms) << "the deadline is waited out";
  EXPECT_GE(load(f.counters.retransmits), 2u);
  EXPECT_GT(f.script.sent.size(), 3u) << "waves after the first";
  EXPECT_EQ(load(f.counters.round_timeouts), 1u);
}

TEST(ClientTransport, ClosedTransportIsKClosed) {
  ClientFixture f;
  f.script.closed = true;
  EXPECT_EQ(f.client.write(0, 1, 10), OpStatus::kClosed);
  EXPECT_FALSE(f.client.read(0).has_value());
  EXPECT_EQ(f.script.waits, 2) << "one wait per operation, no spinning";
}

// --- AbdCluster --------------------------------------------------------------

TEST(AbdCluster, ReadsBackOwnWrite) {
  AbdCluster<int> cluster(3, 3, 0);
  cluster.write(0, 0, 41);
  EXPECT_EQ(cluster.read(0, 1), 41);
  EXPECT_EQ(cluster.read(0, 2), 41);
}

TEST(AbdCluster, RegistersAreIndependent) {
  AbdCluster<int> cluster(3, 3, -1);
  cluster.write(0, 0, 10);
  cluster.write(2, 2, 30);
  EXPECT_EQ(cluster.read(0, 1), 10);
  EXPECT_EQ(cluster.read(1, 1), -1);
  EXPECT_EQ(cluster.read(2, 1), 30);
}

TEST(AbdCluster, LastWriteWins) {
  AbdCluster<int> cluster(3, 1, 0);
  for (int v = 1; v <= 20; ++v) cluster.write(0, 0, v);
  EXPECT_EQ(cluster.read(0, 2), 20);
}

TEST(AbdCluster, SurvivesMinorityCrash) {
  AbdCluster<int> cluster(5, 5, 0);
  cluster.write(0, 0, 1);
  cluster.crash(3);
  cluster.crash(4);
  EXPECT_EQ(cluster.alive_count(), 3u);
  // Majority (3 of 5) still alive: operations keep completing.
  cluster.write(1, 1, 11);
  EXPECT_EQ(cluster.read(0, 2), 1);
  EXPECT_EQ(cluster.read(1, 2), 11);
}

TEST(AbdCluster, MonotoneReadsUnderConcurrentWriter) {
  AbdCluster<std::uint64_t> cluster(3, 1, 0);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads_done{0};
  std::jthread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t v = cluster.read(0, 1);
      ASSERT_GE(v, last) << "ABD register went backwards";
      last = v;
      reads_done.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::uint64_t v = 1; v <= 300; ++v) cluster.write(0, 0, v);
  while (reads_done.load(std::memory_order_relaxed) < 5) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
}

TEST(AbdCluster, MessageCountPerOperation) {
  constexpr std::size_t kNodes = 5;
  AbdCluster<int> cluster(kNodes, kNodes, 0);
  const std::uint64_t before_write = cluster.messages_sent();
  cluster.write(0, 0, 7);
  const std::uint64_t write_msgs = cluster.messages_sent() - before_write;
  // One broadcast (n requests) + at least a majority of acks, at most n,
  // plus the fire-and-forget confirm broadcast (n) and possible stragglers
  // from earlier rounds still being emitted.
  EXPECT_GE(write_msgs, kNodes + cluster.majority());
  EXPECT_LE(write_msgs, 2 * kNodes + 2 * kNodes);

  const std::uint64_t before_read = cluster.messages_sent();
  (void)cluster.read(0, 1);
  const std::uint64_t read_msgs = cluster.messages_sent() - before_read;
  // Fast reads are on by default and the write above was confirmed, so the
  // read is ONE round: one broadcast plus at least the majority of replies,
  // at most 2n — and strictly fewer messages than the old two-round floor.
  EXPECT_EQ(cluster.fast_reads(), 1u);
  EXPECT_EQ(cluster.fast_fallbacks(), 0u);
  EXPECT_GE(read_msgs, kNodes + cluster.majority());
  EXPECT_LT(read_msgs, 2 * kNodes + cluster.majority());
}

TEST(AbdCluster, MessageCountPerOperationSlowPath) {
  constexpr std::size_t kNodes = 5;
  AbdConfig config;
  config.fast_reads = false;
  AbdCluster<int> cluster(kNodes, kNodes, 0, /*seed=*/1, config);
  cluster.write(0, 0, 7);
  const std::uint64_t before_read = cluster.messages_sent();
  (void)cluster.read(0, 1);
  const std::uint64_t read_msgs = cluster.messages_sent() - before_read;
  // Two rounds (query + write-back): at least the two broadcasts plus the
  // query-round majority; at most 4n plus the write-back confirm broadcast
  // and stragglers.
  EXPECT_EQ(cluster.fast_reads(), 0u);
  EXPECT_GE(read_msgs, 2 * kNodes + cluster.majority());
  EXPECT_LE(read_msgs, 4 * kNodes + 2 * kNodes);
}

TEST(AbdCluster, SurvivesLinkFailures) {
  // 5 nodes; cut links (0,3), (0,4), (1,4): node 0 still reaches {0,1,2}
  // (its majority), node 1 reaches {0,1,2,3}. Operations keep completing —
  // the paper's "resilient to process and link failures, as long as a
  // majority of the system remains connected".
  AbdCluster<int> cluster(5, 5, 0);
  cluster.cut_link(0, 3);
  cluster.cut_link(0, 4);
  cluster.cut_link(1, 4);
  cluster.write(0, 0, 7);
  EXPECT_EQ(cluster.read(0, 1), 7);
  cluster.write(1, 1, 9);
  EXPECT_EQ(cluster.read(1, 0), 9);
  EXPECT_EQ(cluster.read(0, 2), 7);
}

TEST(AbdCluster, LinkFailuresPlusMinorityCrash) {
  AbdCluster<int> cluster(5, 5, 0);
  cluster.crash(4);
  cluster.cut_link(0, 3);  // node 0's quorum is now exactly {0,1,2}
  cluster.write(0, 0, 11);
  EXPECT_EQ(cluster.read(0, 1), 11);
}

// --- The message-passing snapshot itself -------------------------------------

TEST(MessagePassingSnapshot, SequentialSemantics) {
  MessagePassingSnapshot<int> snap(3, 0);
  snap.update(1, 7);
  const std::vector<int> view = snap.scan(0);
  EXPECT_EQ(view, (std::vector<int>{0, 7, 0}));
}

TEST(MessagePassingSnapshot, ConcurrentHistoriesAreLinearizable) {
  constexpr std::size_t kN = 3;
  MessagePassingSnapshot<Tag> snap(kN, Tag{});
  lin::Recorder recorder(kN);
  {
    std::vector<std::jthread> threads;
    for (std::size_t p = 0; p < kN; ++p) {
      threads.emplace_back([&, pid = static_cast<ProcessId>(p)] {
        std::uint64_t seq = 0;
        for (int op = 0; op < 12; ++op) {
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
  const auto violation = lin::check_single_writer(recorder.take());
  ASSERT_FALSE(violation.has_value()) << *violation;
}

TEST(MessagePassingSnapshot, LiveAndLinearizableAfterMinorityCrash) {
  constexpr std::size_t kN = 5;
  MessagePassingSnapshot<Tag> snap(kN, Tag{});
  lin::Recorder recorder(kN);
  {
    // A value from the soon-to-be-crashed node, recorded so the checker
    // knows the tag exists.
    const lin::Time inv = recorder.tick();
    snap.update(4, Tag{4, 1});
    const lin::Time res = recorder.tick();
    recorder.add_update(4, 4, Tag{4, 1}, inv, res);
  }
  snap.crash(3);
  snap.crash(4);

  {
    std::vector<std::jthread> threads;
    for (std::size_t p = 0; p < 3; ++p) {  // survivors only
      threads.emplace_back([&, pid = static_cast<ProcessId>(p)] {
        std::uint64_t seq = 0;
        for (int op = 0; op < 8; ++op) {
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
  const auto violation = lin::check_single_writer(history);
  ASSERT_FALSE(violation.has_value()) << *violation;
  // The crashed node's pre-crash update must still be visible (it reached a
  // majority): every scan shows word 4 == Tag{4, 1}.
  ASSERT_FALSE(history.scans.empty());
  for (const lin::ScanOp& s : history.scans) {
    EXPECT_EQ(s.view[4], (Tag{4, 1}));
  }
}

}  // namespace
}  // namespace asnap::abd
