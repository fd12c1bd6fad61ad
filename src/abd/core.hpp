// The ABD protocol core: the rules of one client quorum round and of one
// replica, written once as two pure state machines.
//
// [ABD] (Section 6's register emulation) is one algorithm whatever carries
// its messages, so every transport drives the same code:
//   * abd::Client (client.hpp) runs QuorumRound over the in-process
//     SimNetwork client port (AbdCluster) and over net::TcpBus
//     (RemoteRegisterClient);
//   * AbdCluster's replica threads and tools/abd_replicad's event loop
//     feed requests to ReplicaCore.
// Neither machine touches a socket, a mailbox or the clock: the caller
// passes `now` in, so tests drive them with an injected clock. (Their trace
// events, when tracing is switched on, stamp themselves.)
//
// QuorumRound — one round of one client:
//   * targets: each transmission wave goes to every replica not yet
//     counted; with the circuit breaker armed it also skips suspected
//     replicas, except on every kProbeEvery-th wave, so a healed replica is
//     re-admitted without waiting for the detector;
//   * majority-first: a round told to may send its first wave only to the
//     client's preferred replicas (Peer::preferred, the first responders of
//     its last clean round). If the quorum is not counted within one
//     smoothed RTT of the slowest of them, widen() sends the request once
//     to every replica not yet asked. That hedge is not a retransmission:
//     the backoff does not grow and each spare's reply is a Karn-clean RTT
//     sample;
//   * dedup: a replica counts once, however many replies it sends;
//   * epoch filter: a reply stamped below the replica's epoch floor (the
//     highest incarnation the client has heard from it) comes from a
//     pre-crash incarnation whose state may predate acked writes; it is
//     dropped and the replica stays uncounted, so its current incarnation
//     can still answer;
//   * evidence fold and the fast/slow decision (Oh-RAM!, DESIGN.md §15): a
//     read adopts the highest (ts, value) and may skip its write-back when
//     every counted reply carried that ts — the quorum itself is a majority
//     storing it — or a best-ts reply carried the confirmed bit;
//   * RTT: a reply is a sample only if its replica was sent the request
//     exactly once this round (Karn's rule: after a retransmission the
//     reply may answer any copy, and measuring it against the latest copy
//     would shrink the RTO on exactly the links that lose messages);
//   * fail fast: with the breaker armed, the round gives up once fewer
//     plausibly-live replicas than the quorum needs have persisted past
//     fail_fast_grace. The breaker never shrinks the quorum itself, so
//     safety does not depend on the detector being right.
//
// ReplicaCore — one replica: apply WRITE(ts, v) iff ts is newer and always
// ack (retransmitted and duplicated requests are therefore harmless), serve
// READ with the confirmed flag, fold CONFIRM by max, stamp every reply with
// the replica's incarnation epoch.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/backoff.hpp"
#include "net/wire.hpp"
#include "trace/event.hpp"

namespace asnap::abd {

using Clock = std::chrono::steady_clock;

/// Outcome of one client quorum round / operation.
enum class OpStatus : std::uint8_t {
  kOk = 0,
  kTimeout = 1,  ///< no majority of distinct replicas answered in time
  kClosed = 2,   ///< the client's own endpoint closed (node crashed/shutdown)
};

/// Circuit-breaker knobs, consulted only when `enabled` is set AND the
/// transport has a failure detector (AbdCluster::attach_detector).
struct BreakerConfig {
  bool enabled = false;
  /// Fail the round (kTimeout) once fewer plausibly-live replicas than the
  /// quorum needs — non-suspected or already counted this round — have
  /// persisted continuously for this long. Keeps degraded-mode latency at
  /// detector scale instead of op_deadline scale.
  std::chrono::microseconds fail_fast_grace{std::chrono::milliseconds(25)};
  /// NEGATIVE-TEST ONLY: let the breaker shrink the quorum by the number of
  /// suspected replicas. This breaks the majority-intersection safety
  /// argument of [ABD]; it exists so the chaos checkers can demonstrate
  /// they catch exactly this class of bug. Never set it elsewhere.
  bool unsafe_shrink_quorum = false;
};

/// Client-side timing knobs. Defaults are generous so fault-free workloads
/// never retransmit spuriously; fault-heavy tests tighten them.
struct AbdConfig {
  /// First retransmission timeout of a round until RTT samples exist (see
  /// round_rto); doubles (RetryBackoff) up to max_rto on every
  /// retransmission.
  std::chrono::microseconds initial_rto{std::chrono::milliseconds(20)};
  std::chrono::microseconds max_rto{std::chrono::milliseconds(160)};
  /// Total budget for one operation (a read spends it across both its query
  /// and write-back rounds). On expiry the operation reports kTimeout.
  std::chrono::microseconds op_deadline{std::chrono::seconds(10)};
  /// One-round fast reads (Oh-RAM! / Imbs–Raynal style): skip the
  /// write-back round when the query quorum proves the adopted value is
  /// already stable at a majority — every counted replier reported
  /// best_ts, or a best_ts reply carried the confirmed bit. Any other
  /// evidence falls back to the full query + write-back slow path.
  bool fast_reads = true;
  /// NEGATIVE-TEST ONLY: skip the write-back round unconditionally, with no
  /// stability evidence. This reintroduces the new/old inversion [ABD]'s
  /// write-back exists to prevent; it exists so the exact checker can
  /// demonstrate it catches exactly this class of bug. Never set it
  /// elsewhere.
  bool unsafe_always_fast_read = false;
  BreakerConfig breaker;
};

/// A retransmission earlier than this many smoothed RTTs mostly duplicates
/// traffic still in flight; past it, the original was probably lost.
inline constexpr int kRtoPerRtt = 4;
/// With the breaker armed, every kProbeEvery-th wave also targets the
/// suspected replicas.
inline constexpr std::uint32_t kProbeEvery = 4;

/// A client's protocol counters: relaxed atomics, so a stats reader on
/// another thread never races a round. One set per client: clients that
/// share one write its cache line from every core in every round.
struct Counters {
  /// Rounds started (query / write / write-back), not counting the
  /// retransmission waves within a round.
  std::atomic<std::uint64_t> rounds{0};
  std::atomic<std::uint64_t> fast_reads{0};      ///< write-back skipped
  std::atomic<std::uint64_t> fast_fallbacks{0};  ///< fast path refused
  std::atomic<std::uint64_t> retransmits{0};     ///< retransmission waves
  /// Request frames sent by rounds: first waves, hedges and retransmission
  /// waves (confirms are not a round's).
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> hedges{0};  ///< rounds that widened
  std::atomic<std::uint64_t> dup_replies{0};
  std::atomic<std::uint64_t> round_timeouts{0};
  std::atomic<std::uint64_t> breaker_skips{0};
  std::atomic<std::uint64_t> fail_fasts{0};
  std::atomic<std::uint64_t> stale_epoch_replies{0};
};

inline void bump(std::atomic<std::uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

inline std::uint64_t load(const std::atomic<std::uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

/// What a client remembers about one replica across rounds.
struct Peer {
  std::uint64_t epoch_floor = 0;  ///< highest incarnation heard from it
  /// EWMA (alpha = 1/4) of Karn-clean RTT samples; 0 = no sample yet.
  std::chrono::nanoseconds rtt{0};
  /// Among the first majority to answer the client's last clean round
  /// (completed without a retransmission wave); see Params::majority_first.
  bool preferred = false;
};

/// The RTO rule: clamp(kRtoPerRtt x the slowest replica's estimate, floor,
/// max_rto) — a quorum waits on several replicas, so the slowest one it
/// still talks to sets the pace. initial_rto until the first sample. The
/// floor is the transport's (its kMinRto); a max_rto below it wins.
inline std::chrono::microseconds round_rto(const std::vector<Peer>& peers,
                                           const AbdConfig& config,
                                           std::chrono::microseconds floor) {
  std::chrono::nanoseconds slowest{0};
  for (const Peer& peer : peers) slowest = std::max(slowest, peer.rtt);
  if (slowest.count() == 0) return config.initial_rto;
  const auto rto = std::chrono::duration_cast<std::chrono::microseconds>(
      slowest * kRtoPerRtt);
  return std::min(config.max_rto, std::max(floor, rto));
}

/// The breaker's view of one replica: is it suspected right now? Empty when
/// the breaker is not armed for the round.
using Suspects = std::function<bool(std::size_t replica)>;

template <typename V>
class QuorumRound {
 public:
  using Frame = net::wire::BasicFrame<V>;

  struct Params {
    std::uint32_t pid = 0;   ///< client id, for traces
    std::uint64_t rid = 0;   ///< request id, for traces
    std::size_t needed = 0;  ///< distinct replies the round must count
    std::chrono::microseconds rto{0};  ///< first retransmission timeout
    Suspects suspects{};     ///< the breaker, or empty when not armed
    /// Send the first wave only to the preferred peers, when there are
    /// any, and widen to the rest after one RTT (see widen_at).
    bool majority_first = false;
  };

  /// `peers`, `config` and `counters` must outlive the round. The first
  /// wave is due at `now`.
  QuorumRound(std::vector<Peer>& peers, const AbdConfig& config,
              Counters& counters, Params params, Clock::time_point now)
      : peers_(peers),
        config_(config),
        counters_(counters),
        p_(std::move(params)),
        sends_(peers.size(), 0),
        first_tx_(peers.size()),
        counted_(peers.size(), 0),
        backoff_(p_.rto, std::max(p_.rto, config.max_rto)),
        retransmit_at_(now) {
    bump(counters_.rounds);
    ASNAP_TRACE_EVENT(trace::EventKind::kAbdRoundBegin, p_.pid, p_.rid,
                      p_.needed);
  }

  /// When the next wave is due: at once for the first, then on the
  /// exponentially growing retransmission timer.
  Clock::time_point retransmit_at() const { return retransmit_at_; }

  /// When the round widens: one smoothed RTT of the slowest replica of a
  /// majority-first wave after that wave (one with no estimate counts 0);
  /// never when no replica was held back, or once the round has widened.
  Clock::time_point widen_at() const { return widen_at_; }

  /// Transmit the next wave through `send(replica)` and arm its timer.
  template <typename Send>
  void wave(Clock::time_point now, Send&& send) {
    const bool first = ++waves_ == 1;
    const bool probe = waves_ % kProbeEvery == 0;
    if (!first) {
      bump(counters_.retransmits);
      ASNAP_TRACE_EVENT(trace::EventKind::kAbdRetransmit, p_.pid, p_.rid);
      backoff_.grow();
    }
    const bool preferred_only =
        first && p_.majority_first &&
        std::any_of(peers_.begin(), peers_.end(),
                    [](const Peer& peer) { return peer.preferred; });
    bool held_back = false;
    std::chrono::nanoseconds slowest{0};
    for (std::size_t to = 0; to < peers_.size(); ++to) {
      if (counted_[to]) continue;
      if (preferred_only && !peers_[to].preferred) {
        held_back = true;
        continue;
      }
      transmit(to, now, probe, send);
      slowest = std::max(slowest, peers_[to].rtt);
    }
    retransmit_at_ = now + backoff_.current();
    widen_at_ = held_back ? now + slowest : Clock::time_point::max();
  }

  /// The hedge of a majority-first round: send the request once to every
  /// replica not asked yet. No retransmission is counted, the backoff does
  /// not grow, and a spare's reply is an RTT sample like any single send.
  template <typename Send>
  void widen(Clock::time_point now, Send&& send) {
    widen_at_ = Clock::time_point::max();
    bump(counters_.hedges);
    for (std::size_t to = 0; to < peers_.size(); ++to) {
      if (sends_[to] == 0 && !counted_[to]) transmit(to, now, false, send);
    }
  }

  /// Whether a retransmission wave was sent.
  bool retransmitted() const { return waves_ > 1; }

  /// The order in which `replica`'s reply was counted: 1 for the first, 0
  /// when it was not counted.
  std::size_t rank(std::size_t replica) const { return counted_[replica]; }

  /// Feed one reply to this round's request (rid and type already matched)
  /// from replica `from`, received at `now`.
  void on_reply(std::size_t from, const Frame& reply, Clock::time_point now) {
    Peer& peer = peers_[from];
    if (reply.epoch < peer.epoch_floor) {
      bump(counters_.stale_epoch_replies);
      ASNAP_TRACE_EVENT(trace::EventKind::kStaleEpochReply, p_.pid, from,
                        reply.epoch);
      return;
    }
    peer.epoch_floor = reply.epoch;
    if (counted_[from]) {
      bump(counters_.dup_replies);
      return;
    }
    counted_[from] = ++counted_count_;
    if (sends_[from] == 1) {  // Karn's rule: only an unambiguous sample
      const auto rtt = std::max<std::chrono::nanoseconds>(
          now - first_tx_[from], std::chrono::nanoseconds(1));
      peer.rtt = peer.rtt.count() == 0 ? rtt : peer.rtt + (rtt - peer.rtt) / 4;
    }
    if (reply.type == net::wire::kReadReply) fold(reply);
  }

  /// Whether the round has counted its quorum. Always `needed` distinct
  /// replies — except under unsafe_shrink_quorum, which deducts the
  /// currently suspected uncounted replicas.
  bool done() const {
    std::size_t needed = p_.needed;
    if (p_.suspects && config_.breaker.unsafe_shrink_quorum) {
      const std::size_t suspected = uncounted_suspects();
      needed = needed > suspected + 1 ? needed - suspected : 1;
    }
    return counted_count_ >= needed;
  }

  /// The breaker's fail-fast: true once fewer plausibly-live replicas
  /// (counted, or not suspected) than the quorum needs have persisted for
  /// fail_fast_grace.
  bool starved(Clock::time_point now) {
    if (!p_.suspects || config_.breaker.unsafe_shrink_quorum) return false;
    const std::size_t plausible = peers_.size() - uncounted_suspects();
    if (plausible >= p_.needed) {
      starved_since_.reset();
      return false;
    }
    if (!starved_since_) starved_since_ = now;
    if (now - *starved_since_ < config_.breaker.fail_fast_grace) return false;
    bump(counters_.fail_fasts);
    ASNAP_TRACE_EVENT(trace::EventKind::kBreakerFailFast, p_.pid, p_.rid,
                      plausible);
    return true;
  }

  /// The fast-read decision: may a read return the adopted pair without
  /// its write-back? Yes when fast reads are on and the counted replies
  /// prove the pair stable at a majority — all of them carried best_ts, or
  /// a best-ts reply carried the confirmed bit. (Always, under the unsafe
  /// negative-test knob.)
  bool fast_read() const {
    const bool stable = agree_ == counted_count_ || best_confirmed_;
    return config_.unsafe_always_fast_read || (config_.fast_reads && stable);
  }

  std::size_t counted() const { return counted_count_; }
  std::uint64_t best_ts() const { return best_ts_; }
  V& best_value() { return best_value_; }

 private:
  /// Send to `to` unless the breaker holds it back from this wave.
  template <typename Send>
  void transmit(std::size_t to, Clock::time_point now, bool probe,
                Send& send) {
    if (p_.suspects && !probe && p_.suspects(to)) {
      bump(counters_.breaker_skips);
      ASNAP_TRACE_EVENT(trace::EventKind::kBreakerSkip, p_.pid, to);
      return;
    }
    if (sends_[to]++ == 0) first_tx_[to] = now;
    bump(counters_.requests);
    send(to);
  }

  std::size_t uncounted_suspects() const {
    std::size_t suspected = 0;
    for (std::size_t j = 0; j < peers_.size(); ++j) {
      if (!counted_[j] && p_.suspects(j)) ++suspected;
    }
    return suspected;
  }

  /// Adopt the highest (ts, value); count the replies at that ts and
  /// whether one of them carried the confirmed bit (only a best-ts reply's
  /// bit is evidence for the adopted pair).
  void fold(const Frame& reply) {
    const bool confirmed = (reply.flags & net::wire::kFlagTsConfirmed) != 0;
    if (agree_ == 0 || reply.ts > best_ts_) {
      best_ts_ = reply.ts;
      best_value_ = reply.value;
      agree_ = 1;
      best_confirmed_ = confirmed;
    } else if (reply.ts == best_ts_) {
      ++agree_;
      best_confirmed_ = best_confirmed_ || confirmed;
    }
  }

  std::vector<Peer>& peers_;
  const AbdConfig& config_;
  Counters& counters_;
  Params p_;
  std::vector<std::uint32_t> sends_;  ///< transmissions per replica
  std::vector<Clock::time_point> first_tx_;
  std::vector<std::size_t> counted_;  ///< rank(): 0 = not counted
  std::size_t counted_count_ = 0;
  RetryBackoff backoff_;
  Clock::time_point retransmit_at_;
  Clock::time_point widen_at_ = Clock::time_point::max();
  std::uint32_t waves_ = 0;
  std::optional<Clock::time_point> starved_since_;
  std::uint64_t best_ts_ = 0;
  V best_value_{};
  std::size_t agree_ = 0;  ///< counted replies at best_ts_
  bool best_confirmed_ = false;
};

/// A replica's durable state: its incarnation epoch and reg -> (ts, value).
/// Absent registers were never written and read as (0, V{}).
template <typename V>
struct ReplicaState {
  std::uint64_t epoch = 0;
  std::map<std::uint64_t, std::pair<std::uint64_t, V>> regs;
};

template <typename V>
class ReplicaCore {
 public:
  using Frame = net::wire::BasicFrame<V>;

  explicit ReplicaCore(ReplicaState<V> state = {}) : state_(std::move(state)) {}

  /// The durable state: what the daemon's WAL replays into and compacts.
  const ReplicaState<V>& state() const { return state_; }
  void set_epoch(std::uint64_t epoch) { state_.epoch = epoch; }

  std::uint64_t ts(std::uint64_t reg) const {
    const auto it = state_.regs.find(reg);
    return it == state_.regs.end() ? 0 : it->second.first;
  }

  /// Highest ts known majority-acked (0 = none). Kept out of the durable
  /// state on purpose: a restarted or resynced replica cannot know which of
  /// its values reached a majority, so it must start conservative.
  std::uint64_t confirmed_ts(std::uint64_t reg) const {
    const auto it = confirmed_.find(reg);
    return it == confirmed_.end() ? 0 : it->second;
  }

  /// Whether WRITE(reg, ts) would change this replica.
  bool newer(std::uint64_t reg, std::uint64_t ts) const {
    return ts > this->ts(reg);
  }

  /// The write rule, also used to install a resync result: adopt (ts,
  /// value) iff ts is newer. Never touches the confirmed ts — knowing a
  /// value is not knowing that a majority stores it.
  void install(std::uint64_t reg, std::uint64_t ts, const V& value) {
    if (newer(reg, ts)) state_.regs[reg] = {ts, value};
  }

  /// Serve one request: the reply to send back, or nullopt (CONFIRM and
  /// unknown types get none).
  std::optional<Frame> handle(const Frame& req) {
    Frame reply{.rid = req.rid, .epoch = state_.epoch, .reg = req.reg};
    switch (req.type) {
      case net::wire::kReadReq:
        reply.type = net::wire::kReadReply;
        if (const auto it = state_.regs.find(req.reg);
            it != state_.regs.end()) {
          reply.ts = it->second.first;
          reply.value = it->second.second;
        }
        if (reply.ts > 0 && confirmed_ts(req.reg) >= reply.ts) {
          reply.flags = net::wire::kFlagTsConfirmed;
        }
        return reply;
      case net::wire::kWriteReq:
        install(req.reg, req.ts, req.value);
        reply.type = net::wire::kWriteAck;
        reply.ts = req.ts;
        return reply;
      case net::wire::kConfirm: {
        std::uint64_t& confirmed = confirmed_[req.reg];
        confirmed = std::max(confirmed, req.ts);
        return std::nullopt;
      }
      case net::wire::kPing:
        reply.type = net::wire::kPong;
        return reply;
      default:
        return std::nullopt;  // unknown type: ignore (forward compatibility)
    }
  }

 private:
  ReplicaState<V> state_;
  std::map<std::uint64_t, std::uint64_t> confirmed_;
};

}  // namespace asnap::abd
