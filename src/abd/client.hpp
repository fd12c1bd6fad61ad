// The ABD client: the operation sequences on top of QuorumRound (core.hpp),
// written once for every transport.
//
//   write:  write round, then the fire-and-forget confirm;
//   read:   query round, the fast-read decision, then (unless the quorum
//           proved stability) the write-back round and its confirm — the
//           write-back is what upgrades a regular register to an atomic
//           one [ABD];
//   query:  query round only, the resync of a recovering replica.
//
// One loop runs every round: send a wave, wait on the transport for a
// reply until the retransmission timer, the hedge or the operation
// deadline, whichever is first, feed the round. Retransmissions reuse the
// request id: replica handlers are idempotent.
//
// Majority-first reads (transports with kMajorityFirst): a read's query
// round sends its first wave only to the majority that answered the
// client's last clean round first, and widens to the other replicas if
// that majority has not answered within one smoothed RTT of its slowest
// member. Every other wave still goes to every replica: writes,
// write-backs, confirms, resync queries and retransmission waves. A round
// that times out or retransmits leaves no preference, so the next read
// asks every replica.
//
// A Transport is a small handle providing
//   std::size_t size() const;         the replicas, indexed 0..size()-1
//   std::uint64_t self() const;       this client's id (its node in-process)
//   void send(std::size_t to, const Frame&, Clock::time_point deadline);
//   std::optional<net::wire::Received<V>> wait(Clock::time_point deadline);
//                                     the next reply and the replica it
//                                     came from, or nullopt at the deadline
//                                     or once the transport is closed
//   bool closed() const;              this client's endpoint is gone (its
//                                     node crashed): the round is kClosed
//   std::uint64_t epoch_floor(std::size_t replica) const;
//                                     incarnation known out of band, or 0
//   Suspects suspects() const;        the breaker, or empty
//   static constexpr bool kAlwaysAdaptiveRto;
//                                     RTT-derived RTO on every round, or
//                                     only while the breaker is armed
//   static constexpr std::chrono::microseconds kMinRto;
//                                     the floor of that RTO (round_rto)
//   static constexpr bool kMajorityFirst;
//                                     reads ask a majority first, or every
//                                     replica at once. Worth it where each
//                                     copy of a request costs a syscall,
//                                     TCP work and a replica wakeup (the
//                                     socket transport); in process a copy
//                                     is a mailbox push and full waves are
//                                     faster (DESIGN.md §11)
// See AbdCluster::SimPort (a Mailbox on the SimNetwork) and
// RemoteRegisterClient::TcpPort (net::TcpBus: the op thread reads its own
// sockets). Everything the client knows of time passes through wait() and
// Clock::now(). One operation at a time per client: its owner serializes
// them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "abd/core.hpp"
#include "net/wire.hpp"

namespace asnap::abd {

/// A register value with its ABD timestamp (ts = 0: never written).
template <typename V>
struct Versioned {
  std::uint64_t ts = 0;
  V value{};
};

template <typename V, typename Transport>
class Client {
 public:
  using Frame = net::wire::BasicFrame<V>;

  /// `config` and `counters` must outlive the client.
  Client(Transport transport, const AbdConfig& config, Counters& counters)
      : transport_(std::move(transport)),
        config_(config),
        counters_(counters),
        peers_(transport_.size()) {}

  std::size_t majority() const { return transport_.size() / 2 + 1; }

  /// Majority write of (reg, ts, value). The caller keeps ts monotone per
  /// register, so retrying a timed-out write with the same pair is sound.
  OpStatus write(std::uint64_t reg, std::uint64_t ts, V value) {
    return write_round(reg, ts, std::move(value),
                       Clock::now() + config_.op_deadline);
  }

  /// Atomic read: one round when the query quorum proves the adopted pair
  /// stable, otherwise query + write-back. nullopt on timeout or closure.
  std::optional<Versioned<V>> read(std::uint64_t reg) {
    const auto deadline = Clock::now() + config_.op_deadline;
    const Frame req = request(net::wire::kReadReq, reg);
    QuorumRound<V> quorum =
        round(req, /*breaker=*/true, Transport::kMajorityFirst);
    if (run(quorum, req, deadline) != OpStatus::kOk) return std::nullopt;
    Versioned<V> best{quorum.best_ts(), std::move(quorum.best_value())};
    const auto pid = static_cast<std::uint32_t>(transport_.self());
    if (quorum.fast_read()) {
      bump(counters_.fast_reads);
      ASNAP_TRACE_EVENT(trace::EventKind::kAbdFastRead, pid, reg, best.ts);
      return best;
    }
    if (config_.fast_reads) {  // no stability proof: the quorum disagreed
      bump(counters_.fast_fallbacks);
      ASNAP_TRACE_EVENT(trace::EventKind::kAbdFastFallback, pid, reg,
                        trace::kFastFallbackDisagree);
    }
    if (write_round(reg, best.ts, best.value, deadline) != OpStatus::kOk) {
      return std::nullopt;
    }
    return best;
  }

  /// Query round only: no write-back, so not atomic on its own, and no
  /// breaker, whose detector rows may be stale for a recovering node. The
  /// resync of a recovering replica. `own`, when given, is that replica's
  /// retained state, counted as one quorum member (its server is not up).
  std::optional<Versioned<V>> query(std::uint64_t reg,
                                    ReplicaCore<V>* own = nullptr) {
    const Frame req = request(net::wire::kReadReq, reg);
    QuorumRound<V> quorum = round(req, /*breaker=*/false);
    if (own != nullptr) {
      quorum.on_reply(transport_.self(), *own->handle(req), Clock::now());
    }
    if (run(quorum, req, Clock::now() + config_.op_deadline) != OpStatus::kOk) {
      return std::nullopt;
    }
    return Versioned<V>{quorum.best_ts(), std::move(quorum.best_value())};
  }

 private:
  Frame request(std::uint8_t type, std::uint64_t reg) {
    return Frame{.type = type,
                 .from = transport_.self(),
                 .rid = next_rid_++,
                 .reg = reg};
  }

  /// A round of `req`. It starts from the RTT-derived RTO when the transport
  /// always adapts or the breaker is armed, from initial_rto otherwise.
  QuorumRound<V> round(const Frame& req, bool breaker,
                       bool majority_first = false) {
    Suspects suspects = breaker ? transport_.suspects() : Suspects{};
    const bool adaptive = Transport::kAlwaysAdaptiveRto || suspects != nullptr;
    return QuorumRound<V>(
        peers_, config_, counters_,
        {static_cast<std::uint32_t>(transport_.self()), req.rid, majority(),
         adaptive ? round_rto(peers_, config_, Transport::kMinRto)
                  : config_.initial_rto,
         std::move(suspects), majority_first},
        Clock::now());
  }

  /// Prefer the first majority() replicas a clean round counted; a round
  /// that failed or retransmitted leaves no preference.
  void remember(const QuorumRound<V>& quorum, OpStatus status) {
    if constexpr (Transport::kMajorityFirst) {
      const bool clean = status == OpStatus::kOk && !quorum.retransmitted();
      for (std::size_t to = 0; to < peers_.size(); ++to) {
        const std::size_t rank = quorum.rank(to);
        peers_[to].preferred = clean && rank != 0 && rank <= majority();
      }
    }
  }

  /// Write round of (reg, ts, value); once a majority acked, tell every
  /// replica so later reads of ts can skip their write-back (the "half
  /// round" of a 1.5-round write). The confirm is best effort — no ack, no
  /// retransmission, a send bounded by max_rto — since a lost one only
  /// costs a later fast-read hit. ts = 0 needs none: unanimity covers it.
  OpStatus write_round(std::uint64_t reg, std::uint64_t ts, V value,
                       Clock::time_point deadline) {
    Frame req = request(net::wire::kWriteReq, reg);
    req.ts = ts;
    req.value = std::move(value);
    QuorumRound<V> quorum = round(req, /*breaker=*/true);
    const OpStatus status = run(quorum, req, deadline);
    if (status != OpStatus::kOk || ts == 0) return status;
    Frame confirm = request(net::wire::kConfirm, reg);
    confirm.ts = ts;
    const auto confirm_deadline = Clock::now() + config_.max_rto;
    for (std::size_t to = 0; to < transport_.size(); ++to) {
      transport_.send(to, confirm, confirm_deadline);
    }
    return status;
  }

  /// Drive one round, then remember who answered it first.
  OpStatus run(QuorumRound<V>& quorum, const Frame& req,
               Clock::time_point deadline) {
    const OpStatus status = drive(quorum, req, deadline);
    remember(quorum, status);
    return status;
  }

  /// Drive one round until it counts its quorum, the operation deadline
  /// passes, the breaker fails it fast, or the transport closes.
  OpStatus drive(QuorumRound<V>& quorum, const Frame& req,
                 Clock::time_point deadline) {
    const auto pid = static_cast<std::uint32_t>(transport_.self());
    const std::uint8_t want = req.type == net::wire::kReadReq
                                  ? net::wire::kReadReply
                                  : net::wire::kWriteAck;
    const auto send = [&](std::size_t to) {
      transport_.send(to, req, deadline);
    };
    auto now = Clock::now();
    while (!quorum.done()) {
      if (now >= deadline || quorum.starved(now)) {
        bump(counters_.round_timeouts);
        ASNAP_TRACE_EVENT(trace::EventKind::kAbdRoundTimeout, pid, req.rid);
        return OpStatus::kTimeout;
      }
      if (now >= quorum.retransmit_at()) {
        quorum.wave(now, send);
      } else if (now >= quorum.widen_at()) {
        quorum.widen(now, send);
      }
      auto reply = transport_.wait(
          std::min({deadline, quorum.retransmit_at(), quorum.widen_at()}));
      now = Clock::now();
      if (!reply.has_value()) {
        if (!transport_.closed()) continue;
        ASNAP_TRACE_EVENT(trace::EventKind::kAbdRoundTimeout, pid, req.rid);
        return OpStatus::kClosed;
      }
      if (reply->frame.rid != req.rid || reply->frame.type != want) {
        continue;  // a reply to an earlier round
      }
      Peer& peer = peers_[reply->from];
      peer.epoch_floor =
          std::max(peer.epoch_floor, transport_.epoch_floor(reply->from));
      quorum.on_reply(reply->from, reply->frame, now);
    }
    ASNAP_TRACE_EVENT(trace::EventKind::kAbdQuorumReached, pid, req.rid,
                      quorum.counted());
    return OpStatus::kOk;
  }

  Transport transport_;
  const AbdConfig& config_;
  Counters& counters_;
  std::vector<Peer> peers_;
  std::uint64_t next_rid_ = 1;
};

}  // namespace asnap::abd
