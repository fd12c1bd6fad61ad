// ABD quorum client for a real socket cluster of tools/abd_replicad daemons:
// abd::Client (client.hpp) over net::TcpBus, with register values carried
// as opaque wire::Bytes. The protocol — quorum rounds, retransmission with
// the same rid, dedup by responder, the incarnation-epoch filter, one-round
// fast reads with the confirm bit, the RTO rule — is core.hpp's, the code
// the in-process AbdCluster runs too (DESIGN.md §11, §15).
//
//   try_write(reg, ts, v): majority write. The CALLER owns the timestamp and
//     must keep it monotone per register (the single-writer regime of the
//     paper); this also makes a timed-out write idempotently retryable with
//     the same (ts, v) — replicas ignore stale timestamps and re-ack.
//   try_read(reg): atomic read, one round when the query quorum proves the
//     adopted pair stable, query + write-back otherwise.
//   try_query(reg): the query round alone (a recovering replica's resync).
//
// What the socket transport (TcpPort) adds: the thread running an operation
// sends its wave and reads the replies from its own sockets (TcpBus::wait),
// so a reply reaches the protocol with no thread handoff; every send is
// bounded by the operation deadline, so a half-open connection whose kernel
// buffer filled cannot wedge an operation past it; epochs are learned only
// from replies (the client tracks the highest per replica); and every
// round's retransmission timeout derives from measured RTTs — on a 25
// ms-delay link the first retransmit waits ~4x the observed RTT instead of
// firing a futile wave every initial_rto; and a read asks only the
// majority that answered the last clean round first, hedging to the other
// replicas after one RTT (client.hpp). The client starts no thread.
//
// One operation at a time per client (op_mu_), which is also what gives
// the bus its one user at a time: concurrent load comes from many clients,
// as in-process it comes from many SimNetwork client ports.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "abd/client.hpp"
#include "abd/core.hpp"
#include "net/tcp_bus.hpp"

namespace asnap::abd {

class RemoteRegisterClient {
 public:
  /// value is empty with ts == 0: never written.
  using ReadResult = Versioned<net::wire::Bytes>;

  struct Stats {
    /// Protocol rounds started (query / write / write-back); retransmission
    /// waves within a round are counted separately below.
    std::uint64_t protocol_rounds = 0;
    std::uint64_t fast_reads = 0;       ///< reads that skipped write-back
    std::uint64_t fast_fallbacks = 0;   ///< reads that fell back to slow path
    std::uint64_t retransmit_waves = 0;
    std::uint64_t dup_replies = 0;
    std::uint64_t stale_epoch_replies = 0;
    std::uint64_t round_timeouts = 0;
    /// Request frames the rounds sent (first waves, hedges, retransmission
    /// waves): the socket path's messages, confirms aside.
    std::uint64_t requests = 0;
    std::uint64_t hedges = 0;  ///< majority-first reads that widened

    /// Totals over several clients.
    Stats& operator+=(const Stats& o) {
      protocol_rounds += o.protocol_rounds;
      fast_reads += o.fast_reads;
      fast_fallbacks += o.fast_fallbacks;
      retransmit_waves += o.retransmit_waves;
      dup_replies += o.dup_replies;
      stale_epoch_replies += o.stale_epoch_replies;
      round_timeouts += o.round_timeouts;
      requests += o.requests;
      hedges += o.hedges;
      return *this;
    }
  };

  RemoteRegisterClient(std::vector<net::Endpoint> replicas,
                       std::uint64_t client_id, AbdConfig config = {});

  std::size_t replicas() const { return bus_.size(); }
  std::size_t majority() const { return bus_.size() / 2 + 1; }

  /// Majority write. ts must be monotone per register from this writer;
  /// retrying a timed-out write with the same (ts, value) is sound.
  OpStatus try_write(std::uint64_t reg, std::uint64_t ts,
                     const net::wire::Bytes& value);

  /// Atomic read. nullopt on timeout.
  std::optional<ReadResult> try_read(std::uint64_t reg);

  /// Query round only — NO write-back, so not atomic on its own. Used by a
  /// recovering replica's resync (which installs the result locally rather
  /// than serving it to an application).
  std::optional<ReadResult> try_query(std::uint64_t reg);

  Stats stats() const;
  std::uint64_t reconnects() const { return bus_.reconnects(); }

 private:
  /// The socket transport: epochs are learned from replies alone, there is
  /// no failure detector, every round starts from the RTT-derived RTO,
  /// floored where retransmits would race the kernel's own delivery on
  /// loopback, and reads ask a majority first: every copy of a request
  /// costs a send, TCP work and a replica wakeup.
  struct TcpPort {
    static constexpr bool kAlwaysAdaptiveRto = true;
    static constexpr std::chrono::microseconds kMinRto{500};
    static constexpr bool kMajorityFirst = true;
    net::TcpBus* bus;
    std::uint64_t client_id;

    std::size_t size() const { return bus->size(); }
    std::uint64_t self() const { return client_id; }
    std::optional<net::wire::Received<net::wire::Bytes>> wait(
        Clock::time_point deadline) {
      return bus->wait(deadline);
    }
    bool closed() const { return false; }  // the bus redials, never closes
    void send(std::size_t to, const net::wire::Frame& frame,
              Clock::time_point deadline) {
      bus->send(to, frame, deadline);
    }
    std::uint64_t epoch_floor(std::size_t) const { return 0; }
    Suspects suspects() const { return {}; }  // no failure detector
  };

  const AbdConfig config_;
  net::TcpBus bus_;
  Counters counters_;
  Client<net::wire::Bytes, TcpPort> client_;
  std::mutex op_mu_;
};

}  // namespace asnap::abd
