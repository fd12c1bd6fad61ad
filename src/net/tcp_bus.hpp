// TcpBus: one logical client's connections to every replica daemon, the
// socket transport under the one ABD client (abd::Client) when the far end
// is a process that can be `kill -9`ed.
//
// The op thread does all of the work itself. send(to, frame) lazily
// (re)connects and writes one wire frame; wait(deadline) hands back the
// next frame any replica sent, with that replica's index. wait() first
// returns a complete frame already buffered; otherwise it ppoll()s the
// connected links for the time left and receives whatever is ready into
// that link's FrameBuffer. A partial frame waits in its buffer and blocks
// nobody. A link is dropped on EOF, on an error or on a malformed frame,
// and the next send() to it redials. Dedup by responder id, epoch checks
// and retransmission with the same rid all happen above the bus, in the
// client's quorum round, so unreachable replicas surface as failed sends
// and absent replies, never as blocking.
//
// One user at a time: send() and wait() are called from one thread at a
// time (abd::RemoteRegisterClient serializes its operations).
#pragma once

#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/socket.hpp"

namespace asnap::net {

struct TcpBusOptions {
  /// Bound on one connect attempt. Local clusters connect in microseconds;
  /// this mostly bounds how long a round stalls on a freshly killed peer.
  std::chrono::milliseconds connect_timeout{100};
  /// Cooldown floor after a failed connect before the next attempt, so
  /// per-round retransmissions don't turn into a SYN flood against a dead
  /// replica. Consecutive failures double the cooldown (with ±50% seeded
  /// jitter so a fleet of clients doesn't redial in lockstep)...
  std::chrono::milliseconds reconnect_cooldown{50};
  /// ...up to this ceiling. A replica behind a flapping link therefore sees
  /// at most one connect attempt per ceiling interval per client, and a
  /// successful connect resets the cooldown to the floor.
  std::chrono::milliseconds reconnect_cooldown_max{2000};
};

class TcpBus {
 public:
  using Clock = std::chrono::steady_clock;

  TcpBus(std::vector<Endpoint> replicas, std::uint64_t seed,
         TcpBusOptions options = {});

  TcpBus(const TcpBus&) = delete;
  TcpBus& operator=(const TcpBus&) = delete;

  std::size_t size() const { return replicas_.size(); }

  /// Write one frame to replica `to`, (re)connecting if needed. False when
  /// the replica is unreachable right now — the caller's retransmit loop
  /// handles it, same as a dropped SimNetwork message. A non-default
  /// `deadline` caps both the (re)connect attempt and the write itself: a
  /// half-open connection whose send buffer filled up fails the send
  /// instead of wedging the caller's whole operation.
  bool send(std::size_t to, const wire::Frame& frame,
            Clock::time_point deadline = {});

  /// The next frame from any replica, with the replica's index, or nullopt
  /// once `deadline` passes without one.
  std::optional<wire::Received<wire::Bytes>> wait(Clock::time_point deadline);

  std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }

  /// Current (post-jitter) reconnect cooldown armed for replica `to`.
  /// Test/diagnostic surface for the backoff schedule.
  std::chrono::milliseconds reconnect_cooldown(std::size_t to) const;

 private:
  struct Link {
    Socket sock;
    /// Bytes received and not yet parsed. Complete frames stay deliverable
    /// after the link is dropped; a redial starts a new stream.
    FrameBuffer inbound;
    Clock::time_point next_attempt{};
    /// Base cooldown before jitter: floor after success, doubling per
    /// consecutive connect failure up to the ceiling.
    std::chrono::milliseconds cooldown_base{0};
    /// Last armed (jittered) cooldown, exposed via reconnect_cooldown().
    std::chrono::milliseconds cooldown{0};
  };

  std::optional<wire::Received<wire::Bytes>> pop_buffered();
  bool ensure_connected(Link& link, std::size_t idx, Clock::time_point deadline);
  void arm_backoff(Link& link, std::size_t idx);

  std::vector<Endpoint> replicas_;
  TcpBusOptions options_;
  std::vector<Link> links_;
  std::vector<pollfd> polled_;  ///< wait()'s ppoll set, one entry per link
  std::uint64_t jitter_state_;  ///< splitmix64 stream for backoff jitter
  std::atomic<std::uint64_t> reconnects_{0};
};

}  // namespace asnap::net
