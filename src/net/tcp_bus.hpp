// TcpBus: one logical client's connections to every replica daemon, shaped
// like the client-port view of net::Network so the one ABD client
// (abd::Client) runs over real sockets unchanged.
//
// In the simulated cluster a client broadcasts on Port::kServer and then
// drains its own Port::kClient Mailbox; dedup by responder id, epoch checks
// and retransmission-with-the-same-rid all happen above the mailbox. This
// class reproduces exactly that surface over TCP: send(to, frame) lazily
// (re)connects and writes one wire frame; a per-link reader thread pushes
// every inbound frame into a single shared Mailbox as
// Message{from = replica index, type, rid, payload = wire::Frame}. The
// caller's round loop is therefore the same code whether the far end is a
// jthread or a process that can be `kill -9`ed: unreachable replicas
// surface as failed sends / absent replies, never as blocking.
//
// Threading contract: send() may be called from one op thread at a time
// (abd::RemoteRegisterClient serializes ops); reader threads never write
// the socket, and only send() reconnects — after joining the old reader —
// so the fd is never closed under a concurrent reader.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/network.hpp"
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
  TcpBus(std::vector<Endpoint> replicas, std::uint64_t seed,
         TcpBusOptions options = {});
  ~TcpBus();

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
            std::chrono::steady_clock::time_point deadline = {});

  /// Replies from all replicas (the Port::kClient analog). Frame payloads
  /// arrive as std::any_cast<wire::Frame>-able messages.
  Mailbox& inbox() { return inbox_; }

  std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }

  /// Current (post-jitter) reconnect cooldown armed for replica `to`.
  /// Test/diagnostic surface for the backoff schedule.
  std::chrono::milliseconds reconnect_cooldown(std::size_t to) const;

 private:
  struct Link {
    std::mutex mu;  ///< guards sock/reader lifecycle (send-side only)
    Socket sock;
    std::jthread reader;
    std::atomic<bool> broken{false};  ///< reader saw EOF/error/bad frame
    std::chrono::steady_clock::time_point next_attempt{};
    /// Base cooldown before jitter: floor after success, doubling per
    /// consecutive connect failure up to the ceiling.
    std::chrono::milliseconds cooldown_base{0};
    /// Last armed (jittered) cooldown, exposed via reconnect_cooldown().
    std::atomic<std::int64_t> cooldown_ms{0};
  };

  void read_loop(std::stop_token st, std::size_t idx, int fd);
  bool ensure_connected(Link& link, std::size_t idx,
                        std::chrono::steady_clock::time_point deadline);
  void arm_backoff(Link& link, std::size_t idx);

  std::vector<Endpoint> replicas_;
  TcpBusOptions options_;
  std::vector<std::unique_ptr<Link>> links_;
  Mailbox inbox_;
  std::uint64_t jitter_state_;  ///< splitmix64 stream for backoff jitter
  std::atomic<std::uint64_t> reconnects_{0};
};

}  // namespace asnap::net
