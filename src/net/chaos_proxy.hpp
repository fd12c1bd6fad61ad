// ChaosProxy: a userspace netem/toxiproxy-style TCP relay for the real
// multi-process ABD cluster.
//
// One proxy instance fronts every replica endpoint: for upstream replica i
// it listens on an ephemeral loopback port (endpoints()[i]) and relays each
// accepted connection to the real daemon, pumping wire.hpp frames in both
// directions. Because the relay is frame-aware it can apply the whole
// asynchronous-adversary repertoire per link and per direction:
//
//   * drop        — a frame silently vanishes (seeded Bernoulli);
//   * delay       — fixed latency plus seeded jitter, serialized per link
//                   (a delayed frame delays everything behind it, like a
//                   real queue);
//   * reorder     — hold one frame and emit it after its successor;
//   * throttle    — bandwidth cap via post-send sleeps;
//   * stall       — forward only a PREFIX of a frame, then go silent and
//                   drop the connection: the receiver sees a length prefix
//                   with no body, and its FrameBuffer keeps the partial
//                   frame until the drop (wire.hpp's never-resynchronize
//                   rule);
//   * reset       — close both sides mid-conversation;
//   * blackhole   — read-and-discard one direction while the connection
//                   stays open: A→B dead while B→A lives, the asymmetric
//                   partition that pure process-killing can never produce;
//   * flap        — a deterministic up/down square wave on the link.
//
// Threads: one acceptor per link and two pumps per relayed connection, one
// per direction. None polls in slices: an acceptor waits in accept() for a
// connection or for stop() to shut its listener down, and a pump waits on
// its source socket for a frame or EOF, for its held (reordered) frame to
// fall due, or for the session to be severed. A pump reads through a
// FrameBuffer, so a partial frame from a stalled peer waits there until
// that peer's EOF or stop().
//
// Faults are seeded per (link, direction, connection), so a chaos_run with
// a fixed seed replays the same fault plan. The proxy never interprets ABD
// semantics — it only sees frames — which is exactly what makes it an
// honest network adversary: every timeout, retransmission and quorum
// decision it provokes is taken by the real client/daemon code.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"

namespace asnap::net {

/// Fault plan for one (link, direction). All probabilities are per-frame.
struct LinkFaults {
  double drop_prob = 0.0;     ///< frame silently discarded
  double reorder_prob = 0.0;  ///< frame held, emitted after its successor
  double stall_prob = 0.0;    ///< partial frame + silence + connection drop
  double reset_prob = 0.0;    ///< connection reset before forwarding
  std::chrono::microseconds delay{0};   ///< fixed per-frame latency
  std::chrono::microseconds jitter{0};  ///< uniform extra in [0, jitter]
  std::chrono::milliseconds stall{400};  ///< silence after a partial frame
  std::uint64_t throttle_bytes_per_sec = 0;  ///< 0 = unlimited
  bool blackhole = false;  ///< discard everything in this direction
};

/// Injected-fault counters for one link, aggregated over both directions
/// and all connections. Monotonic; read with stats().
struct LinkStats {
  std::uint64_t connections = 0;  ///< client connections accepted
  std::uint64_t forwarded = 0;    ///< frames relayed untouched or delayed
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t reordered = 0;
  std::uint64_t stalled = 0;
  std::uint64_t resets = 0;
  std::uint64_t blackholed = 0;       ///< frames discarded by blackhole/flap
  std::uint64_t throttle_pauses = 0;  ///< bandwidth-cap sleeps taken
};

class ChaosProxy {
 public:
  /// Direction of a pumped frame, and the index into the per-link fault
  /// pair: 0 = client→replica, 1 = replica→client.
  enum Dir : int { kToReplica = 0, kToClient = 1 };

  ChaosProxy(std::vector<Endpoint> upstreams, std::uint64_t seed);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Open one loopback listener per upstream and start accepting. False
  /// (with `error`) if any listener fails to bind.
  bool start(std::string* error = nullptr);

  /// Close listeners, kill every relayed connection, join all threads.
  /// Idempotent; the destructor calls it.
  void stop();

  /// Client-facing endpoints, parallel to the upstream list passed to the
  /// constructor. Valid after start().
  const std::vector<Endpoint>& endpoints() const { return endpoints_; }

  std::size_t size() const { return upstreams_.size(); }

  /// Replace the fault plan for one direction of one link.
  void set_faults(std::size_t link, Dir dir, const LinkFaults& faults);

  /// Replace the fault plan for BOTH directions of EVERY link (the ambient
  /// loss/delay floor of a net scenario).
  void set_all(const LinkFaults& faults);

  /// Toggle an asymmetric partition: discard every frame in `dir` on
  /// `link` while the opposite direction keeps flowing.
  void blackhole(std::size_t link, Dir dir, bool on);

  /// Drive the link with a square wave: `up` connected, `down` dead (both
  /// directions), repeating, phase-anchored at this call. `on=false` stops
  /// the wave and leaves the link up.
  void flap(std::size_t link, std::chrono::milliseconds up,
            std::chrono::milliseconds down, bool on);

  /// Forcibly reset every live connection relayed for `link` (clients see
  /// ECONNRESET/EOF mid-conversation).
  void kill_connections(std::size_t link);

  /// Clear every fault, blackhole and flap on every link. Connections stay
  /// up; the network is simply perfect again.
  void heal();

  LinkStats stats(std::size_t link) const;

  /// A link counts as impaired while its connectivity is (possibly) severed
  /// — blackholed in either direction, flapping, or carrying total
  /// (drop_prob >= 0.999) ambient loss in either direction. This is the
  /// input to the orchestrator's majority-safety rail; moderate loss, delay,
  /// stalls and resets do not count because quorum liveness survives them.
  bool impaired(std::size_t link) const;

  /// Number of currently impaired links.
  std::size_t impaired_links() const;

 private:
  struct Session;
  struct LinkState;

  void accept_loop(std::stop_token st, std::size_t link);
  void pump(std::stop_token st, std::size_t link, Dir dir, Session* session);
  bool link_up_locked(const LinkState& ls,
                      std::chrono::steady_clock::time_point now) const;

  std::vector<Endpoint> upstreams_;
  std::vector<Endpoint> endpoints_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<LinkState>> links_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace asnap::net
