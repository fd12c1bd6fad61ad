// Thin POSIX TCP helpers for the real multi-process cluster: RAII file
// descriptors, deadline-aware connect/accept, whole-frame send/receive in
// the wire.hpp format, and FrameBuffer, the one frame parser of the event
// loops (the TcpBus client and the abd_replicad daemon).
//
// Design choices, all in service of the crash model:
//   * no receive blocks in the kernel: recv_frame is poll()-bounded and
//     FrameBuffer reads only what is ready, so server loops and client
//     rounds honor stop requests and operation deadlines (a SIGSTOPped
//     peer looks exactly like a dead one);
//   * sends use MSG_NOSIGNAL — a peer killed with `kill -9` turns into
//     EPIPE, not process death;
//   * a frame that fails to parse marks the connection broken; peers never
//     try to resynchronize a byte stream (wire.hpp's framing rule);
//   * every socket is close-on-exec, so a process that spawns daemons
//     (chaos_run, perfbench) never lends them its listeners.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace asnap::net {

/// One TCP endpoint, e.g. {"127.0.0.1", 7001}.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Parse "host:port,host:port,..." (the --peers / --cluster flag syntax).
/// Returns nullopt on any malformed element.
std::optional<std::vector<Endpoint>> parse_endpoints(const std::string& list);

/// RAII socket fd. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.release()) {}
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  int release();
  void close();

 private:
  int fd_ = -1;
};

/// Bind + listen on host:port (port 0 picks an ephemeral port; bound_port()
/// reports the result). Invalid socket + errno message on failure.
class Listener {
 public:
  Listener() = default;
  static Listener open(const Endpoint& at, std::string* error = nullptr);

  bool valid() const { return sock_.valid(); }
  std::uint16_t bound_port() const { return port_; }

  /// Wait up to `timeout` for one connection (a blocking socket). nullopt
  /// on timeout/error.
  std::optional<Socket> accept(std::chrono::milliseconds timeout);

  /// Accept one pending connection without waiting, as a non-blocking
  /// socket for an event loop. nullopt when none is pending, or on error.
  std::optional<Socket> accept_pending();

  /// The listening fd, for an event loop's readiness set.
  int fd() const { return sock_.fd(); }

  /// Close the listening socket (wakes nobody; accept() polls).
  void close() { sock_.close(); }

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
};

/// Connect with a bounded wait (non-blocking connect + poll). The returned
/// socket is blocking with TCP_NODELAY set — quorum rounds are latency-bound
/// request/reply exchanges, Nagle only hurts.
Socket tcp_connect(const Endpoint& to, std::chrono::milliseconds timeout,
                   std::string* error = nullptr);

/// Write an encoded frame in full. False on any error (connection broken).
bool send_frame(const Socket& sock, const wire::Frame& frame);

/// Same, but give up when `deadline` passes mid-write. A half-open peer
/// whose receive window has filled (SIGSTOPped daemon, blackholed link)
/// otherwise parks the sender in the kernel forever — this is what lets a
/// per-operation deadline survive a wedged connection.
bool send_frame(const Socket& sock, const wire::Frame& frame,
                std::chrono::steady_clock::time_point deadline);

/// Write `len` raw bytes in full, bounded by `deadline`. Exposed for relays
/// (net/chaos_proxy) that forward byte ranges — including deliberately
/// partial frames — rather than re-encoding.
bool send_all(const Socket& sock, const std::uint8_t* data, std::size_t len,
              std::chrono::steady_clock::time_point deadline);

enum class RecvStatus : std::uint8_t {
  kOk = 0,
  kTimeout = 1,  ///< deadline passed with no complete frame
  kClosed = 2,   ///< orderly EOF or connection error
  kMalformed = 3,  ///< framing/decode violation: treat peer as broken
};

/// Read one complete frame, waiting until `deadline`. Partial reads are
/// resumed internally (the socket is only read from one thread). It never
/// reads past the frame, which is what a relay (net/chaos_proxy) needs.
RecvStatus recv_frame(const Socket& sock,
                      std::chrono::steady_clock::time_point deadline,
                      wire::Frame* out);

/// What FrameBuffer::pop found at the head of the buffered bytes.
enum class PopStatus : std::uint8_t {
  kNeedMore = 0,   ///< no complete frame yet: wait for more bytes
  kFrame = 1,      ///< one frame, removed from the buffer
  kMalformed = 2,  ///< the stream can never yield a frame: drop the peer
};

/// The bytes received on one connection that no frame has consumed yet. An
/// event loop fills it when the socket is readable and pops every complete
/// frame; a partial frame waits here for the rest of its bytes, so a slow
/// or stalled peer blocks nobody else.
class FrameBuffer {
 public:
  /// One non-blocking recv of whatever the socket has ready. False on EOF
  /// or a connection error: the caller drops the connection.
  bool fill(const Socket& sock);

  /// The one frame parser of the event loops. The length prefix is checked
  /// against kMaxBody before anything else, so a corrupt prefix is
  /// kMalformed at once rather than a wait for a megabyte that never comes.
  PopStatus pop(wire::Frame* out);

  /// Forget every buffered byte (a new connection starts a new stream).
  void clear() { head_ = tail_ = 0; }

 private:
  wire::Bytes bytes_;
  std::size_t head_ = 0;  ///< first byte not yet parsed
  std::size_t tail_ = 0;  ///< one past the last byte received
};

}  // namespace asnap::net
