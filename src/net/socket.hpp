// Thin POSIX TCP helpers for the real multi-process cluster: RAII file
// descriptors, deadline-bounded connect/accept/send in the wire.hpp format,
// and FrameBuffer, the one frame reader of every socket user (the TcpBus
// client, the abd_replicad daemon, the chaos proxy and the tests).
//
// Design choices, all in service of the crash model:
//   * every socket is non-blocking and every wait has a deadline: a send
//     or receive waits for readiness only until its caller's deadline, so
//     server loops and client rounds honor stop requests and operation
//     deadlines (a SIGSTOPped peer looks exactly like a dead one);
//   * sends use MSG_NOSIGNAL — a peer killed with `kill -9` turns into
//     EPIPE, not process death;
//   * a partial frame waits in its connection's FrameBuffer for the rest of
//     its bytes; a frame that fails to parse marks the connection broken,
//     and peers never try to resynchronize a byte stream (wire.hpp's
//     framing rule);
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

  /// Wait until `deadline` (time_point::max(): no limit) for one
  /// connection. nullopt on timeout, on error, or once shut down.
  std::optional<Socket> accept(std::chrono::steady_clock::time_point deadline);

  /// Accept one pending connection without waiting, for an event loop.
  /// nullopt when none is pending, or on error.
  std::optional<Socket> accept_pending();

  /// The listening fd, for an event loop's readiness set.
  int fd() const { return sock_.fd(); }

  /// Stop accepting: a thread waiting in accept() wakes with nullopt, and
  /// so does every later call. The fd stays open until close(), so it is
  /// never reused under a thread still polling it.
  void shutdown();

  void close() { sock_.close(); }

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
};

/// Connect with a bounded wait (non-blocking connect + poll). The returned
/// socket has TCP_NODELAY set — quorum rounds are latency-bound request/reply
/// exchanges, Nagle only hurts.
Socket tcp_connect(const Endpoint& to, std::chrono::milliseconds timeout,
                   std::string* error = nullptr);

/// Write an encoded frame in full, giving up when `deadline` passes
/// mid-write (a deadline already past writes only what fits the send
/// buffer now). False on any error: the connection is broken. A half-open
/// peer whose receive window has filled (SIGSTOPped daemon, blackholed
/// link) would otherwise park the sender forever — this is what lets a
/// per-operation deadline survive a wedged connection.
bool send_frame(const Socket& sock, const wire::Frame& frame,
                std::chrono::steady_clock::time_point deadline);

/// Write `len` raw bytes in full, bounded by `deadline`. Exposed for relays
/// (net/chaos_proxy) that forward byte ranges — including deliberately
/// partial frames — rather than re-encoding.
bool send_all(const Socket& sock, const std::uint8_t* data, std::size_t len,
              std::chrono::steady_clock::time_point deadline);

/// What FrameBuffer::pop found at the head of the buffered bytes.
enum class PopStatus : std::uint8_t {
  kNeedMore = 0,   ///< no complete frame yet: wait for more bytes
  kFrame = 1,      ///< one frame, removed from the buffer
  kMalformed = 2,  ///< the stream can never yield a frame: drop the peer
};

/// What FrameBuffer::receive found.
enum class RecvStatus : std::uint8_t {
  kOk = 0,
  kTimeout = 1,    ///< deadline passed with no complete frame
  kClosed = 2,     ///< orderly EOF or connection error
  kMalformed = 3,  ///< framing/decode violation: treat peer as broken
};

/// The bytes received on one connection that no frame has consumed yet. An
/// event loop fills it when the socket is readable and pops every complete
/// frame; a thread that serves one socket calls receive(). A partial frame
/// waits here for the rest of its bytes, so a slow or stalled peer blocks
/// nobody else. One buffer per socket, read from one thread at a time.
class FrameBuffer {
 public:
  /// One non-blocking recv of whatever the socket has ready. False on EOF
  /// or a connection error: the caller drops the connection.
  bool fill(const Socket& sock);

  /// The one frame parser. The length prefix is checked against kMaxBody
  /// before anything else, so a corrupt prefix is kMalformed at once rather
  /// than a wait for a megabyte that never comes.
  PopStatus pop(wire::Frame* out);

  /// Pop a frame; when none is buffered, wait for `sock` to be readable
  /// until `deadline` (time_point::max(): no limit), fill, and pop again. A
  /// partial frame at the deadline stays buffered for the next call.
  RecvStatus receive(const Socket& sock,
                     std::chrono::steady_clock::time_point deadline,
                     wire::Frame* out);

  /// Forget every buffered byte (a new connection starts a new stream).
  void clear() { head_ = tail_ = 0; }

 private:
  wire::Bytes bytes_;
  std::size_t head_ = 0;  ///< first byte not yet parsed
  std::size_t tail_ = 0;  ///< one past the last byte received
};

}  // namespace asnap::net
