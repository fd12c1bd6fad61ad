#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace asnap::net {

namespace {

using Clock = std::chrono::steady_clock;

void set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + std::strerror(errno);
}

/// poll() one fd for `events`, bounded by `deadline` (time_point::max():
/// no limit). Returns true when the fd is ready, false on timeout or poll
/// error. EINTR retries.
bool poll_until(int fd, short events, Clock::time_point deadline) {
  const bool forever = deadline == Clock::time_point::max();
  for (;;) {
    const auto now = Clock::now();
    if (now >= deadline) return false;
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int timeout_ms = forever ? -1 : static_cast<int>(left.count()) + 1;
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) continue;  // re-check deadline
    if (errno == EINTR) continue;
    return false;
  }
}

/// The body length a frame's u32 prefix declares, or nullopt when no frame
/// can have it (shorter than the fixed header, or above kMaxBody).
std::optional<std::uint32_t> body_length(const std::uint8_t* prefix) {
  const std::uint32_t len = wire::get_u32(prefix);
  if (len < wire::kHeaderBytes || len > wire::kMaxBody) return std::nullopt;
  return len;
}

/// FrameBuffer::fill asks the kernel for at least this many bytes at once.
constexpr std::size_t kMinRecv = 4096;

bool make_addr(const Endpoint& at, sockaddr_in* out) {
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(at.port);
  return ::inet_pton(AF_INET, at.host.c_str(), &out->sin_addr) == 1;
}

}  // namespace

std::optional<std::vector<Endpoint>> parse_endpoints(const std::string& list) {
  std::vector<Endpoint> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string item = list.substr(start, comma - start);
    start = comma + 1;
    if (item.empty()) return std::nullopt;
    const std::size_t colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= item.size()) {
      return std::nullopt;
    }
    Endpoint ep;
    ep.host = item.substr(0, colon);
    unsigned long port = 0;
    try {
      std::size_t used = 0;
      port = std::stoul(item.substr(colon + 1), &used);
      if (used != item.size() - colon - 1) return std::nullopt;
    } catch (...) {
      return std::nullopt;
    }
    if (port == 0 || port > 65535) return std::nullopt;
    ep.port = static_cast<std::uint16_t>(port);
    out.push_back(std::move(ep));
    if (comma == list.size()) break;
  }
  if (out.empty()) return std::nullopt;
  return out;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.release();
  }
  return *this;
}

int Socket::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener Listener::open(const Endpoint& at, std::string* error) {
  Listener lst;
  // Non-blocking: accept_pending() drains the backlog until it is empty,
  // and an accept() that lost a race with a reset connection returns
  // instead of parking its caller.
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    set_error(error, "socket");
    return lst;
  }
  Socket sock(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  if (!make_addr(at, &addr)) {
    if (error != nullptr) *error = "bad listen address: " + at.host;
    return lst;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    set_error(error, "bind " + at.host + ":" + std::to_string(at.port));
    return lst;
  }
  if (::listen(fd, 64) != 0) {
    set_error(error, "listen");
    return lst;
  }
  sockaddr_in bound;
  socklen_t blen = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) != 0) {
    set_error(error, "getsockname");
    return lst;
  }
  lst.port_ = ntohs(bound.sin_port);
  lst.sock_ = std::move(sock);
  return lst;
}

std::optional<Socket> Listener::accept(Clock::time_point deadline) {
  if (!sock_.valid() || !poll_until(sock_.fd(), POLLIN, deadline)) {
    return std::nullopt;
  }
  return accept_pending();
}

std::optional<Socket> Listener::accept_pending() {
  if (!sock_.valid()) return std::nullopt;
  const int fd = ::accept4(sock_.fd(), nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd < 0) return std::nullopt;
  Socket conn(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return conn;
}

void Listener::shutdown() {
  // A shut-down listener polls as ready (POLLHUP) and accepts nothing.
  if (sock_.valid()) ::shutdown(sock_.fd(), SHUT_RDWR);
}

Socket tcp_connect(const Endpoint& to, std::chrono::milliseconds timeout,
                   std::string* error) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    set_error(error, "socket");
    return Socket();
  }
  Socket sock(fd);
  sockaddr_in addr;
  if (!make_addr(to, &addr)) {
    if (error != nullptr) *error = "bad address: " + to.host;
    return Socket();
  }
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      set_error(error, "connect " + to.host + ":" + std::to_string(to.port));
      return Socket();
    }
    if (!poll_until(fd, POLLOUT, Clock::now() + timeout)) {
      if (error != nullptr) {
        *error = "connect timeout to " + to.host + ":" + std::to_string(to.port);
      }
      return Socket();
    }
    int soerr = 0;
    socklen_t slen = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &slen) != 0 ||
        soerr != 0) {
      if (error != nullptr) {
        *error = "connect " + to.host + ":" + std::to_string(to.port) + ": " +
                 std::strerror(soerr != 0 ? soerr : errno);
      }
      return Socket();
    }
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

bool send_all(const Socket& sock, const std::uint8_t* data, std::size_t len,
              Clock::time_point deadline) {
  if (!sock.valid()) return false;
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(sock.fd(), data + sent, len - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full: the peer stopped draining. Wait for writability
      // only as long as the deadline allows — a half-open connection must
      // surface as a failed send, not an indefinite park.
      if (!poll_until(sock.fd(), POLLOUT, deadline)) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool send_frame(const Socket& sock, const wire::Frame& frame,
                Clock::time_point deadline) {
  const wire::Bytes buf = wire::encode(frame);
  return send_all(sock, buf.data(), buf.size(), deadline);
}

bool FrameBuffer::fill(const Socket& sock) {
  if (head_ == tail_) clear();
  if (bytes_.size() - tail_ < kMinRecv) {
    // Move the unparsed bytes to the front, then grow if that is not room
    // enough (a frame body may be up to kMaxBody).
    if (head_ > 0) {
      std::memmove(bytes_.data(), bytes_.data() + head_, tail_ - head_);
      tail_ -= head_;
      head_ = 0;
    }
    if (bytes_.size() - tail_ < kMinRecv) {
      bytes_.resize(std::max(2 * bytes_.size(), tail_ + kMinRecv));
    }
  }
  for (;;) {
    const ssize_t n = ::recv(sock.fd(), bytes_.data() + tail_,
                             bytes_.size() - tail_, MSG_DONTWAIT);
    if (n > 0) {
      tail_ += static_cast<std::size_t>(n);
      return true;
    }
    if (n == 0) return false;  // EOF
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

PopStatus FrameBuffer::pop(wire::Frame* out) {
  const std::size_t have = tail_ - head_;
  if (have < 4) return PopStatus::kNeedMore;
  const std::uint8_t* at = bytes_.data() + head_;
  const auto body_len = body_length(at);
  if (!body_len.has_value()) return PopStatus::kMalformed;
  if (have - 4 < *body_len) return PopStatus::kNeedMore;
  auto frame = wire::decode(at + 4, *body_len);
  if (!frame.has_value()) return PopStatus::kMalformed;
  *out = std::move(*frame);
  head_ += 4 + *body_len;
  return PopStatus::kFrame;
}

RecvStatus FrameBuffer::receive(const Socket& sock, Clock::time_point deadline,
                                wire::Frame* out) {
  for (;;) {
    const PopStatus popped = pop(out);
    if (popped == PopStatus::kFrame) return RecvStatus::kOk;
    if (popped == PopStatus::kMalformed) return RecvStatus::kMalformed;
    if (!sock.valid()) return RecvStatus::kClosed;
    if (!poll_until(sock.fd(), POLLIN, deadline)) return RecvStatus::kTimeout;
    if (!fill(sock)) return RecvStatus::kClosed;
  }
}

}  // namespace asnap::net
