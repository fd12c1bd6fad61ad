#include "net/tcp_bus.hpp"

#include <algorithm>
#include <utility>

#include "common/rng.hpp"
#include "trace/event.hpp"

namespace asnap::net {

namespace {
using Clock = std::chrono::steady_clock;
/// Reader threads poll in short slices so stop requests and dead sockets
/// are noticed promptly without busy-waiting.
constexpr std::chrono::milliseconds kReadSlice{100};
}  // namespace

TcpBus::TcpBus(std::vector<Endpoint> replicas, std::uint64_t seed,
               TcpBusOptions options)
    : replicas_(std::move(replicas)),
      options_(options),
      inbox_(seed),
      jitter_state_(seed ^ 0xBACC0FFULL) {
  links_.reserve(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    links_.push_back(std::make_unique<Link>());
    links_.back()->cooldown_base = options_.reconnect_cooldown;
  }
}

TcpBus::~TcpBus() {
  for (auto& link : links_) {
    if (link->reader.joinable()) link->reader.request_stop();
  }
  for (auto& link : links_) {
    if (link->reader.joinable()) link->reader.join();
    link->sock.close();
  }
  inbox_.close();
}

void TcpBus::read_loop(std::stop_token st, std::size_t idx, int fd) {
  // Borrow the fd: the send side owns the Socket and only closes it after
  // joining this thread, so the fd stays valid for our whole lifetime.
  Socket borrowed(fd);
  wire::Frame frame;
  while (!st.stop_requested()) {
    const RecvStatus status =
        recv_frame(borrowed, Clock::now() + kReadSlice, &frame);
    if (status == RecvStatus::kTimeout) continue;
    if (status != RecvStatus::kOk) break;  // EOF, error, or bad frame
    Message msg;
    msg.from = static_cast<NodeId>(idx);
    msg.type = frame.type;
    msg.rid = frame.rid;
    msg.payload = frame;
    inbox_.push(std::move(msg));
  }
  links_[idx]->broken.store(true, std::memory_order_release);
  borrowed.release();  // fd ownership stays with the send side's Socket
}

void TcpBus::arm_backoff(Link& link, std::size_t idx) {
  // jitter_state_ is only touched here, under the serialized send path.
  const auto base = link.cooldown_base;
  const std::int64_t base_ms = std::max<std::int64_t>(1, base.count());
  // ±50% jitter: uniform in [base/2, 3*base/2].
  const std::int64_t jittered =
      base_ms / 2 + static_cast<std::int64_t>(splitmix64(jitter_state_) %
                                              static_cast<std::uint64_t>(
                                                  base_ms + 1));
  link.next_attempt = Clock::now() + std::chrono::milliseconds(jittered);
  link.cooldown_ms.store(jittered, std::memory_order_relaxed);
  ASNAP_TRACE_EVENT(trace::EventKind::kNetReconnectBackoff, 0,
                    static_cast<std::uint64_t>(idx),
                    static_cast<std::uint64_t>(jittered));
  link.cooldown_base =
      std::min(options_.reconnect_cooldown_max, link.cooldown_base * 2);
}

std::chrono::milliseconds TcpBus::reconnect_cooldown(std::size_t to) const {
  if (to >= links_.size()) return std::chrono::milliseconds{0};
  return std::chrono::milliseconds(
      links_[to]->cooldown_ms.load(std::memory_order_relaxed));
}

bool TcpBus::ensure_connected(Link& link, std::size_t idx,
                              Clock::time_point deadline) {
  if (link.sock.valid() && !link.broken.load(std::memory_order_acquire)) {
    return true;
  }
  // Tear down the previous connection, if any, before redialing.
  if (link.reader.joinable()) {
    link.reader.request_stop();
    link.reader.join();
  }
  link.sock.close();
  link.broken.store(false, std::memory_order_release);
  const auto now = Clock::now();
  if (now < link.next_attempt) return false;
  // Cap the dial by both the configured connect timeout and the caller's
  // operation deadline — a round that has 5 ms left must not spend 100 ms
  // dialing a dead replica.
  auto budget = options_.connect_timeout;
  if (deadline != Clock::time_point{}) {
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    if (left <= std::chrono::milliseconds::zero()) return false;
    budget = std::min(budget, left);
  }
  Socket sock = tcp_connect(replicas_[idx], budget);
  if (!sock.valid()) {
    arm_backoff(link, idx);
    return false;
  }
  link.sock = std::move(sock);
  link.cooldown_base = options_.reconnect_cooldown;  // healthy again
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  const int fd = link.sock.fd();
  link.reader = std::jthread(
      [this, idx, fd](std::stop_token st) { read_loop(st, idx, fd); });
  return true;
}

bool TcpBus::send(std::size_t to, const wire::Frame& frame,
                  Clock::time_point deadline) {
  if (to >= links_.size()) return false;
  Link& link = *links_[to];
  std::lock_guard<std::mutex> lock(link.mu);
  if (!ensure_connected(link, to, deadline)) return false;
  const bool ok =
      deadline == Clock::time_point{}
          ? send_frame(link.sock, frame)
          : send_frame(link.sock, frame, deadline);
  if (ok) return true;
  // Broken pipe (or a deadline-expired write that may have left a partial
  // frame on the wire): mark it so the next send redials instead of
  // retrying a desynchronized fd.
  link.broken.store(true, std::memory_order_release);
  return false;
}

}  // namespace asnap::net
