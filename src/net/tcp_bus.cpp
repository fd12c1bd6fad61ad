#include "net/tcp_bus.hpp"

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "common/rng.hpp"
#include "trace/event.hpp"

namespace asnap::net {

TcpBus::TcpBus(std::vector<Endpoint> replicas, std::uint64_t seed,
               TcpBusOptions options)
    : replicas_(std::move(replicas)),
      options_(options),
      links_(replicas_.size()),
      polled_(replicas_.size()),
      jitter_state_(seed ^ 0xBACC0FFULL) {
  for (Link& link : links_) link.cooldown_base = options_.reconnect_cooldown;
}

void TcpBus::arm_backoff(Link& link, std::size_t idx) {
  const auto base = link.cooldown_base;
  const std::int64_t base_ms = std::max<std::int64_t>(1, base.count());
  // ±50% jitter: uniform in [base/2, 3*base/2].
  const std::int64_t jittered =
      base_ms / 2 + static_cast<std::int64_t>(splitmix64(jitter_state_) %
                                              static_cast<std::uint64_t>(
                                                  base_ms + 1));
  link.next_attempt = Clock::now() + std::chrono::milliseconds(jittered);
  link.cooldown = std::chrono::milliseconds(jittered);
  ASNAP_TRACE_EVENT(trace::EventKind::kNetReconnectBackoff, 0,
                    static_cast<std::uint64_t>(idx),
                    static_cast<std::uint64_t>(jittered));
  link.cooldown_base =
      std::min(options_.reconnect_cooldown_max, link.cooldown_base * 2);
}

std::chrono::milliseconds TcpBus::reconnect_cooldown(std::size_t to) const {
  if (to >= links_.size()) return std::chrono::milliseconds{0};
  return links_[to].cooldown;
}

bool TcpBus::ensure_connected(Link& link, std::size_t idx,
                              Clock::time_point deadline) {
  if (link.sock.valid()) return true;
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
  link.inbound.clear();  // a partial frame of the old stream never resumes
  link.cooldown_base = options_.reconnect_cooldown;  // healthy again
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool TcpBus::send(std::size_t to, const wire::Frame& frame,
                  Clock::time_point deadline) {
  if (to >= links_.size()) return false;
  Link& link = links_[to];
  if (!ensure_connected(link, to, deadline)) return false;
  const bool ok = deadline == Clock::time_point{}
                      ? send_frame(link.sock, frame)
                      : send_frame(link.sock, frame, deadline);
  // Broken pipe, or a deadline-expired write that may have left a partial
  // frame on the wire: drop the link so the next send redials instead of
  // writing to a desynchronized stream.
  if (!ok) link.sock.close();
  return ok;
}

std::optional<wire::Received<wire::Bytes>> TcpBus::pop_buffered() {
  for (std::size_t idx = 0; idx < links_.size(); ++idx) {
    Link& link = links_[idx];
    wire::Frame frame;
    const PopStatus status = link.inbound.pop(&frame);
    if (status == PopStatus::kFrame) {
      return wire::Received<wire::Bytes>{idx, std::move(frame)};
    }
    if (status == PopStatus::kMalformed) {
      link.sock.close();  // never resynchronize a byte stream
      link.inbound.clear();
    }
  }
  return std::nullopt;
}

std::optional<wire::Received<wire::Bytes>> TcpBus::wait(
    Clock::time_point deadline) {
  for (bool polled = false;; polled = true) {
    if (auto got = pop_buffered()) return got;
    // Past the deadline, one last poll still collects what already arrived;
    // a peer that keeps trickling bytes cannot hold the caller beyond it.
    if (polled && Clock::now() >= deadline) return std::nullopt;
    for (std::size_t idx = 0; idx < links_.size(); ++idx) {
      // poll() skips a negative fd: an unconnected link is never ready.
      polled_[idx] = {links_[idx].sock.fd(), POLLIN, 0};
    }
    // ppoll takes the time left at ns resolution, so a sub-millisecond
    // retransmission timer is not rounded up to a whole millisecond.
    const auto left = std::max<Clock::duration>(deadline - Clock::now(),
                                                Clock::duration::zero());
    const auto secs = std::chrono::duration_cast<std::chrono::seconds>(left);
    const timespec timeout{
        static_cast<time_t>(secs.count()),
        static_cast<long>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(left - secs)
                .count())};
    const int ready = ::ppoll(polled_.data(), polled_.size(), &timeout,
                              nullptr);
    if (ready == 0) return std::nullopt;  // the deadline passed
    if (ready < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    for (std::size_t idx = 0; idx < links_.size(); ++idx) {
      if (polled_[idx].revents == 0) continue;
      Link& link = links_[idx];
      if (!link.inbound.fill(link.sock)) link.sock.close();  // EOF or error
    }
  }
}

}  // namespace asnap::net
