#include "net/chaos_proxy.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <utility>

#include "common/rng.hpp"
#include "trace/event.hpp"

namespace asnap::net {

namespace {

using Clock = std::chrono::steady_clock;

/// A held (reordered) frame is flushed after this long even when no
/// successor shows up — reordering must not become an unbounded delay. It
/// is a pump's only timer: with nothing held, a pump waits for its source
/// without a timeout, and sever() wakes it.
constexpr std::chrono::milliseconds kReorderFlush{50};
/// Budget for one relayed write. Generous: it only matters when the far
/// side stopped draining, where failing the session is the right outcome.
constexpr std::chrono::milliseconds kSendBudget{2000};
/// Dial budget for the proxy→replica leg of a fresh connection.
constexpr std::chrono::milliseconds kUpstreamConnectTimeout{200};

/// Sleep in small slices, aborting early on stop/death. Returns false when
/// interrupted.
bool sliced_sleep(std::chrono::microseconds total, const std::stop_token& st,
                  const std::atomic<bool>& dead) {
  const auto until = Clock::now() + total;
  while (Clock::now() < until) {
    if (st.stop_requested() || dead.load(std::memory_order_relaxed)) {
      return false;
    }
    const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
        until - Clock::now());
    std::this_thread::sleep_for(
        std::min(left, std::chrono::microseconds(10000)));
  }
  return true;
}

}  // namespace

struct ChaosProxy::Session {
  Socket client;
  Socket upstream;
  std::jthread pumps[2];
  std::atomic<bool> dead{false};
  std::atomic<int> live_pumps{0};
  std::uint64_t session_seed = 0;

  /// Wake both pumps out of poll() without closing the fds (the Socket
  /// destructor closes them after the pumps are joined, so no fd is ever
  /// reused under a live poller).
  void sever() {
    dead.store(true, std::memory_order_relaxed);
    if (client.valid()) ::shutdown(client.fd(), SHUT_RDWR);
    if (upstream.valid()) ::shutdown(upstream.fd(), SHUT_RDWR);
  }
};

struct ChaosProxy::LinkState {
  Listener listener;
  std::jthread acceptor;

  mutable std::mutex mu;  ///< guards faults, flap params, sessions
  LinkFaults faults[2];
  bool flapping = false;
  std::chrono::milliseconds flap_up{0};
  std::chrono::milliseconds flap_down{0};
  Clock::time_point flap_start{};
  std::vector<std::unique_ptr<Session>> sessions;
  std::uint64_t next_session = 0;

  std::atomic<bool> last_up{true};  ///< for flap transition trace events

  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> forwarded{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> delayed{0};
  std::atomic<std::uint64_t> reordered{0};
  std::atomic<std::uint64_t> stalled{0};
  std::atomic<std::uint64_t> resets{0};
  std::atomic<std::uint64_t> blackholed{0};
  std::atomic<std::uint64_t> throttle_pauses{0};
};

ChaosProxy::ChaosProxy(std::vector<Endpoint> upstreams, std::uint64_t seed)
    : upstreams_(std::move(upstreams)), seed_(seed) {
  links_.reserve(upstreams_.size());
  for (std::size_t i = 0; i < upstreams_.size(); ++i) {
    links_.push_back(std::make_unique<LinkState>());
  }
}

ChaosProxy::~ChaosProxy() { stop(); }

bool ChaosProxy::start(std::string* error) {
  // A proxy that ever stopped — including via the failure path below —
  // must never report success again: started_ alone would make a second
  // start() return true with no listeners or acceptors running.
  if (stopping_.load(std::memory_order_acquire)) {
    if (error != nullptr) *error = "chaos proxy is stopped";
    return false;
  }
  if (started_.exchange(true)) {
    if (stopping_.load(std::memory_order_acquire)) {
      if (error != nullptr) *error = "chaos proxy is stopped";
      return false;
    }
    return true;
  }
  endpoints_.clear();
  // An upstream port probed free for a replica that has not bound it yet
  // is free to the kernel too, and a listener there locks the replica out.
  // Such ports are skipped, and held until start() returns so the kernel
  // cannot hand them straight back.
  const auto upstream_port = [&](std::uint16_t port) {
    return std::any_of(upstreams_.begin(), upstreams_.end(),
                       [port](const Endpoint& e) { return e.port == port; });
  };
  std::vector<Listener> skipped;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    LinkState& ls = *links_[i];
    ls.listener = Listener::open({"127.0.0.1", 0}, error);
    while (ls.listener.valid() && upstream_port(ls.listener.bound_port())) {
      skipped.push_back(std::move(ls.listener));
      ls.listener = Listener::open({"127.0.0.1", 0}, error);
    }
    if (!ls.listener.valid()) {
      stop();
      return false;
    }
    endpoints_.push_back({"127.0.0.1", ls.listener.bound_port()});
  }
  for (std::size_t i = 0; i < links_.size(); ++i) {
    links_[i]->acceptor = std::jthread(
        [this, i](std::stop_token st) { accept_loop(st, i); });
  }
  return true;
}

void ChaosProxy::stop() {
  if (stopping_.exchange(true)) return;
  // Wake each acceptor the way sever() wakes pumps: a shut-down listener
  // polls as ready and accepts nothing, so accept() returns at once.
  for (auto& link : links_) {
    if (link->acceptor.joinable()) link->acceptor.request_stop();
    link->listener.shutdown();
  }
  for (auto& link : links_) {
    if (link->acceptor.joinable()) link->acceptor.join();
    link->listener.close();
    // Swap the sessions out under the lock, then tear them down with the
    // lock RELEASED: pump threads take link->mu every frame (fault and
    // throttle snapshots), so joining them while holding it deadlocks
    // whenever a frame is in flight.
    std::vector<std::unique_ptr<Session>> doomed;
    {
      std::lock_guard<std::mutex> lock(link->mu);
      doomed.swap(link->sessions);
    }
    for (auto& session : doomed) {
      for (auto& pump : session->pumps) {
        if (pump.joinable()) pump.request_stop();
      }
      session->sever();
    }
    doomed.clear();  // jthread destructors join the pumps
  }
}

void ChaosProxy::accept_loop(std::stop_token st, std::size_t link) {
  LinkState& ls = *links_[link];
  while (!st.stop_requested()) {
    auto conn = ls.listener.accept(Clock::time_point::max());

    // Reap sessions whose pumps have both exited, so a chaotic run with
    // many resets does not accumulate dead threads.
    {
      std::lock_guard<std::mutex> lock(ls.mu);
      std::erase_if(ls.sessions, [](const std::unique_ptr<Session>& s) {
        return s->dead.load(std::memory_order_relaxed) &&
               s->live_pumps.load(std::memory_order_acquire) == 0;
      });
    }

    if (!conn.has_value()) continue;
    Socket upstream = tcp_connect(upstreams_[link], kUpstreamConnectTimeout);
    if (!upstream.valid()) continue;  // dead daemon: drop the client too

    auto session = std::make_unique<Session>();
    session->client = std::move(*conn);
    session->upstream = std::move(upstream);
    {
      std::lock_guard<std::mutex> lock(ls.mu);
      std::uint64_t mix = seed_ ^ (0x9E3779B97F4A7C15ULL * (link + 1));
      mix += ls.next_session++;
      session->session_seed = splitmix64(mix);
    }
    ls.connections.fetch_add(1, std::memory_order_relaxed);
    session->live_pumps.store(2, std::memory_order_release);
    Session* raw = session.get();
    // Register BEFORE spawning the pumps: once a pump runs, the session is
    // live on the wire, and kill_connections/stop must be able to find it.
    // The reaper can't collect it early — live_pumps is already 2.
    {
      std::lock_guard<std::mutex> lock(ls.mu);
      ls.sessions.push_back(std::move(session));
    }
    for (int dir = 0; dir < 2; ++dir) {
      raw->pumps[dir] = std::jthread(
          [this, link, dir, raw](std::stop_token pump_st) {
            pump(pump_st, link, static_cast<Dir>(dir), raw);
          });
    }
  }
}

bool ChaosProxy::link_up_locked(const LinkState& ls,
                                Clock::time_point now) const {
  if (!ls.flapping) return true;
  const auto period = ls.flap_up + ls.flap_down;
  if (period <= std::chrono::milliseconds::zero()) return true;
  const auto phase = (now - ls.flap_start) % period;
  return phase < ls.flap_up;
}

void ChaosProxy::pump(std::stop_token st, std::size_t link, Dir dir,
                      Session* session) {
  LinkState& ls = *links_[link];
  const Socket& src =
      dir == kToReplica ? session->client : session->upstream;
  const Socket& dst =
      dir == kToReplica ? session->upstream : session->client;
  // splitmix64 advances its state argument in place, and both pump threads
  // of a session start from session_seed — derive from a private copy so
  // the seeding stays deterministic per (session, direction) and race-free.
  std::uint64_t seed_state =
      session->session_seed +
      0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(dir) + 1);
  Rng rng(splitmix64(seed_state));

  FrameBuffer inbound;
  wire::Frame frame;
  wire::Frame held;
  bool has_held = false;
  Clock::time_point held_since{};
  const auto pid = static_cast<std::uint32_t>(link);

  auto forward = [&](const wire::Frame& f) -> bool {
    const wire::Bytes bytes = wire::encode(f);
    if (!send_all(dst, bytes.data(), bytes.size(),
                  Clock::now() + kSendBudget)) {
      return false;
    }
    ls.forwarded.fetch_add(1, std::memory_order_relaxed);
    // Bandwidth throttle: pay for the bytes just sent before pumping more.
    LinkFaults f_now;
    {
      std::lock_guard<std::mutex> lock(ls.mu);
      f_now = ls.faults[dir];
    }
    if (f_now.throttle_bytes_per_sec > 0) {
      const auto pause = std::chrono::microseconds(
          bytes.size() * 1'000'000ULL / f_now.throttle_bytes_per_sec);
      if (pause > std::chrono::microseconds::zero()) {
        ls.throttle_pauses.fetch_add(1, std::memory_order_relaxed);
        ASNAP_TRACE_EVENT(trace::EventKind::kNetThrottle, pid,
                          static_cast<std::uint64_t>(dir),
                          static_cast<std::uint64_t>(pause.count()));
        sliced_sleep(pause, st, session->dead);
      }
    }
    return true;
  };

  while (!st.stop_requested() &&
         !session->dead.load(std::memory_order_relaxed)) {
    const RecvStatus status = inbound.receive(
        src, has_held ? held_since + kReorderFlush : Clock::time_point::max(),
        &frame);
    const auto now = Clock::now();
    if (status == RecvStatus::kTimeout && has_held) {
      has_held = false;
      if (!forward(held)) break;
      continue;
    }
    if (status != RecvStatus::kOk) break;

    LinkFaults f;
    bool up;
    {
      std::lock_guard<std::mutex> lock(ls.mu);
      f = ls.faults[dir];
      up = link_up_locked(ls, now);
    }
    if (ls.last_up.exchange(up, std::memory_order_relaxed) != up) {
      ASNAP_TRACE_EVENT(trace::EventKind::kNetFlap, pid, up ? 1 : 0);
    }

    if (f.blackhole || !up) {
      ls.blackholed.fetch_add(1, std::memory_order_relaxed);
      continue;  // connection stays open — the asymmetric partition
    }
    if (f.drop_prob > 0 && rng.chance(f.drop_prob)) {
      ls.dropped.fetch_add(1, std::memory_order_relaxed);
      ASNAP_TRACE_EVENT(trace::EventKind::kNetDrop, pid,
                        static_cast<std::uint64_t>(dir),
                        wire::kHeaderBytes + frame.value.size());
      continue;
    }
    if (f.reset_prob > 0 && rng.chance(f.reset_prob)) {
      ls.resets.fetch_add(1, std::memory_order_relaxed);
      ASNAP_TRACE_EVENT(trace::EventKind::kNetReset, pid,
                        static_cast<std::uint64_t>(dir));
      break;
    }
    if (f.stall_prob > 0 && rng.chance(f.stall_prob)) {
      // Forward only a prefix — at least the length word, never the whole
      // frame — then go silent and drop the connection. The receiver holds
      // the partial frame in its FrameBuffer until the drop.
      const wire::Bytes bytes = wire::encode(frame);
      const std::size_t prefix = 4 + rng.below(bytes.size() - 4);
      send_all(dst, bytes.data(), prefix, Clock::now() + kSendBudget);
      ls.stalled.fetch_add(1, std::memory_order_relaxed);
      ASNAP_TRACE_EVENT(trace::EventKind::kNetStall, pid,
                        static_cast<std::uint64_t>(dir),
                        static_cast<std::uint64_t>(f.stall.count()));
      sliced_sleep(f.stall, st, session->dead);
      break;  // the receiver already abandoned this byte stream
    }
    if (f.delay > std::chrono::microseconds::zero() ||
        f.jitter > std::chrono::microseconds::zero()) {
      auto wait = f.delay;
      if (f.jitter > std::chrono::microseconds::zero()) {
        wait += std::chrono::microseconds(rng.below(
            static_cast<std::uint64_t>(f.jitter.count()) + 1));
      }
      ls.delayed.fetch_add(1, std::memory_order_relaxed);
      ASNAP_TRACE_EVENT(trace::EventKind::kNetDelay, pid,
                        static_cast<std::uint64_t>(dir),
                        static_cast<std::uint64_t>(wait.count()));
      if (!sliced_sleep(wait, st, session->dead)) break;
    }
    if (f.reorder_prob > 0 && !has_held && rng.chance(f.reorder_prob)) {
      held = frame;
      has_held = true;
      held_since = now;
      ls.reordered.fetch_add(1, std::memory_order_relaxed);
      ASNAP_TRACE_EVENT(trace::EventKind::kNetReorder, pid,
                        static_cast<std::uint64_t>(dir));
      continue;
    }
    if (!forward(frame)) break;
    if (has_held) {
      has_held = false;
      if (!forward(held)) break;
    }
  }

  // Whatever ended this pump ends the whole session: a relay with one live
  // direction would silently manufacture an asymmetric partition nobody
  // asked for.
  session->sever();
  session->live_pumps.fetch_sub(1, std::memory_order_release);
}

void ChaosProxy::set_faults(std::size_t link, Dir dir,
                            const LinkFaults& faults) {
  if (link >= links_.size()) return;
  std::lock_guard<std::mutex> lock(links_[link]->mu);
  links_[link]->faults[dir] = faults;
}

void ChaosProxy::set_all(const LinkFaults& faults) {
  for (auto& link : links_) {
    std::lock_guard<std::mutex> lock(link->mu);
    link->faults[0] = faults;
    link->faults[1] = faults;
  }
}

void ChaosProxy::blackhole(std::size_t link, Dir dir, bool on) {
  if (link >= links_.size()) return;
  {
    std::lock_guard<std::mutex> lock(links_[link]->mu);
    links_[link]->faults[dir].blackhole = on;
  }
  ASNAP_TRACE_EVENT(trace::EventKind::kNetBlackhole,
                    static_cast<std::uint32_t>(link),
                    static_cast<std::uint64_t>(dir), on ? 1 : 0);
}

void ChaosProxy::flap(std::size_t link, std::chrono::milliseconds up,
                      std::chrono::milliseconds down, bool on) {
  if (link >= links_.size()) return;
  std::lock_guard<std::mutex> lock(links_[link]->mu);
  LinkState& ls = *links_[link];
  ls.flapping = on;
  ls.flap_up = up;
  ls.flap_down = down;
  ls.flap_start = Clock::now();
}

void ChaosProxy::kill_connections(std::size_t link) {
  if (link >= links_.size()) return;
  LinkState& ls = *links_[link];
  std::lock_guard<std::mutex> lock(ls.mu);
  for (auto& session : ls.sessions) {
    if (!session->dead.load(std::memory_order_relaxed)) {
      ls.resets.fetch_add(1, std::memory_order_relaxed);
      ASNAP_TRACE_EVENT(trace::EventKind::kNetReset,
                        static_cast<std::uint32_t>(link), 2);
    }
    session->sever();
  }
}

void ChaosProxy::heal() {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    std::lock_guard<std::mutex> lock(links_[i]->mu);
    links_[i]->faults[0] = LinkFaults{};
    links_[i]->faults[1] = LinkFaults{};
    links_[i]->flapping = false;
  }
}

LinkStats ChaosProxy::stats(std::size_t link) const {
  LinkStats out;
  if (link >= links_.size()) return out;
  const LinkState& ls = *links_[link];
  out.connections = ls.connections.load(std::memory_order_relaxed);
  out.forwarded = ls.forwarded.load(std::memory_order_relaxed);
  out.dropped = ls.dropped.load(std::memory_order_relaxed);
  out.delayed = ls.delayed.load(std::memory_order_relaxed);
  out.reordered = ls.reordered.load(std::memory_order_relaxed);
  out.stalled = ls.stalled.load(std::memory_order_relaxed);
  out.resets = ls.resets.load(std::memory_order_relaxed);
  out.blackholed = ls.blackholed.load(std::memory_order_relaxed);
  out.throttle_pauses = ls.throttle_pauses.load(std::memory_order_relaxed);
  return out;
}

bool ChaosProxy::impaired(std::size_t link) const {
  if (link >= links_.size()) return false;
  std::lock_guard<std::mutex> lock(links_[link]->mu);
  const LinkState& ls = *links_[link];
  // drop_prob at (or within rounding of) 1.0 severs the link as surely as
  // a blackhole — a fault plan must not bypass the majority rail by
  // phrasing a partition as "total ambient loss".
  constexpr double kTotalLoss = 0.999;
  return ls.flapping || ls.faults[0].blackhole || ls.faults[1].blackhole ||
         ls.faults[0].drop_prob >= kTotalLoss ||
         ls.faults[1].drop_prob >= kTotalLoss;
}

std::size_t ChaosProxy::impaired_links() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (impaired(i)) ++count;
  }
  return count;
}

}  // namespace asnap::net
