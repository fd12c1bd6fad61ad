// abd_replicad — one ABD register replica as a real OS process.
//
// The daemon serves sockets with abd::ReplicaCore (core.hpp), the replica
// rules every AbdCluster replica thread runs too: apply WRITE iff the
// timestamp is newer and always ack, serve READ with the confirmed flag,
// fold CONFIRM, stamp the incarnation epoch. What the daemon adds around
// the core, because its crashes are real:
//
//   * DURABILITY: every write that advances the replica is appended +
//     fsync()ed to a write-ahead log BEFORE the core applies and acks it
//     (abd/wal.hpp). A kill -9 can therefore lose only unacked work; the
//     torn tail of the log is truncated on replay. The core's state is the
//     one copy of the registers: WAL replay fills it, compaction reads it.
//   * INCARNATIONS: on every start the daemon replays its WAL, durably
//     bumps its epoch, and the core stamps all replies with it, so clients
//     discard replies produced by a pre-crash incarnation.
//
// SERVING: one thread runs one epoll loop over the listener, every client
// connection and a signalfd for SIGTERM/SIGINT (so shutdown needs no
// polling). Each complete frame goes through Replica::handle in arrival
// order: a WRITE that advances the replica is appended and fsynced on the
// loop thread, and its ack is sent as soon as that fsync returns. A partial
// frame waits in its connection's buffer; a malformed one drops the
// connection. Replies go out without waiting: one that does not fit the
// send buffer drops its connection and the client redials, so no peer can
// stall the loop.
//
// Recovery order matters and is deliberate: the daemon serves immediately
// after replaying its WAL — a replica restored from its log is merely
// stale, which ABD tolerates by construction (read quorums intersect the
// majority that acked any write) — and then a background resync thread
// quorum-reads registers 0..regs-1 through abd::RemoteRegisterClient and
// adopts anything newer, restoring full f-tolerance. Its queries are short
// and retried until they succeed, so SIGTERM ends the daemon promptly even
// while no majority answers. Serving first avoids the bootstrap deadlock
// where all replicas of a cold cluster wait on each other's majority. The
// resync thread is the daemon's only other thread: it is a client of this
// daemon's own listener, so it cannot run on the loop, and the replica
// mutex is there for it.
//
// Usage:
//   abd_replicad --id I --peers host:port,... --state-dir DIR [--regs N]
// Unknown arguments are rejected (exit 2).
// `--peers` lists ALL replica endpoints in id order; the daemon listens on
// entry I. State lives in DIR/replica-I/ (derived from --id, so replicas of
// one cluster may share a --state-dir without sharing a WAL). Prints
// "READY port=<p> epoch=<e>" on stdout once accepting.
#include <signal.h>
#include <sys/epoll.h>
#include <sys/signalfd.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "abd/core.hpp"
#include "abd/remote_client.hpp"
#include "abd/wal.hpp"
#include "common/flags.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace asnap {
namespace {

using namespace std::chrono_literals;
using net::wire::Frame;

/// SIGTERM and SIGINT: blocked in every thread, read from a signalfd.
sigset_t stop_signals() {
  sigset_t set;
  ::sigemptyset(&set);
  ::sigaddset(&set, SIGTERM);
  ::sigaddset(&set, SIGINT);
  return set;
}

struct Args {
  std::size_t id = 0;
  std::vector<net::Endpoint> peers;
  std::string state_dir;
  std::uint64_t regs = 16;
};

/// Compact `wal` to `state`. False when the WAL now refuses every append:
/// the rename could not be made durable (last_error() kIo), and only a
/// restart compacts again, so the daemon must exit. A compaction that
/// failed before its rename keeps the old log and is simply tried again.
/// Both callers compact right after a successful append, so last_error()
/// reads kNone going in.
bool compact(abd::ReplicaWal& wal, const abd::WalState& state) {
  return wal.compact(state) || wal.last_error() == abd::WalError::kNone;
}

/// The replica shared by the loop and the resync thread. One mutex covers
/// core + WAL so compaction can't race appends.
struct Replica {
  static constexpr std::uint64_t kCompactBytes = 8ull << 20;
  std::mutex mu;
  abd::ReplicaCore<net::wire::Bytes> core;
  std::unique_ptr<abd::ReplicaWal> wal;
  /// Set when a compaction left the WAL refusing appends; the loop then
  /// exits 1 rather than serve reads while dropping every write.
  std::atomic<bool> wal_lost{false};

  /// core.handle(req), with a WRITE that advances the replica made durable
  /// first. False when that append failed: the write is neither applied
  /// nor acked — an acked write has to be on disk.
  bool handle(const Frame& req, std::optional<Frame>* reply) {
    std::lock_guard<std::mutex> lock(mu);
    const bool advances =
        req.type == net::wire::kWriteReq && core.newer(req.reg, req.ts);
    if (advances && !wal->append_write(req.reg, req.ts, req.value)) {
      return false;
    }
    *reply = core.handle(req);
    if (advances && wal->bytes() > kCompactBytes &&
        !compact(*wal, core.state())) {
      wal_lost.store(true, std::memory_order_release);
    }
    return true;
  }
};

/// A client connection: its socket and the bytes of frames still arriving.
struct Conn {
  net::Socket sock;
  net::FrameBuffer inbound;
};

/// Serve every complete frame `conn` has buffered, in arrival order. False
/// when the connection must be dropped: a malformed frame, a failed WAL
/// append, or a reply that did not fit the send buffer.
bool serve_frames(std::size_t id, Replica& replica, Conn& conn) {
  Frame req;
  net::PopStatus status;
  while ((status = conn.inbound.pop(&req)) == net::PopStatus::kFrame) {
    std::optional<Frame> reply;
    if (!replica.handle(req, &reply)) {
      // Classified so an operator can tell a full volume (free space,
      // daemon recovers) from a dying device; NEITHER is acked.
      std::fprintf(stderr, "replica %zu: WAL append failed (%s), dropping\n",
                   id, abd::wal_error_name(replica.wal->last_error()));
      return false;
    }
    if (!reply.has_value()) continue;  // CONFIRM or unknown: no reply
    reply->from = id;
    // A deadline long past: the reply is written only if it fits the send
    // buffer now, never waited for.
    if (!net::send_frame(conn.sock, *reply,
                         std::chrono::steady_clock::time_point::min())) {
      return false;
    }
  }
  return status == net::PopStatus::kNeedMore;
}

/// Background resync: quorum-read each register through the ordinary client
/// rounds (including this daemon's own listener — the self reply counts
/// toward the majority, as in AbdCluster::recover) and adopt anything
/// newer. Restores full f-tolerance after a restart; correctness never
/// depended on it (see file header). Uses try_query — a query with NO
/// write-back — and installs through the write path, which never touches
/// the confirmed ts: a resync read skipping write-back has not stabilized
/// anything, so the restarted replica must keep answering reads without
/// kFlagTsConfirmed until a live writer/reader confirms again.
///
/// A register's query is retried until it succeeds or `stop` is set, and
/// each try is short, so a daemon told to stop waits out at most one
/// query before run() joins this thread.
void resync(std::size_t id, const Args& args, Replica& replica,
            const std::atomic<bool>& stop) {
  abd::AbdConfig config;
  config.op_deadline = 200ms;
  abd::RemoteRegisterClient client(args.peers, /*client_id=*/1000 + id,
                                   config);
  for (std::uint64_t reg = 0; reg < args.regs; ++reg) {
    std::optional<abd::RemoteRegisterClient::ReadResult> got;
    while (!got.has_value()) {
      if (stop.load(std::memory_order_acquire)) return;
      got = client.try_query(reg);
    }
    const Frame install{.type = net::wire::kWriteReq,
                        .reg = reg,
                        .ts = got->ts,
                        .value = got->value};
    std::optional<Frame> ack;
    (void)replica.handle(install, &ack);
  }
  std::printf("RESYNC done regs=%llu\n",
              static_cast<unsigned long long>(args.regs));
  std::fflush(stdout);
}

/// The event loop: accept, receive, serve, until SIGTERM/SIGINT arrive on
/// `signals` (true), or epoll fails or the WAL is lost (false), so the
/// daemon exits 1 and its supervisor restarts it. Level-triggered, so a
/// connection with more bytes ready than one receive takes is simply
/// reported again on the next pass.
bool serve(std::size_t id, Replica& replica, net::Listener& listener,
           int signals) {
  const int epoll = ::epoll_create1(EPOLL_CLOEXEC);
  const auto watch = [epoll](int fd) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    return ::epoll_ctl(epoll, EPOLL_CTL_ADD, fd, &ev) == 0;
  };
  if (epoll < 0 || !watch(listener.fd()) || !watch(signals)) {
    std::perror("abd_replicad: epoll");
    if (epoll >= 0) ::close(epoll);
    return false;
  }
  std::unordered_map<int, Conn> conns;  // by fd; closing one unwatches it
  epoll_event events[64];
  bool ok = true;
  for (bool stop = false; !stop;) {
    const int ready = ::epoll_wait(epoll, events, 64, -1);
    if (ready < 0 && errno != EINTR) {
      std::perror("abd_replicad: epoll_wait");
      ok = false;
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == signals) {
        stop = true;
      } else if (fd == listener.fd()) {
        while (auto sock = listener.accept_pending()) {
          const int conn_fd = sock->fd();
          if (watch(conn_fd)) conns[conn_fd] = Conn{std::move(*sock), {}};
        }
      } else if (const auto it = conns.find(fd); it != conns.end()) {
        Conn& conn = it->second;
        if (!conn.inbound.fill(conn.sock) ||
            !serve_frames(id, replica, conn)) {
          conns.erase(it);  // EOF, error, or a dropped connection
        }
      }
    }
    if (replica.wal_lost.load(std::memory_order_acquire)) {
      std::fprintf(stderr, "abd_replicad: compacted log not durable\n");
      ok = false;
      break;
    }
  }
  ::close(epoll);
  return ok;
}

int run(const Args& args) {
  std::string error;
  // Per-id subdirectory: replicas sharing one --state-dir must never share
  // a WAL (merged state would fake quorum durability).
  const std::string dir =
      args.state_dir + "/replica-" + std::to_string(args.id);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "abd_replicad: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  abd::WalState state;
  auto wal = abd::ReplicaWal::open(dir + "/wal.log", &state, &error);
  if (wal == nullptr) {
    std::fprintf(stderr, "abd_replicad: %s\n", error.c_str());
    return 1;
  }
  // New incarnation, made durable BEFORE any reply can carry it.
  ++state.epoch;
  if (!wal->append_epoch(state.epoch)) {
    std::fprintf(stderr, "abd_replicad: cannot persist epoch\n");
    return 1;
  }
  // Bound log growth across crash/restart cycles.
  if (!compact(*wal, state)) {
    std::fprintf(stderr, "abd_replicad: compacted log not durable\n");
    return 1;
  }
  const std::uint64_t epoch = state.epoch;
  Replica replica{{}, abd::ReplicaCore<net::wire::Bytes>(std::move(state)),
                  std::move(wal)};

  // SIGTERM and SIGINT are blocked (main does it before any thread
  // exists) and arrive here as a readable fd instead.
  const sigset_t mask = stop_signals();
  const int signals = ::signalfd(-1, &mask, SFD_NONBLOCK | SFD_CLOEXEC);
  if (signals < 0) {
    std::perror("abd_replicad: signalfd");
    return 1;
  }
  net::Listener listener = net::Listener::open(args.peers[args.id], &error);
  if (!listener.valid()) {
    std::fprintf(stderr, "abd_replicad: %s\n", error.c_str());
    return 1;
  }
  std::printf("READY port=%u epoch=%llu\n",
              static_cast<unsigned>(listener.bound_port()),
              static_cast<unsigned long long>(epoch));
  std::fflush(stdout);

  std::atomic<bool> stop{false};
  std::thread resyncer([&] { resync(args.id, args, replica, stop); });
  const bool served = serve(args.id, replica, listener, signals);
  stop.store(true, std::memory_order_release);
  listener.close();
  resyncer.join();
  ::close(signals);
  return served ? 0 : 1;
}

}  // namespace
}  // namespace asnap

int main(int argc, char** argv) {
  using asnap::Args;
  using asnap::consume_flag;
  constexpr const char* kTool = "abd_replicad";
  Args args;
  const std::string id = consume_flag(argc, argv, "--id");
  const std::string peers = consume_flag(argc, argv, "--peers");
  args.state_dir = consume_flag(argc, argv, "--state-dir");
  args.regs = asnap::consume_number(argc, argv, "--regs", args.regs, kTool);
  if (!asnap::no_unknown_args(argc, argv, kTool) || id.empty() ||
      peers.empty() || args.state_dir.empty()) {
    std::fprintf(stderr,
                 "usage: abd_replicad --id I --peers host:port,... "
                 "--state-dir DIR [--regs N]\n");
    return 2;
  }
  args.id = asnap::parse_flag<std::size_t>(id, "--id", kTool);
  const auto parsed = asnap::net::parse_endpoints(peers);
  if (!parsed.has_value() || args.id >= parsed->size()) {
    std::fprintf(stderr, "abd_replicad: bad --peers/--id\n");
    return 2;
  }
  args.peers = *parsed;

  // Blocked before the resync thread exists, so every thread inherits the
  // mask and the loop's signalfd is the only place they are delivered.
  const sigset_t mask = asnap::stop_signals();
  ::pthread_sigmask(SIG_BLOCK, &mask, nullptr);
  signal(SIGPIPE, SIG_IGN);
  return asnap::run(args);
}
