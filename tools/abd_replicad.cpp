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
// Recovery order matters and is deliberate: the daemon serves immediately
// after replaying its WAL — a replica restored from its log is merely
// stale, which ABD tolerates by construction (read quorums intersect the
// majority that acked any write) — and then a background resync thread
// quorum-reads registers 0..regs-1 through abd::RemoteRegisterClient and
// adopts anything newer, restoring full f-tolerance. Serving first avoids
// the bootstrap deadlock where all replicas of a cold cluster wait on each
// other's majority.
//
// Usage:
//   abd_replicad --id I --peers host:port,... --state-dir DIR [--regs N]
// Unknown arguments are rejected (exit 2).
// `--peers` lists ALL replica endpoints in id order; the daemon listens on
// entry I. State lives in DIR/replica-I/ (derived from --id, so replicas of
// one cluster may share a --state-dir without sharing a WAL). Prints
// "READY port=<p> epoch=<e>" on stdout once accepting.
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
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

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_release); }

struct Args {
  std::size_t id = 0;
  std::vector<net::Endpoint> peers;
  std::string state_dir;
  std::uint64_t regs = 16;
};

/// The replica shared by connection handlers and the resync thread. One
/// mutex covers core + WAL so compaction can't race appends.
struct Replica {
  static constexpr std::uint64_t kCompactBytes = 8ull << 20;
  std::mutex mu;
  abd::ReplicaCore<net::wire::Bytes> core;
  std::unique_ptr<abd::ReplicaWal> wal;

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
    if (advances && wal->bytes() > kCompactBytes) wal->compact(core.state());
    return true;
  }
};

void serve_connection(std::size_t id, Replica& replica, net::Socket conn) {
  Frame req;
  while (!g_stop.load(std::memory_order_acquire)) {
    const auto status = net::recv_frame(
        conn, std::chrono::steady_clock::now() + 250ms, &req);
    if (status == net::RecvStatus::kTimeout) continue;  // idle, re-check stop
    if (status != net::RecvStatus::kOk) return;  // EOF / error / bad frame
    std::optional<Frame> reply;
    if (!replica.handle(req, &reply)) {
      // Classified so an operator can tell a full volume (free space,
      // daemon recovers) from a dying device; NEITHER is acked.
      std::fprintf(stderr, "replica %zu: WAL append failed (%s), dropping\n",
                   id, abd::wal_error_name(replica.wal->last_error()));
      return;
    }
    if (!reply.has_value()) continue;  // CONFIRM or unknown: no reply
    reply->from = id;
    if (!net::send_frame(conn, *reply)) return;
  }
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
void resync(std::size_t id, const Args& args, Replica& replica) {
  abd::AbdConfig config;
  config.op_deadline = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::seconds(2));
  abd::RemoteRegisterClient client(args.peers, /*client_id=*/1000 + id,
                                   config);
  std::size_t synced = 0;
  for (std::uint64_t reg = 0; reg < args.regs; ++reg) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      if (g_stop.load(std::memory_order_acquire)) return;
      const auto got = client.try_query(reg);
      if (!got.has_value()) {
        std::this_thread::sleep_for(100ms);
        continue;
      }
      const Frame install{.type = net::wire::kWriteReq,
                          .reg = reg,
                          .ts = got->ts,
                          .value = got->value};
      std::optional<Frame> ack;
      (void)replica.handle(install, &ack);
      ++synced;
      break;
    }
  }
  std::printf("RESYNC done regs=%zu/%llu\n", synced,
              static_cast<unsigned long long>(args.regs));
  std::fflush(stdout);
}

/// A connection handler. Finished ones are joined by the accept loop: an
/// exited thread that is never joined keeps its stack mapped.
struct Handler {
  std::atomic<bool> done{false};
  std::thread thread;
};

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
  wal->compact(state);
  const std::uint64_t epoch = state.epoch;
  Replica replica{{}, abd::ReplicaCore<net::wire::Bytes>(std::move(state)),
                  std::move(wal)};

  net::Listener listener = net::Listener::open(args.peers[args.id], &error);
  if (!listener.valid()) {
    std::fprintf(stderr, "abd_replicad: %s\n", error.c_str());
    return 1;
  }
  std::printf("READY port=%u epoch=%llu\n",
              static_cast<unsigned>(listener.bound_port()),
              static_cast<unsigned long long>(epoch));
  std::fflush(stdout);

  std::thread resyncer([&] { resync(args.id, args, replica); });
  std::list<Handler> handlers;
  while (!g_stop.load(std::memory_order_acquire)) {
    for (auto it = handlers.begin(); it != handlers.end();) {
      if (!it->done.load(std::memory_order_acquire)) {
        ++it;
        continue;
      }
      it->thread.join();
      it = handlers.erase(it);
    }
    auto conn = listener.accept(250ms);
    if (!conn.has_value()) continue;
    Handler& handler = handlers.emplace_back();
    handler.thread = std::thread([&replica, &handler, id = args.id,
                                  sock = std::move(*conn)]() mutable {
      serve_connection(id, replica, std::move(sock));
      handler.done.store(true, std::memory_order_release);
    });
  }
  listener.close();
  for (auto& handler : handlers) handler.thread.join();
  resyncer.join();
  return 0;
}

}  // namespace
}  // namespace asnap

int main(int argc, char** argv) {
  using asnap::Args;
  using asnap::consume_flag;
  Args args;
  const std::string id = consume_flag(argc, argv, "--id");
  const std::string peers = consume_flag(argc, argv, "--peers");
  args.state_dir = consume_flag(argc, argv, "--state-dir");
  const std::string regs = consume_flag(argc, argv, "--regs");
  if (!asnap::no_unknown_args(argc, argv, "abd_replicad") || id.empty() ||
      peers.empty() || args.state_dir.empty()) {
    std::fprintf(stderr,
                 "usage: abd_replicad --id I --peers host:port,... "
                 "--state-dir DIR [--regs N]\n");
    return 2;
  }
  args.id = std::strtoull(id.c_str(), nullptr, 10);
  if (!regs.empty()) args.regs = std::strtoull(regs.c_str(), nullptr, 10);
  const auto parsed = asnap::net::parse_endpoints(peers);
  if (!parsed.has_value() || args.id >= parsed->size()) {
    std::fprintf(stderr, "abd_replicad: bad --peers/--id\n");
    return 2;
  }
  args.peers = *parsed;

  signal(SIGTERM, asnap::on_signal);
  signal(SIGINT, asnap::on_signal);
  signal(SIGPIPE, SIG_IGN);
  return asnap::run(args);
}
