// abd_replicad as a process: one epoll loop in one thread serves every
// connection. These tests pin what that loop promises. A long-lived replica
// sees a connection per client restart, reconnect backoff or chaos-proxy
// reset, so a closed connection must leave nothing behind. The daemon runs
// one thread however many clients it serves, once its resync is done. A
// peer that stalls mid-frame delays nobody else. Frames are answered in
// arrival order however the bytes are split across sends. The daemon
// inherits no socket of the process that spawned it. And SIGTERM ends it
// promptly even while its resync cannot reach a majority.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"

namespace asnap {
namespace {

using namespace std::chrono_literals;

/// One abd_replicad on an ephemeral port, SIGKILLed and reaped on
/// destruction. It is replica 0 of `cluster` replicas; the others are ports
/// nobody listens on, so with cluster > 1 its resync never reaches a
/// majority. It runs with MALLOC_ARENA_MAX=1: each malloc arena reserves
/// 64 MiB of address space, so arenas created on contention would blur a
/// VmSize measurement that is meant to see leaked connections.
class Replicad {
 public:
  explicit Replicad(std::size_t cluster = 1) {
    char tmpl[] = "/tmp/asnap_replicad_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) return;
    dir_ = tmpl;
    {
      std::vector<net::Listener> probes;
      for (std::size_t i = 0; i < cluster; ++i) {
        probes.push_back(net::Listener::open({"127.0.0.1", 0}));
        if (!probes.back().valid()) return;
        peers_ += (i == 0 ? "127.0.0.1:" : ",127.0.0.1:") +
                  std::to_string(probes.back().bound_port());
      }
      endpoint_ = {"127.0.0.1", probes.front().bound_port()};
    }
    spawn();
  }

  ~Replicad() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (stdout_ != nullptr) std::fclose(stdout_);
    std::error_code ec;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ec);
  }

  Replicad(const Replicad&) = delete;
  Replicad& operator=(const Replicad&) = delete;

  /// Start the daemon on this object's port and state directory: again,
  /// after terminate(), it replays the WAL the last run left.
  void spawn() {
    std::string arenas = "MALLOC_ARENA_MAX=1";
    char* argv[] = {const_cast<char*>(ASNAP_REPLICAD_PATH),
                    const_cast<char*>("--id"),
                    const_cast<char*>("0"),
                    const_cast<char*>("--peers"),
                    peers_.data(),
                    const_cast<char*>("--state-dir"),
                    dir_.data(),
                    const_cast<char*>("--regs"),
                    const_cast<char*>("1"),
                    nullptr};
    std::vector<char*> envp;
    for (char** e = environ; *e != nullptr; ++e) envp.push_back(*e);
    envp.push_back(arenas.data());
    envp.push_back(nullptr);
    if (stdout_ != nullptr) std::fclose(stdout_);
    stdout_ = nullptr;
    int out[2];
    if (::pipe(out) != 0) return;
    pid_ = ::fork();
    if (pid_ == 0) {  // only async-signal-safe calls until execve
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execve(ASNAP_REPLICAD_PATH, argv, envp.data());
      ::_exit(127);
    }
    ::close(out[1]);
    stdout_ = ::fdopen(out[0], "r");
  }

  /// SIGTERM, then wait up to `timeout` for the exit. The exit status, or
  /// nullopt when the daemon is still running at the timeout.
  std::optional<int> terminate(std::chrono::milliseconds timeout) {
    ::kill(pid_, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
      std::this_thread::sleep_for(1ms);
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }

  /// Blocks until the daemon prints a line starting with `prefix` (false
  /// if it exits first). `line`, when given, receives that line.
  bool wait_line(const std::string& prefix, std::string* line = nullptr) {
    char buf[256];
    while (stdout_ != nullptr && std::fgets(buf, sizeof(buf), stdout_)) {
      if (std::string(buf).rfind(prefix, 0) == 0) {
        if (line != nullptr) *line = buf;
        return true;
      }
    }
    return false;
  }
  bool wait_ready(std::string* line = nullptr) {
    return wait_line("READY", line);
  }

  /// A numeric field of the daemon's /proc status (0 if unreadable).
  std::size_t status(const std::string& field) const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
      if (key == field + ":") {
        std::size_t value = 0;
        in >> value;
        return value;
      }
      in.ignore(1 << 12, '\n');
    }
    return 0;
  }
  /// The daemon's virtual memory size in KiB.
  std::size_t vm_size_kib() const { return status("VmSize"); }

  /// What each of the daemon's open file descriptors points at.
  std::vector<std::string> fd_targets() const {
    std::vector<std::string> targets;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(
             "/proc/" + std::to_string(pid_) + "/fd", ec)) {
      targets.push_back(std::filesystem::read_symlink(entry.path(), ec));
    }
    return targets;
  }

  const net::Endpoint& endpoint() const { return endpoint_; }

 private:
  std::string dir_;
  std::string peers_;  ///< the --peers list; this daemon is its first entry
  net::Endpoint endpoint_;
  pid_t pid_ = -1;
  std::FILE* stdout_ = nullptr;
};

/// A client connection to the daemon: its socket and the bytes of replies
/// not yet read as frames.
struct Client {
  net::Socket sock;
  net::FrameBuffer inbound;

  explicit Client(const net::Endpoint& ep)
      : sock(net::tcp_connect(ep, 1000ms)) {}

  bool send(const net::wire::Frame& f) {
    return net::send_frame(sock, f, std::chrono::steady_clock::now() + 1s);
  }
  net::RecvStatus receive(net::wire::Frame* out,
                          std::chrono::milliseconds timeout = 2000ms) {
    return inbound.receive(sock, std::chrono::steady_clock::now() + timeout,
                           out);
  }
};

/// One ping/pong round trip on `client`, the pong bounded by `timeout`.
bool ping(Client& client, std::uint64_t rid,
          std::chrono::milliseconds timeout = 2000ms) {
  net::wire::Frame ping;
  ping.type = net::wire::kPing;
  ping.rid = rid;
  if (!client.send(ping)) return false;
  net::wire::Frame pong;
  return client.receive(&pong, timeout) == net::RecvStatus::kOk &&
         pong.type == net::wire::kPong && pong.rid == rid;
}

/// Connect, make one ping/pong round trip (so the daemon certainly served
/// the connection), and close.
bool ping_once(const net::Endpoint& ep) {
  Client client(ep);
  return client.sock.valid() && ping(client, 1);
}

TEST(Replicad, FinishedConnectionHandlersAreReaped) {
  Replicad daemon;
  ASSERT_TRUE(daemon.wait_ready());
  ASSERT_TRUE(ping_once(daemon.endpoint()));  // warm up: resync, first handler
  const std::size_t before = daemon.vm_size_kib();
  ASSERT_GT(before, 0u);

  constexpr int kConnections = 200;
  for (int i = 0; i < kConnections; ++i) {
    ASSERT_TRUE(ping_once(daemon.endpoint())) << "connection " << i;
  }
  // A connection whose thread or state outlived it would pin memory: a
  // thread stack alone is 8 MiB, so leaking one per connection would grow
  // the daemon by ~1.6 GiB here. Allow an eighth of that.
  constexpr std::size_t kBoundKib = kConnections * 8 * 1024 / 8;
  std::size_t growth = 0;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  do {
    std::this_thread::sleep_for(100ms);
    const std::size_t now = daemon.vm_size_kib();
    growth = now > before ? now - before : 0;
  } while (growth >= kBoundKib && std::chrono::steady_clock::now() < deadline);
  EXPECT_LT(growth, kBoundKib)
      << "daemon VmSize grew by " << growth / 1024 << " MiB over "
      << kConnections << " short connections: closed connections leak";
}

#if defined(__SANITIZE_THREAD__)
constexpr std::size_t kRuntimeThreads = 1;  // ThreadSanitizer's own thread
#else
constexpr std::size_t kRuntimeThreads = 0;
#endif

TEST(Replicad, RunsOneThreadWhateverItsConnections) {
  Replicad daemon;
  ASSERT_TRUE(daemon.wait_ready());
  std::vector<Client> clients;
  for (int i = 0; i < 6; ++i) {
    clients.emplace_back(daemon.endpoint());
    ASSERT_TRUE(ping(clients.back(), 1)) << "client " << i;
  }
  ASSERT_TRUE(daemon.wait_line("RESYNC done"));
  // The resync thread prints its line just before it returns.
  std::size_t threads = 0;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  do {
    threads = daemon.status("Threads") - kRuntimeThreads;
    if (threads == 1) break;
    std::this_thread::sleep_for(10ms);
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(threads, 1u) << "six open connections, resync done";
}

TEST(Replicad, PeerStalledMidFrameDelaysNobody) {
  Replicad daemon;
  ASSERT_TRUE(daemon.wait_ready());
  Client stalled(daemon.endpoint());
  ASSERT_TRUE(ping(stalled, 1));
  net::wire::Frame f;
  f.type = net::wire::kPing;
  const net::wire::Bytes half = net::wire::encode(f);
  ASSERT_TRUE(net::send_all(stalled.sock, half.data(), half.size() / 2,
                            std::chrono::steady_clock::now() + 1s));
  Client other(daemon.endpoint());
  ASSERT_TRUE(other.sock.valid());
  for (std::uint64_t rid = 1; rid <= 3; ++rid) {
    EXPECT_TRUE(ping(other, rid, 200ms)) << "pong " << rid << " took > 200 ms";
  }
}

TEST(Replicad, FramesAreAnsweredInOrderHoweverTheyAreSplit) {
  Replicad daemon;
  ASSERT_TRUE(daemon.wait_ready());
  Client client(daemon.endpoint());
  ASSERT_TRUE(client.sock.valid());
  using net::wire::Frame;
  // A write, a read of it and a ping in ONE send: the read sees the write.
  const Frame batch[] = {
      Frame{.type = net::wire::kWriteReq, .rid = 1, .ts = 1, .value = {7}},
      Frame{.type = net::wire::kReadReq, .rid = 2},
      Frame{.type = net::wire::kPing, .rid = 3}};
  net::wire::Bytes bytes;
  for (const Frame& f : batch) {
    const net::wire::Bytes one = net::wire::encode(f);
    bytes.insert(bytes.end(), one.begin(), one.end());
  }
  ASSERT_TRUE(net::send_all(client.sock, bytes.data(), bytes.size(),
                            std::chrono::steady_clock::now() + 1s));
  const std::uint8_t want[] = {net::wire::kWriteAck, net::wire::kReadReply,
                               net::wire::kPong};
  Frame reply;
  for (std::uint64_t rid = 1; rid <= 3; ++rid) {
    ASSERT_EQ(client.receive(&reply), net::RecvStatus::kOk);
    EXPECT_EQ(reply.rid, rid);
    EXPECT_EQ(reply.type, want[rid - 1]);
  }
  EXPECT_EQ(reply.rid, 3u);
  // One frame over many sends: answered once its last byte arrives.
  const net::wire::Bytes split =
      net::wire::encode(Frame{.type = net::wire::kReadReq, .rid = 4});
  for (std::size_t at = 0; at < split.size(); at += 5) {
    const std::size_t len = std::min<std::size_t>(5, split.size() - at);
    ASSERT_EQ(::send(client.sock.fd(), split.data() + at, len, MSG_NOSIGNAL),
              static_cast<ssize_t>(len));
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_EQ(client.receive(&reply), net::RecvStatus::kOk);
  EXPECT_EQ(reply.rid, 4u);
  EXPECT_EQ(reply.type, net::wire::kReadReply);
  EXPECT_EQ(reply.ts, 1u);
  EXPECT_EQ(reply.value, net::wire::Bytes({7}));
}

TEST(Replicad, InheritsNoSocketOfItsSpawner) {
  std::string error;
  const net::Listener held = net::Listener::open({"127.0.0.1", 0}, &error);
  ASSERT_TRUE(held.valid()) << error;
  struct stat st {};
  ASSERT_EQ(::fstat(held.fd(), &st), 0);
  const std::string inode = "socket:[" + std::to_string(st.st_ino) + "]";
  Replicad daemon;  // forked and exec'd while `held` is open
  ASSERT_TRUE(daemon.wait_ready());
  const auto targets = daemon.fd_targets();
  ASSERT_FALSE(targets.empty());
  for (const std::string& target : targets) {
    EXPECT_NE(target, inode) << "the daemon holds its spawner's listener";
  }
}

/// The epoch a "READY port=<p> epoch=<e>" line announces (0 if none).
std::uint64_t ready_epoch(const std::string& line) {
  const std::size_t at = line.find("epoch=");
  return at == std::string::npos ? 0 : std::stoull(line.substr(at + 6));
}

TEST(Replicad, SigtermDuringResyncExitsPromptly) {
  Replicad daemon(/*cluster=*/3);  // two peers that never answer
  std::string ready;
  ASSERT_TRUE(daemon.wait_ready(&ready));
  const std::uint64_t epoch = ready_epoch(ready);
  ASSERT_GT(epoch, 0u) << ready;
  std::this_thread::sleep_for(100ms);  // the resync is querying
  const auto t0 = std::chrono::steady_clock::now();
  const std::optional<int> status = daemon.terminate(500ms);
  ASSERT_TRUE(status.has_value())
      << "no exit within 500 ms of SIGTERM: the in-flight resync query held "
         "the daemon";
  EXPECT_EQ(*status, 0);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 500ms);
  // The exit left a log the next incarnation replays.
  daemon.spawn();
  ASSERT_TRUE(daemon.wait_ready(&ready));
  EXPECT_EQ(ready_epoch(ready), epoch + 1) << ready;
}

}  // namespace
}  // namespace asnap
