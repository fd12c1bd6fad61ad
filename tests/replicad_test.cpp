// abd_replicad as a process: one epoll loop in one thread serves every
// connection. These tests pin what that loop promises. A long-lived replica
// sees a connection per client restart, reconnect backoff or chaos-proxy
// reset, so a closed connection must leave nothing behind. The daemon runs
// one thread however many clients it serves, once its resync is done. A
// peer that stalls mid-frame delays nobody else. Frames are answered in
// arrival order however the bytes are split across sends. And the daemon
// inherits no socket of the process that spawned it.
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
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"

namespace asnap {
namespace {

using namespace std::chrono_literals;

/// One abd_replicad (a cluster of one) on an ephemeral port, SIGKILLed and
/// reaped on destruction. It runs with MALLOC_ARENA_MAX=1: each malloc arena
/// reserves 64 MiB of address space, so arenas created on contention would
/// blur a VmSize measurement that is meant to see leaked connections.
class Replicad {
 public:
  Replicad() {
    char tmpl[] = "/tmp/asnap_replicad_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) return;
    dir_ = tmpl;
    {
      net::Listener probe = net::Listener::open({"127.0.0.1", 0});
      if (!probe.valid()) return;
      endpoint_ = {"127.0.0.1", probe.bound_port()};
    }
    std::string peers = "127.0.0.1:" + std::to_string(endpoint_.port);
    std::string arenas = "MALLOC_ARENA_MAX=1";
    char* argv[] = {const_cast<char*>(ASNAP_REPLICAD_PATH),
                    const_cast<char*>("--id"),
                    const_cast<char*>("0"),
                    const_cast<char*>("--peers"),
                    peers.data(),
                    const_cast<char*>("--state-dir"),
                    dir_.data(),
                    const_cast<char*>("--regs"),
                    const_cast<char*>("1"),
                    nullptr};
    std::vector<char*> envp;
    for (char** e = environ; *e != nullptr; ++e) envp.push_back(*e);
    envp.push_back(arenas.data());
    envp.push_back(nullptr);
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

  /// Blocks until the daemon prints a line starting with `prefix` (false
  /// if it exits first).
  bool wait_line(const std::string& prefix) {
    char line[256];
    while (stdout_ != nullptr && std::fgets(line, sizeof(line), stdout_)) {
      if (std::string(line).rfind(prefix, 0) == 0) return true;
    }
    return false;
  }
  bool wait_ready() { return wait_line("READY"); }

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
  net::Endpoint endpoint_;
  pid_t pid_ = -1;
  std::FILE* stdout_ = nullptr;
};

/// One ping/pong round trip on `sock`, the pong bounded by `timeout`.
bool ping(const net::Socket& sock, std::uint64_t rid,
          std::chrono::milliseconds timeout = 2000ms) {
  net::wire::Frame ping;
  ping.type = net::wire::kPing;
  ping.rid = rid;
  if (!net::send_frame(sock, ping)) return false;
  net::wire::Frame pong;
  return net::recv_frame(sock, std::chrono::steady_clock::now() + timeout,
                         &pong) == net::RecvStatus::kOk &&
         pong.type == net::wire::kPong && pong.rid == rid;
}

/// Connect, make one ping/pong round trip (so the daemon certainly served
/// the connection), and close.
bool ping_once(const net::Endpoint& ep) {
  net::Socket sock = net::tcp_connect(ep, 1000ms);
  return sock.valid() && ping(sock, 1);
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
  std::vector<net::Socket> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(net::tcp_connect(daemon.endpoint(), 1000ms));
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
  net::Socket stalled = net::tcp_connect(daemon.endpoint(), 1000ms);
  ASSERT_TRUE(ping(stalled, 1));
  net::wire::Frame f;
  f.type = net::wire::kPing;
  const net::wire::Bytes half = net::wire::encode(f);
  ASSERT_TRUE(net::send_all(stalled, half.data(), half.size() / 2,
                            std::chrono::steady_clock::now() + 1s));
  net::Socket other = net::tcp_connect(daemon.endpoint(), 1000ms);
  ASSERT_TRUE(other.valid());
  for (std::uint64_t rid = 1; rid <= 3; ++rid) {
    EXPECT_TRUE(ping(other, rid, 200ms)) << "pong " << rid << " took > 200 ms";
  }
}

TEST(Replicad, FramesAreAnsweredInOrderHoweverTheyAreSplit) {
  Replicad daemon;
  ASSERT_TRUE(daemon.wait_ready());
  net::Socket sock = net::tcp_connect(daemon.endpoint(), 1000ms);
  ASSERT_TRUE(sock.valid());
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
  ASSERT_TRUE(net::send_all(sock, bytes.data(), bytes.size(),
                            std::chrono::steady_clock::now() + 1s));
  const std::uint8_t want[] = {net::wire::kWriteAck, net::wire::kReadReply,
                               net::wire::kPong};
  Frame reply;
  for (std::uint64_t rid = 1; rid <= 3; ++rid) {
    ASSERT_EQ(net::recv_frame(sock, std::chrono::steady_clock::now() + 2s,
                              &reply),
              net::RecvStatus::kOk);
    EXPECT_EQ(reply.rid, rid);
    EXPECT_EQ(reply.type, want[rid - 1]);
  }
  EXPECT_EQ(reply.rid, 3u);
  // One frame over many sends: answered once its last byte arrives.
  const net::wire::Bytes split =
      net::wire::encode(Frame{.type = net::wire::kReadReq, .rid = 4});
  for (std::size_t at = 0; at < split.size(); at += 5) {
    const std::size_t len = std::min<std::size_t>(5, split.size() - at);
    ASSERT_EQ(::send(sock.fd(), split.data() + at, len, MSG_NOSIGNAL),
              static_cast<ssize_t>(len));
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_EQ(net::recv_frame(sock, std::chrono::steady_clock::now() + 2s,
                            &reply),
            net::RecvStatus::kOk);
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

}  // namespace
}  // namespace asnap
