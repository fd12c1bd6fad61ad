// abd_replicad process hygiene: the daemon serves each connection on its own
// thread, and a thread that has exited keeps its stack mapped until someone
// joins it. A long-lived replica sees a connection per client restart,
// reconnect backoff or chaos-proxy reset, so handlers must be reaped as
// they finish — not at shutdown.
#include <gtest/gtest.h>
#include <signal.h>
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
/// blur a VmSize measurement that is meant to see thread stacks.
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

  /// Blocks until the daemon prints its READY line (false if it exits).
  bool wait_ready() {
    char line[256];
    while (stdout_ != nullptr && std::fgets(line, sizeof(line), stdout_)) {
      if (std::string(line).rfind("READY", 0) == 0) return true;
    }
    return false;
  }

  /// The daemon's virtual memory size in KiB, from /proc (0 if unreadable).
  std::size_t vm_size_kib() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmSize:") {
        std::size_t kib = 0;
        in >> kib;
        return kib;
      }
      in.ignore(1 << 12, '\n');
    }
    return 0;
  }

  const net::Endpoint& endpoint() const { return endpoint_; }

 private:
  std::string dir_;
  net::Endpoint endpoint_;
  pid_t pid_ = -1;
  std::FILE* stdout_ = nullptr;
};

/// Connect, make one ping/pong round trip (so a handler thread certainly
/// served the connection), and close.
bool ping_once(const net::Endpoint& ep) {
  net::Socket sock = net::tcp_connect(ep, 1000ms);
  if (!sock.valid()) return false;
  net::wire::Frame ping;
  ping.type = net::wire::kPing;
  ping.rid = 1;
  if (!net::send_frame(sock, ping)) return false;
  net::wire::Frame pong;
  return net::recv_frame(sock, std::chrono::steady_clock::now() + 2s,
                         &pong) == net::RecvStatus::kOk &&
         pong.type == net::wire::kPong;
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
  // An unreaped handler pins its whole 8 MiB default stack, so leaking them
  // would grow the daemon by ~1.6 GiB here. Allow an eighth of that: the
  // allocator's stack cache and the few handlers still exiting.
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
      << kConnections << " short connections: handler threads are not joined";
}

}  // namespace
}  // namespace asnap
