#include "daemons.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <utility>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Live daemon pids, for the signal handler. Lock-free atomics only, so the
// handler stays async-signal-safe.
constexpr std::size_t kMaxLive = 64;
std::atomic<pid_t> g_live[kMaxLive];

void track(pid_t pid) {
  for (auto& slot : g_live) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void untrack(pid_t pid) {
  for (auto& slot : g_live) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

extern "C" void reap_and_exit(int sig) {
  for (auto& slot : g_live) {
    const pid_t pid = slot.exchange(0);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  _exit(128 + sig);
}

/// Bind `n` loopback listeners on port 0 at once, so the kernel hands out
/// n distinct free ports, then release them for the daemons to bind.
std::vector<asnap::net::Endpoint> probe_free_endpoints(std::size_t n) {
  std::vector<asnap::net::Endpoint> eps;
  std::vector<asnap::net::Listener> held;
  for (std::size_t i = 0; i < n; ++i) {
    auto lst = asnap::net::Listener::open({"127.0.0.1", 0});
    if (!lst.valid()) return {};
    eps.push_back({"127.0.0.1", lst.bound_port()});
    held.push_back(std::move(lst));
  }
  return eps;
}

}  // namespace

void install_reaper_signals() {
  struct sigaction sa{};
  sa.sa_handler = reap_and_exit;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGINT, SIGTERM, SIGHUP}) sigaction(sig, &sa, nullptr);
}

DaemonSet::DaemonSet(std::string replicad, std::string state_dir,
                     std::size_t replicas, std::size_t regs)
    : replicad_(std::move(replicad)),
      state_dir_(std::move(state_dir)),
      regs_(regs),
      endpoints_(replicas) {}

DaemonSet::~DaemonSet() { stop(); }

bool DaemonSet::spawn_all(std::string* error) {
  endpoints_ = probe_free_endpoints(endpoints_.size());
  if (endpoints_.empty()) {
    *error = "no free loopback ports";
    return false;
  }
  std::string peers;
  for (const auto& ep : endpoints_) {
    if (!peers.empty()) peers += ',';
    peers += ep.host + ':' + std::to_string(ep.port);
  }
  std::error_code ec;
  std::filesystem::remove_all(state_dir_, ec);
  std::filesystem::create_directories(state_dir_, ec);
  if (ec) {
    *error = "cannot create " + state_dir_;
    return false;
  }

  daemons_ = std::vector<Daemon>(endpoints_.size());
  const pid_t parent = ::getpid();
  for (std::size_t i = 0; i < daemons_.size(); ++i) {
    std::vector<std::string> args = {replicad_,   "--id",      std::to_string(i),
                                     "--peers",   peers,       "--state-dir",
                                     state_dir_,  "--regs",    std::to_string(regs_)};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      *error = "pipe failed";
      return false;
    }
    Daemon& d = daemons_[i];
    d.spawned = Clock::now();
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      *error = "fork failed";
      return false;
    }
    if (pid == 0) {  // only async-signal-safe calls until execv
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) _exit(1);
      ::dup2(fds[1], STDOUT_FILENO);
      ::dup2(fds[1], STDERR_FILENO);
      ::execv(argv[0], argv.data());
      _exit(127);
    }
    ::close(fds[1]);
    track(pid);
    d.pid = pid;
    d.out_fd = fds[0];
    d.reader = std::thread([this, i] { read_output(i); });
  }
  return true;
}

void DaemonSet::read_output(std::size_t i) {
  Daemon& d = daemons_[i];
  std::string pending;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(d.out_fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      std::lock_guard lk(mu_);
      if (line.rfind("READY", 0) == 0) {
        d.ready = true;
      } else if (line.rfind("RESYNC done", 0) == 0) {
        d.resync_ms = std::chrono::duration<double, std::milli>(
                          Clock::now() - d.spawned)
                          .count();
      } else {
        std::fprintf(stderr, "replica %zu: %s\n", i, line.c_str());
      }
      cv_.notify_all();
    }
  }
  ::close(d.out_fd);
  std::lock_guard lk(mu_);
  d.eof = true;
  cv_.notify_all();
}

bool DaemonSet::start(std::chrono::milliseconds timeout, std::string* error) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    if (!spawn_all(error)) {
      kill_all();
      return false;
    }
    bool ready = false;
    {
      std::unique_lock lk(mu_);
      const bool settled = cv_.wait_for(lk, timeout, [&] {
        bool all_ready = true;
        for (const Daemon& d : daemons_) {
          if (d.eof) return true;  // died before READY
          all_ready = all_ready && d.ready;
        }
        return all_ready;
      });
      if (!settled) {
        *error = "daemons not READY in time";
      } else {
        ready = true;
        for (const Daemon& d : daemons_) ready = ready && !d.eof;
        if (!ready) *error = "a daemon exited before READY";
      }
    }
    if (ready) return true;
    kill_all();
  }
  return false;
}

bool DaemonSet::wait_resync(std::chrono::milliseconds timeout) {
  std::unique_lock lk(mu_);
  return cv_.wait_for(lk, timeout, [&] {
    for (const Daemon& d : daemons_) {
      if (d.resync_ms < 0) return false;
    }
    return true;
  });
}

std::vector<double> DaemonSet::resync_ms() const {
  std::lock_guard lk(mu_);
  std::vector<double> out;
  for (const Daemon& d : daemons_) out.push_back(d.resync_ms);
  return out;
}

std::vector<pid_t> DaemonSet::pids() const {
  std::vector<pid_t> out;
  for (const Daemon& d : daemons_) out.push_back(d.pid);
  return out;
}

bool DaemonSet::all_alive() {
  for (Daemon& d : daemons_) {
    if (d.pid <= 0) return false;
    if (::waitpid(d.pid, nullptr, WNOHANG) == d.pid) {
      untrack(d.pid);
      d.pid = -1;
      return false;
    }
  }
  return true;
}

void DaemonSet::kill_all() {
  for (Daemon& d : daemons_) {
    if (d.pid > 0) ::kill(d.pid, SIGTERM);
  }
  const auto deadline = Clock::now() + std::chrono::seconds(3);
  for (Daemon& d : daemons_) {
    while (d.pid > 0) {
      if (::waitpid(d.pid, nullptr, WNOHANG) == d.pid) break;
      if (Clock::now() >= deadline) {
        ::kill(d.pid, SIGKILL);
        ::waitpid(d.pid, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (d.pid > 0) untrack(d.pid);
    d.pid = -1;
  }
  for (Daemon& d : daemons_) {
    if (d.reader.joinable()) d.reader.join();
  }
  daemons_.clear();
}

void DaemonSet::stop() { kill_all(); }

}  // namespace perfbench
