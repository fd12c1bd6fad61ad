#include "chaos/process_orchestrator.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

namespace asnap::chaos {

namespace {
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;
}  // namespace

ProcessCluster::ProcessCluster(ProcessClusterConfig config)
    : config_(std::move(config)), procs_(config_.endpoints.size()) {}

ProcessCluster::~ProcessCluster() { stop(); }

bool ProcessCluster::spawn_locked(std::size_t i) {
  const std::string dir = config_.state_dir + "/replica-" + std::to_string(i);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return false;
  const std::string log_path = dir + "/daemon.log";

  std::string peers;
  for (std::size_t j = 0; j < config_.endpoints.size(); ++j) {
    if (j != 0) peers += ',';
    peers += config_.endpoints[j].host + ':' +
             std::to_string(config_.endpoints[j].port);
  }
  const std::string id = std::to_string(i);
  const std::string regs = std::to_string(config_.regs);

  // argv must outlive execv in the child; build it before forking. The
  // daemon derives its own replica-<id>/ subdir from the shared state dir,
  // so its WAL lands next to the daemon.log we pre-create here.
  std::vector<std::string> arg_strs = {
      config_.replicad_path, "--id", id, "--peers", peers,
      "--state-dir", config_.state_dir, "--regs", regs};
  std::vector<char*> argv;
  argv.reserve(arg_strs.size() + 1);
  for (auto& s : arg_strs) argv.push_back(s.data());
  argv.push_back(nullptr);

  // Pre-open the log so the child only needs async-signal-safe calls
  // (dup2/execv/_exit) between fork and exec — this process has threads.
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd < 0) return false;

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return false;
  }
  if (pid == 0) {
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close(log_fd);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  ::close(log_fd);
  procs_[i].pid = pid;
  procs_[i].want_up = true;
  procs_[i].down = false;
  procs_[i].stalled = false;
  return true;
}

bool ProcessCluster::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return true;
  std::error_code ec;
  fs::create_directories(config_.state_dir, ec);
  if (ec) return false;
  if (config_.proxy) {
    proxy_ = std::make_unique<net::ChaosProxy>(config_.endpoints,
                                               config_.proxy_seed);
    if (!proxy_->start()) {
      proxy_.reset();
      return false;
    }
    client_endpoints_ = proxy_->endpoints();
  } else {
    client_endpoints_ = config_.endpoints;
  }
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    if (!spawn_locked(i)) return false;
  }
  started_ = true;
  supervisor_ = std::jthread([this](std::stop_token st) { supervise(st); });
  return true;
}

const std::vector<net::Endpoint>& ProcessCluster::client_endpoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  return client_endpoints_.empty() ? config_.endpoints : client_endpoints_;
}

bool ProcessCluster::wait_ready(std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    const std::string log_path = config_.state_dir + "/replica-" +
                                 std::to_string(i) + "/daemon.log";
    for (;;) {
      {
        std::ifstream in(log_path);
        std::string line;
        bool ready = false;
        while (std::getline(in, line)) {
          if (line.rfind("READY", 0) == 0) {
            ready = true;
            break;
          }
        }
        if (ready) break;
      }
      if (Clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  return true;
}

void ProcessCluster::supervise(std::stop_token st) {
  while (!st.stop_requested()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto now = Clock::now();
      for (std::size_t i = 0; i < procs_.size(); ++i) {
        Proc& p = procs_[i];
        if (p.pid > 0) {
          int status = 0;
          const pid_t got = ::waitpid(p.pid, &status, WNOHANG);
          if (got == p.pid) {
            p.pid = -1;
            p.down = true;
            p.stalled = false;  // death clears a stop
            p.died_at = now;
            p.respawn_at = now + config_.restart_delay;
          }
        }
        if (p.down && p.want_up && now >= p.respawn_at) {
          if (spawn_locked(i)) {
            ++report_.restarts;
            report_.restart_latencies_ms.push_back(
                std::chrono::duration<double, std::milli>(now - p.died_at)
                    .count());
          } else {
            // Spawn failed (transient?): retry after another delay.
            p.respawn_at = now + config_.restart_delay;
          }
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

bool ProcessCluster::kill9(std::size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  Proc& p = procs_[i];
  if (p.pid <= 0) return false;
  if (::kill(p.pid, SIGKILL) != 0) return false;
  ++report_.kills;
  return true;
}

bool ProcessCluster::stall(std::size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  Proc& p = procs_[i];
  if (p.pid <= 0 || p.stalled) return false;
  if (::kill(p.pid, SIGSTOP) != 0) return false;
  p.stalled = true;
  ++report_.stalls;
  return true;
}

bool ProcessCluster::resume(std::size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  Proc& p = procs_[i];
  if (p.pid <= 0 || !p.stalled) return false;
  if (::kill(p.pid, SIGCONT) != 0) return false;
  p.stalled = false;
  return true;
}

std::size_t ProcessCluster::unavailable() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    const Proc& p = procs_[i];
    // Union, not sum: a replica that is both SIGSTOPped and blackholed is
    // still only one replica that might not answer.
    if (p.down || p.stalled || p.pid <= 0 ||
        (proxy_ != nullptr && proxy_->impaired(i))) {
      ++n;
    }
  }
  return n;
}

bool ProcessCluster::running(std::size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Proc& p = procs_[i];
  return p.pid > 0 && !p.stalled;
}

ProcessCluster::Report ProcessCluster::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return report_;
}

void ProcessCluster::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  supervisor_.request_stop();
  if (supervisor_.joinable()) supervisor_.join();
  if (proxy_ != nullptr) proxy_->stop();
  std::lock_guard<std::mutex> lock(mu_);
  for (Proc& p : procs_) {
    p.want_up = false;
    if (p.pid > 0) {
      if (p.stalled) ::kill(p.pid, SIGCONT);  // a stopped child can't exit
      ::kill(p.pid, SIGTERM);
    }
  }
  const auto grace_end = Clock::now() + std::chrono::seconds(2);
  for (Proc& p : procs_) {
    if (p.pid <= 0) continue;
    for (;;) {
      int status = 0;
      const pid_t got = ::waitpid(p.pid, &status, WNOHANG);
      if (got == p.pid) {
        p.pid = -1;
        break;
      }
      if (Clock::now() >= grace_end) {
        ::kill(p.pid, SIGKILL);
        ::waitpid(p.pid, &status, 0);
        p.pid = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

}  // namespace asnap::chaos
