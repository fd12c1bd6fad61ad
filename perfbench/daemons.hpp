// Lifecycle of the abd_replicad daemons behind the `cluster` workload.
//
// Each DaemonSet gets a fresh state directory and a fresh set of loopback
// ports. The daemons are spawned as shipped; their stdout and stderr come
// back through a pipe, so READY and "RESYNC done" are timed when the line
// is written rather than when a log file is polled. On every exit path the
// set is torn down: SIGTERM, SIGKILL after a deadline, waitpid. The daemons
// also get PR_SET_PDEATHSIG(SIGKILL), so they cannot outlive a benchmark
// process that is killed outright, and a signal handler reaps live daemons
// when the benchmark is interrupted. The state directory outlives the set:
// the run removes every set's directory when it ends, because deleting a
// WAL makes the filesystem discard its blocks, which would stall the fsyncs
// of the next set's window.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"

namespace perfbench {

class DaemonSet {
 public:
  DaemonSet(std::string replicad, std::string state_dir, std::size_t replicas,
            std::size_t regs);
  ~DaemonSet();
  DaemonSet(const DaemonSet&) = delete;
  DaemonSet& operator=(const DaemonSet&) = delete;

  /// Spawn every daemon on free ports and wait until each printed READY.
  /// Retries with new ports when a daemon dies before READY (a port taken
  /// between probing and binding). False, with *error set, on failure.
  bool start(std::chrono::milliseconds timeout, std::string* error);

  /// Wait until every daemon printed "RESYNC done".
  bool wait_resync(std::chrono::milliseconds timeout);

  /// Milliseconds from spawn to each daemon's "RESYNC done" line.
  std::vector<double> resync_ms() const;

  const std::vector<asnap::net::Endpoint>& endpoints() const {
    return endpoints_;
  }
  std::vector<pid_t> pids() const;

  /// True while no daemon has exited.
  bool all_alive();

  /// SIGTERM, SIGKILL after a deadline, reap. Idempotent.
  void stop();

 private:
  struct Daemon {
    pid_t pid = -1;
    int out_fd = -1;  ///< read end of the stdout/stderr pipe
    std::thread reader;
    std::chrono::steady_clock::time_point spawned{};
    bool ready = false;       // guarded by mu_
    double resync_ms = -1;    // guarded by mu_; < 0 until RESYNC done
    bool eof = false;         // guarded by mu_
  };

  bool spawn_all(std::string* error);
  void read_output(std::size_t i);
  void kill_all();

  const std::string replicad_;
  const std::string state_dir_;
  const std::size_t regs_;
  std::vector<asnap::net::Endpoint> endpoints_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Daemon> daemons_;
};

/// Route SIGINT/SIGTERM/SIGHUP to a handler that SIGKILLs and reaps every
/// live daemon before the benchmark exits.
void install_reaper_signals();

}  // namespace perfbench
