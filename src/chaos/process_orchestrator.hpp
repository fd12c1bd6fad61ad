// Process-level cluster orchestration: spawn real abd_replicad daemons,
// kill them with real signals, and bring them back.
//
// This is the `kill -9` counterpart of the in-process chaos stack. Where
// chaos/orchestrator.hpp drives net::SimNetwork crash()/recover() calls,
// ProcessCluster fork/exec()s one OS process per replica and injects:
//   * crashes  : SIGKILL — the kernel's fail-stop, nothing flushes;
//   * stalls   : SIGSTOP/SIGCONT — a live-but-frozen replica, the real
//                analog of a partitioned or GC-paused node (its TCP peers
//                see silence, not EOF);
// and a supervisor thread mirroring abd/supervisor.hpp: poll for dead
// children (waitpid WNOHANG), wait restart_delay, respawn. Recovery
// correctness lives in the daemon itself (WAL replay + epoch bump +
// majority resync) — the supervisor only restarts processes and records
// restart latencies.
//
// The same majority-safety discipline as chaos/schedule.hpp applies: the
// fault driver (tools/chaos_run --scenario real) consults unavailable()
// before injecting so down + stalled replicas never reach a majority —
// ABD's liveness precondition, deliberately maintained so every timed-out
// operation still indicates a bug budget, not an excuse.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/chaos_proxy.hpp"
#include "net/socket.hpp"

namespace asnap::chaos {

struct ProcessClusterConfig {
  std::string replicad_path;  ///< abd_replicad binary
  std::string state_dir;      ///< per-replica WALs + logs live under here
  std::vector<net::Endpoint> endpoints;  ///< one per replica, id order
  std::uint64_t regs = 16;    ///< register universe the daemons resync
  std::chrono::milliseconds restart_delay{200};
  bool auto_restart = true;
  /// Put a net::ChaosProxy in front of every replica and hand CLIENTS the
  /// proxied endpoints (client_endpoints()). The daemons themselves still
  /// peer over the direct endpoints, so a recovering replica's resync
  /// traffic bypasses the degraded network — the adversary under test is
  /// the client<->replica wire, and resync correctness already has its own
  /// scenarios.
  bool proxy = false;
  std::uint64_t proxy_seed = 0;  ///< fault-plan seed for the proxy
};

class ProcessCluster {
 public:
  explicit ProcessCluster(ProcessClusterConfig config);
  ~ProcessCluster();

  ProcessCluster(const ProcessCluster&) = delete;
  ProcessCluster& operator=(const ProcessCluster&) = delete;

  /// Spawn every replica and the supervisor. False on spawn failure.
  bool start();

  /// Block until every replica has logged READY (listening socket up).
  bool wait_ready(std::chrono::milliseconds timeout);

  std::size_t size() const { return config_.endpoints.size(); }
  const std::vector<net::Endpoint>& endpoints() const {
    return config_.endpoints;
  }

  /// What clients should dial: the proxy's listeners when one is
  /// configured, the replicas' own endpoints otherwise. Valid after
  /// start().
  const std::vector<net::Endpoint>& client_endpoints() const;

  /// The wire-fault injector, nullptr unless config.proxy. Scenario drivers
  /// use it directly (set_all / blackhole / flap / kill_connections).
  net::ChaosProxy* proxy() { return proxy_.get(); }

  /// SIGKILL replica i. The supervisor respawns it after restart_delay
  /// (auto_restart) — recovery then happens inside the new incarnation.
  bool kill9(std::size_t i);
  /// SIGSTOP / SIGCONT replica i (frozen, not dead: no EOF to its peers).
  bool stall(std::size_t i);
  bool resume(std::size_t i);

  /// Replicas currently dead, frozen, or (with a proxy) network-impaired —
  /// the fault driver's majority guard. A replica hit by several faults at
  /// once counts once: the guard bounds how many replicas might not answer,
  /// not how many faults are active.
  std::size_t unavailable() const;
  bool running(std::size_t i) const;

  struct Report {
    std::uint64_t kills = 0;
    std::uint64_t stalls = 0;
    std::uint64_t restarts = 0;
    /// Supervisor-side death-detection -> successful respawn, per restart.
    std::vector<double> restart_latencies_ms;
  };
  Report report() const;

  /// Graceful teardown: stop the supervisor, SIGTERM all, escalate to
  /// SIGKILL after a grace period, reap everything. Idempotent.
  void stop();

 private:
  struct Proc {
    pid_t pid = -1;
    bool want_up = false;  ///< supervisor should keep it alive
    bool stalled = false;
    bool down = false;
    std::chrono::steady_clock::time_point died_at{};
    std::chrono::steady_clock::time_point respawn_at{};
  };

  bool spawn_locked(std::size_t i);
  void supervise(std::stop_token st);

  ProcessClusterConfig config_;
  mutable std::mutex mu_;
  std::vector<Proc> procs_;
  Report report_;
  std::jthread supervisor_;
  std::unique_ptr<net::ChaosProxy> proxy_;
  std::vector<net::Endpoint> client_endpoints_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace asnap::chaos
