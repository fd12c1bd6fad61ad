// ABD emulation of single-writer multi-reader atomic registers over the
// simulated asynchronous network (Attiya, Bar-Noy, Dolev: "Sharing Memory
// Robustly in Message-Passing Systems", cited as [ABD] in Section 6).
//
// Each of the n nodes keeps a timestamped replica of every register.
//   write (by the register's owner): stamp the value with a fresh local
//     timestamp, send WRITE(ts, v) to every replica, wait for a majority of
//     acks.
//   read: query a majority for (ts, v), adopt the maximum timestamp, then
//     write it back to a majority before returning — the write-back is what
//     upgrades regularity to atomicity (no new/old inversion between two
//     readers) — unless the query quorum already proves the adopted pair
//     stable (one-round fast reads, DESIGN.md §15).
// The protocol itself — quorum rounds, retransmission, dedup, incarnation
// epochs, fast reads, the circuit breaker — is abd::Client over
// abd::QuorumRound and abd::ReplicaCore (core.hpp, client.hpp), the same
// code the socket client and tools/abd_replicad run. AbdCluster runs them
// in-process: one client and one replica thread per node, talking
// through the SimNetwork (SimPort below), whose faults (loss, duplication,
// delay, partitions, crashes) the retransmitting rounds ride through.
// Liveness requires a majority of nodes alive and reachable within the
// deadline; otherwise operations return OpStatus::kTimeout (try_read /
// try_write) instead of blocking forever.
//
// Crashed nodes may recover(): their endpoints reopen and, before the
// replica resumes serving, its state is resynchronized by a quorum read of
// every register. Each recovery bumps the node's incarnation EPOCH, which
// its replica stamps on every reply; clients discard replies of older
// incarnations (defense in depth on top of per-round request ids against
// arbitrarily delayed traffic).
//
// Self-healing (optional, off by default): with a net::FailureDetector
// attached and AbdConfig::breaker.enabled set, rounds run the circuit
// breaker — waves skip suspected replicas (with periodic probes), the
// retransmission timeout adapts to measured RTTs, and a round fails fast
// once too few plausibly-live replicas remain. Only then do in-process
// rounds use the RTT estimate; without the breaker they start from the
// static initial_rto.
//
// AbdRegisterArray adapts a cluster to reg::SwmrRegisterArray, so the
// UNCHANGED Figure 2 snapshot algorithm (core::UnboundedSwSnapshot) can be
// instantiated on top of a message-passing system. Quorum failures surface
// as QuorumUnavailable exceptions so degraded-mode callers (try_scan /
// try_update on the snapshot layer) can observe them without aborting.
#pragma once

#include <any>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "abd/client.hpp"
#include "abd/core.hpp"
#include "common/assert.hpp"
#include "common/config.hpp"
#include "common/instrumentation.hpp"
#include "net/failure_detector.hpp"
#include "net/network.hpp"
#include "trace/event.hpp"

namespace asnap::abd {

/// A cluster of n nodes replicating `regs` single-writer registers of type
/// V. Register r is owned (written) by node r's client; every node hosts a
/// replica of every register. Client operations may be invoked from any
/// thread, at most one in flight per node id (the snapshot well-formedness
/// rule).
template <typename V>
class AbdCluster {
 public:
  AbdCluster(std::size_t nodes, std::size_t regs, const V& init,
             std::uint64_t seed = 1, AbdConfig config = {})
      : net_(nodes, seed), config_(config), write_ts_(regs, 0), epochs_(nodes) {
    ASNAP_ASSERT(nodes >= 1 && regs >= 1);
    ReplicaState<V> initial;
    for (std::size_t reg = 0; reg < regs; ++reg) initial.regs[reg] = {0, init};
    for (std::size_t id = 0; id < nodes; ++id) {
      epochs_[id].store(0, std::memory_order_relaxed);
      nodes_.emplace_back(this, static_cast<net::NodeId>(id), initial);
    }
    for (std::size_t id = 0; id < nodes; ++id) start_server(id);
  }

  /// Closing the server mailboxes ends every replica loop; destroying
  /// nodes_ (before net_) then joins the servers.
  ~AbdCluster() {
    for (std::size_t id = 0; id < nodes(); ++id) {
      net_.mailbox(static_cast<net::NodeId>(id), net::Port::kServer).close();
    }
  }

  AbdCluster(const AbdCluster&) = delete;
  AbdCluster& operator=(const AbdCluster&) = delete;

  std::size_t nodes() const { return net_.size(); }
  std::size_t registers() const { return write_ts_.size(); }
  std::size_t majority() const { return net_.size() / 2 + 1; }

  /// Owner write: one round is enough (the owner's timestamp is fresh by
  /// construction). Returns kTimeout/kClosed instead of blocking when no
  /// majority of distinct replicas acks within the deadline.
  OpStatus try_write(std::size_t reg, net::NodeId writer, V value) {
    ASNAP_ASSERT(reg < registers());
    step_point(StepKind::kRegisterWrite);
    // Serializes against a concurrent supervisor recover() of this node,
    // which issues resync rounds through the same client mailbox.
    std::lock_guard op_lock(nodes_[writer].op_mu);
    const std::uint64_t ts = ++write_ts_[reg];
    return nodes_[writer].client.write(reg, ts, std::move(value));
  }

  /// Atomic read, one round when the query quorum proves stability (see
  /// Client::read). nullopt carries the round's failure (timeout or closed
  /// endpoint).
  std::optional<V> try_read(std::size_t reg, net::NodeId reader) {
    ASNAP_ASSERT(reg < registers());
    step_point(StepKind::kRegisterRead);
    std::lock_guard op_lock(nodes_[reader].op_mu);
    auto got = nodes_[reader].client.read(reg);
    if (!got.has_value()) return std::nullopt;
    return std::move(got->value);
  }

  /// Asserting wrappers for callers that operate under the liveness
  /// precondition (a majority alive and reachable): the snapshot layer and
  /// the fault-free tests/benches.
  void write(std::size_t reg, net::NodeId writer, V value) {
    const OpStatus status = try_write(reg, writer, std::move(value));
    ASNAP_ASSERT_MSG(status == OpStatus::kOk,
                     "ABD write found no majority within its deadline "
                     "(majority crashed or partitioned?)");
  }

  V read(std::size_t reg, net::NodeId reader) {
    std::optional<V> value = try_read(reg, reader);
    ASNAP_ASSERT_MSG(value.has_value(),
                     "ABD read found no majority within its deadline "
                     "(majority crashed or partitioned?)");
    return *std::move(value);
  }

  /// Fail-stop a node: closing its mailboxes makes its server loop exit and
  /// drops all of its traffic. In-flight operations of OTHER nodes keep
  /// completing as long as a majority remains alive; in-flight operations of
  /// this node return kClosed.
  void crash(net::NodeId node) { net_.crash(node); }
  bool crashed(net::NodeId node) const { return net_.crashed(node); }

  /// Restart a crashed node: rejoin the network, resynchronize every
  /// replica from a majority quorum, then resume serving. Replica state is
  /// retained across a crash (crash-recovery with stable storage, as in
  /// [ABD]), so the node's own replica counts as one member of the resync
  /// quorum; the query round collects the remaining majority()-1 distinct
  /// replies from the other replicas and adopts the maximum timestamp, so
  /// the node rejoins no staler than the latest majority-acked write.
  /// Returns false — and re-crashes the node — if no such quorum was
  /// reachable; the caller may retry later.
  ///
  /// Safe against the double-recover race (supervisor and a test both
  /// calling it): the per-node op mutex serializes the two, and recovering
  /// a node that is already live is a no-op returning true. Each effective
  /// recovery bumps the node's incarnation epoch FIRST, so replies the dead
  /// incarnation left in flight are discarded by every client.
  bool recover(net::NodeId id) {
    ASNAP_ASSERT(id < nodes());
    Node& node = nodes_[id];
    std::lock_guard op_lock(node.op_mu);
    if (!net_.crashed(id)) return true;  // double recover: already live
    const std::uint64_t epoch =
        epochs_[id].fetch_add(1, std::memory_order_acq_rel) + 1;
    ASNAP_TRACE_EVENT(trace::EventKind::kRecoverBegin, id, epoch);
    node.server = std::jthread();  // join the exited incarnation
    net_.recover(id);
    {
      std::lock_guard replica_lock(node.replica_mu);
      node.replica.set_epoch(epoch);
      for (std::size_t reg = 0; reg < registers(); ++reg) {
        const auto got = node.client.query(reg, &node.replica);
        if (!got.has_value()) {
          net_.crash(id);  // could not resync: stay down
          ASNAP_TRACE_EVENT(trace::EventKind::kRecoverEnd, id, 0);
          return false;
        }
        node.replica.install(reg, got->ts, got->value);
      }
    }
    start_server(id);
    ASNAP_TRACE_EVENT(trace::EventKind::kRecoverEnd, id, 1);
    return true;
  }

  /// Attach (or detach, with nullptr) the failure detector whose per-client
  /// suspicion hints drive the circuit breaker. Call from a quiescent point
  /// before the workload starts. Operations read the detector, so it must
  /// outlive every operation issued while it is attached.
  void attach_detector(const net::FailureDetector* detector) {
    detector_.store(detector, std::memory_order_release);
  }

  /// Current incarnation epoch of a node (0 until its first recovery).
  std::uint64_t epoch(net::NodeId node) const {
    ASNAP_ASSERT(node < nodes());
    return epochs_[node].load(std::memory_order_acquire);
  }

  /// Sever / restore the link between two nodes. Liveness requires every
  /// node that still issues operations to reach a majority of replicas
  /// directly.
  void cut_link(net::NodeId a, net::NodeId b) { net_.cut_link(a, b); }
  void restore_link(net::NodeId a, net::NodeId b) { net_.restore_link(a, b); }

  /// Fault-injection control passthroughs — see net::FaultPlan.
  net::Network& network() { return net_; }
  void set_fault_plan(const net::FaultPlan& plan) { net_.set_fault_plan(plan); }
  void partition(const std::vector<std::vector<net::NodeId>>& groups) {
    net_.partition(groups);
  }
  void heal() { net_.heal(); }

  std::uint64_t messages_sent() const { return net_.messages_sent(); }
  std::size_t alive_count() const { return net_.alive_count(); }

  /// The protocol counters (abd::Counters) summed over every node's client.
  CounterValues counters() const {
    CounterValues total;
    for (const Node& node : nodes_) total += load(node.counters);
    return total;
  }

  /// Test hook: a replica's current timestamp for one register.
  std::uint64_t replica_ts(net::NodeId node, std::size_t reg) const {
    ASNAP_ASSERT(node < nodes() && reg < registers());
    std::lock_guard lock(nodes_[node].replica_mu);
    return nodes_[node].replica.ts(reg);
  }

  /// Test hook: the highest timestamp a replica knows to be majority-acked
  /// (0 = none confirmed).
  std::uint64_t replica_confirmed_ts(net::NodeId node, std::size_t reg) const {
    ASNAP_ASSERT(node < nodes() && reg < registers());
    std::lock_guard lock(nodes_[node].replica_mu);
    return nodes_[node].replica.confirmed_ts(reg);
  }

 private:
  using Frame = net::wire::BasicFrame<V>;

  /// The in-process transport: node `id`'s client port on the SimNetwork.
  /// Replies older than the incarnation the cluster knows are stale. The
  /// RTT-derived RTO is used only while the breaker is armed, floored at
  /// 200 us: a mailbox handoff is far below a socket round trip, and the
  /// socket floor slowed lossy in-process runs. Reads send full waves: a
  /// copy is one mailbox push, and asking a majority first made abd-sim
  /// slower (DESIGN.md §11).
  struct SimPort {
    static constexpr bool kAlwaysAdaptiveRto = false;
    static constexpr std::chrono::microseconds kMinRto{200};
    static constexpr bool kMajorityFirst = false;
    AbdCluster* cluster;
    net::NodeId id;

    std::size_t size() const { return cluster->nodes(); }
    std::uint64_t self() const { return id; }
    net::Mailbox& inbox() const {
      return cluster->net_.mailbox(id, net::Port::kClient);
    }
    /// The next reply on the client port. Only replica threads send there,
    /// always a Frame, which is moved out of its box.
    std::optional<net::wire::Received<V>> wait(Clock::time_point deadline) {
      auto msg = inbox().receive_until(deadline);
      if (!msg.has_value()) return std::nullopt;
      return net::wire::Received<V>{
          msg->from, std::move(std::any_cast<Frame&>(msg->payload))};
    }
    bool closed() const { return inbox().closed(); }
    void send(std::size_t to, const Frame& frame, Clock::time_point) {
      cluster->net_.send(id, static_cast<net::NodeId>(to), net::Port::kServer,
                         frame.type, frame.rid, std::any(frame));
    }
    std::uint64_t epoch_floor(std::size_t replica) const {
      return cluster->epochs_[replica].load(std::memory_order_acquire);
    }
    Suspects suspects() const {
      const net::FailureDetector* fd =
          cluster->detector_.load(std::memory_order_acquire);
      if (!cluster->config_.breaker.enabled || fd == nullptr) return {};
      return [fd, id = id](std::size_t to) {
        return fd->suspected(id, static_cast<net::NodeId>(to));
      };
    }
  };

  struct Node {
    Node(AbdCluster* cluster, net::NodeId id, ReplicaState<V> state)
        : client(SimPort{cluster, id}, cluster->config_, counters),
          replica(std::move(state)) {}

    /// One client operation (or recover()) at a time: they share the
    /// node's client mailbox, so interleaving them would steal replies.
    std::mutex op_mu;
    /// This node's client's own counters: clients that shared one set
    /// contended on its cache line in every round.
    Counters counters;
    Client<V, SimPort> client;
    /// Guards the replica, shared by its server thread, recover() and the
    /// test hooks (which may run while the server serves).
    mutable std::mutex replica_mu;
    ReplicaCore<V> replica;
    std::jthread server;
  };

  void start_server(std::size_t id) {
    nodes_[id].server = std::jthread([this, id](std::stop_token st) {
      serve(static_cast<net::NodeId>(id), st);
    });
  }

  /// Replica event loop for one node: each request goes to its ReplicaCore,
  /// each reply back to the requesting client's port.
  void serve(net::NodeId id, std::stop_token st) {
    Node& node = nodes_[id];
    auto& inbox = net_.mailbox(id, net::Port::kServer);
    while (!st.stop_requested()) {
      auto msg = inbox.receive();
      if (!msg.has_value()) return;  // closed: shutdown or crash
      std::optional<Frame> reply;
      {
        std::lock_guard lock(node.replica_mu);
        reply = node.replica.handle(std::any_cast<const Frame&>(msg->payload));
      }
      if (!reply.has_value()) continue;
      net_.send(id, msg->from, net::Port::kClient, reply->type, reply->rid,
                std::any(std::move(*reply)));
    }
  }

  net::Network net_;
  AbdConfig config_;
  std::vector<std::uint64_t> write_ts_;  ///< per register; owner-only access
  /// Incarnation epoch per node, bumped by each effective recover().
  std::vector<std::atomic<std::uint64_t>> epochs_;
  std::atomic<const net::FailureDetector*> detector_{nullptr};
  std::deque<Node> nodes_;  ///< deque: nodes hold mutexes and never move
};

/// Thrown by AbdRegisterArray when a register operation cannot reach a
/// majority of distinct replicas within its deadline (or the client's own
/// endpoint closed mid-operation). Unwinds cleanly through the snapshot
/// cores — they keep only local state per operation — so degraded-mode
/// callers (MessagePassingSnapshot::try_scan / try_update) can turn it into
/// a soft failure while the asserting entry points keep the old abort
/// behavior.
struct QuorumUnavailable : std::runtime_error {
  explicit QuorumUnavailable(const char* op)
      : std::runtime_error(std::string("ABD ") + op +
                           " found no majority within its deadline "
                           "(majority crashed or partitioned?)") {}
};

/// Adapter: exposes an AbdCluster as a reg::SwmrRegisterArray so the
/// snapshot algorithms run unchanged over message passing.
template <typename Rec>
class AbdRegisterArray {
 public:
  explicit AbdRegisterArray(AbdCluster<Rec>& cluster) : cluster_(&cluster) {}

  std::size_t size() const { return cluster_->registers(); }

  Rec read(ProcessId owner, ProcessId reader) const {
    std::optional<Rec> value = cluster_->try_read(owner, reader);
    if (!value.has_value()) throw QuorumUnavailable("read");
    return *std::move(value);
  }

  void write(ProcessId owner, Rec rec) {
    if (cluster_->try_write(owner, owner, std::move(rec)) != OpStatus::kOk) {
      throw QuorumUnavailable("write");
    }
  }

 private:
  AbdCluster<Rec>* cluster_;
};

}  // namespace asnap::abd
