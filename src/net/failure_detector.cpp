#include "net/failure_detector.hpp"

#include <algorithm>

#include "trace/event.hpp"

namespace asnap::net {

using Clock = std::chrono::steady_clock;

FailureDetector::FailureDetector(Network& net, DetectorConfig cfg, Callback cb)
    : net_(net),
      cfg_(cfg),
      nodes_(net.size()),
      cb_(std::move(cb)),
      suspected_(nodes_ * nodes_),
      timeout_us_(nodes_ * nodes_) {
  for (auto& flag : suspected_) flag.store(false, std::memory_order_relaxed);
  // A config with min > max (or an initial value outside the band) would
  // make the clamp oscillate; normalize once here.
  cfg_.max_timeout = std::max(cfg_.max_timeout, cfg_.min_timeout);
  cfg_.initial_timeout =
      std::clamp(cfg_.initial_timeout, cfg_.min_timeout, cfg_.max_timeout);
  for (auto& t : timeout_us_)
    t.store(cfg_.initial_timeout.count(), std::memory_order_relaxed);
  monitors_.reserve(nodes_);
  for (NodeId self = 0; self < nodes_; ++self) {
    monitors_.emplace_back(
        [this, self](std::stop_token st) { run_node(st, self); });
  }
}

FailureDetector::~FailureDetector() {
  for (auto& t : monitors_) t.request_stop();
  // jthread joins on destruction; monitor waits are bounded by the
  // heartbeat interval, so teardown is prompt.
}

void FailureDetector::run_node(std::stop_token st, NodeId self) {
  const std::size_t n = nodes_;
  std::vector<Clock::time_point> last_heard(n, Clock::now());
  // gap_ewma tracks each target's observed heartbeat cadence; penalty is the
  // multiplicative floor grown on false alarms (◇P convergence). The applied
  // threshold is max(cadence × multiplier, penalty) clamped to the
  // configured [min_timeout, max_timeout] band — min_timeout keeps a burst
  // of fast heartbeats from adapting the threshold below one RTT.
  std::vector<double> gap_ewma(n, 0.0);
  std::vector<std::chrono::microseconds> penalty(n, cfg_.min_timeout);
  std::vector<std::uint64_t> known_inc(n, 0);
  std::uint64_t my_inc = 0;
  bool was_crashed = false;
  auto next_beat = Clock::now();

  const auto flag_index = [&](NodeId target) {
    return static_cast<std::size_t>(self) * n + target;
  };
  const auto timeout = [&](NodeId target) {
    return std::chrono::microseconds(
        timeout_us_[flag_index(target)].load(std::memory_order_relaxed));
  };
  const auto retune = [&](NodeId target) {
    // Before the first gap sample the grace period applies; after that the
    // learned cadence takes over and may shrink the threshold — but never
    // below the penalty floor or min_timeout.
    auto want = gap_ewma[target] > 0.0
                    ? std::chrono::microseconds(static_cast<std::int64_t>(
                          gap_ewma[target] * cfg_.timeout_multiplier))
                    : cfg_.initial_timeout;
    want = std::max(want, penalty[target]);
    want = std::clamp(want, cfg_.min_timeout, cfg_.max_timeout);
    timeout_us_[flag_index(target)].store(want.count(),
                                          std::memory_order_relaxed);
  };

  while (!st.stop_requested()) {
    if (net_.crashed(self)) {
      // Dormant while our node is down; poll at heartbeat granularity so
      // request_stop() is honored promptly.
      was_crashed = true;
      std::this_thread::sleep_for(cfg_.heartbeat_interval);
      continue;
    }
    if (was_crashed) {
      // Fresh incarnation: a recovered node starts out trusting everyone
      // with a full grace period, and stamps its heartbeats so observers
      // can distinguish this recovery from a false alarm.
      was_crashed = false;
      ++my_inc;
      const auto now = Clock::now();
      for (NodeId j = 0; j < n; ++j) {
        last_heard[j] = now;
        suspected_[flag_index(j)].store(false, std::memory_order_relaxed);
      }
    }

    const auto now = Clock::now();
    if (now >= next_beat) {
      for (NodeId j = 0; j < n; ++j) {
        if (j == self) continue;
        net_.send(self, j, Port::kDetector, kHeartbeatMsg, my_inc, {});
        heartbeats_sent_.fetch_add(1, std::memory_order_relaxed);
      }
      // Evaluate silence once per beat, after sending.
      for (NodeId j = 0; j < n; ++j) {
        if (j == self) continue;
        auto& flag = suspected_[flag_index(j)];
        if (flag.load(std::memory_order_relaxed)) continue;
        if (now - last_heard[j] <= timeout(j)) continue;
        flag.store(true, std::memory_order_relaxed);
        suspicions_.fetch_add(1, std::memory_order_relaxed);
        ASNAP_TRACE_EVENT(trace::EventKind::kSuspect, self, j,
                          static_cast<std::uint64_t>(timeout(j).count()));
        if (cb_) cb_(self, j, /*suspected=*/true);
      }
      next_beat = now + cfg_.heartbeat_interval;
      continue;
    }

    auto msg = net_.mailbox(self, Port::kDetector).receive_until(next_beat);
    if (!msg || msg->type != kHeartbeatMsg) continue;
    const NodeId j = msg->from;
    if (j >= n || j == self) continue;
    const std::uint64_t inc = msg->rid;
    const auto heard_at = Clock::now();
    const auto gap = std::chrono::duration_cast<std::chrono::microseconds>(
        heard_at - last_heard[j]);
    last_heard[j] = heard_at;
    auto& flag = suspected_[flag_index(j)];
    if (flag.load(std::memory_order_relaxed)) {
      flag.store(false, std::memory_order_relaxed);
      trusts_.fetch_add(1, std::memory_order_relaxed);
      ASNAP_TRACE_EVENT(trace::EventKind::kTrust, self, j);
      if (inc == known_inc[j]) {
        // Same incarnation resurfaced: we suspected a live node. Grow the
        // penalty floor by half so this message-delay pattern stops fooling
        // us (◇P convergence).
        constexpr double kGrowth = 1.5;
        const auto grown = std::chrono::microseconds(static_cast<std::int64_t>(
            static_cast<double>(timeout(j).count()) * kGrowth));
        penalty[j] = std::min(cfg_.max_timeout, grown);
      }
      if (cb_) cb_(self, j, /*suspected=*/false);
    } else {
      // Feed the cadence estimator only with gaps between heartbeats from a
      // trusted target — a gap spanning a suspicion is a crash or network
      // hole, not cadence.
      constexpr double kAlpha = 0.125;  // TCP RTT-style smoothing
      const auto sample = static_cast<double>(gap.count());
      gap_ewma[j] = gap_ewma[j] > 0.0
                        ? gap_ewma[j] + kAlpha * (sample - gap_ewma[j])
                        : sample;
    }
    retune(j);
    known_inc[j] = std::max(known_inc[j], inc);
  }
}

}  // namespace asnap::net
