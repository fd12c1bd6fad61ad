// The backends the benchmark hands to svc::SnapshotService.
//
// TracedBackend forwards size/update/scan to the workload's backend and,
// on a traced thread, records each call as a backend span. The backends
// use the program's classes as they are: A2 directly, the in-process ABD
// snapshot through an adapter that turns a quorum failure into an
// exception (so the client counts a failed operation instead of the
// process aborting), and the daemons through loadgen's double collect.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "abd/abd_snapshot.hpp"
#include "abd/remote_client.hpp"
#include "core/snapshot_types.hpp"
#include "lin/history.hpp"
#include "net/wire.hpp"
#include "spans.hpp"

namespace perfbench {

using asnap::ProcessId;
using asnap::lin::Tag;

template <typename Inner>
class TracedBackend {
 public:
  explicit TracedBackend(Inner& inner) : inner_(&inner) {}

  std::size_t size() const { return inner_->size(); }

  void update(ProcessId i, Tag v) {
    Tracer* t = t_tracer;
    if (t == nullptr) return inner_->update(i, v);
    Span s = begin_span(*t, Layer::kBackend, Kind::kUpdate);
    inner_->update(i, v);
    end_span(*t, s);
  }

  std::vector<Tag> scan(ProcessId i) {
    Tracer* t = t_tracer;
    if (t == nullptr) return inner_->scan(i);
    Span s = begin_span(*t, Layer::kBackend, Kind::kScan);
    std::vector<Tag> view = inner_->scan(i);
    end_span(*t, s);
    return view;
  }

 private:
  Inner* inner_;
};

/// abd::MessagePassingSnapshot through its degraded-mode entry points.
class AbdSimBackend {
 public:
  AbdSimBackend(std::size_t n, std::uint64_t seed) : snap_(n, Tag{}, seed) {}

  std::size_t size() const { return snap_.size(); }
  void update(ProcessId i, Tag v) {
    if (!snap_.try_update(i, v)) throw std::runtime_error("abd update failed");
  }
  std::vector<Tag> scan(ProcessId i) {
    auto view = snap_.try_scan(i);
    if (!view.has_value()) throw std::runtime_error("abd scan failed");
    return *std::move(view);
  }
  const asnap::abd::MessagePassingSnapshot<Tag>& snapshot() const {
    return snap_;
  }

 private:
  asnap::abd::MessagePassingSnapshot<Tag> snap_;
};

/// One RemoteRegisterClient call; on a traced thread also a remote span
/// with the protocol rounds the call ran.
template <typename Call>
auto remote_call(asnap::abd::RemoteRegisterClient& client, Kind kind,
                 Call&& call) {
  Tracer* t = t_tracer;
  if (t == nullptr) return call();
  const std::uint64_t before = client.stats().protocol_rounds;
  Span s = begin_span(*t, Layer::kRemote, kind);
  auto result = call();
  end_span(*t, s, client.stats().protocol_rounds - before);
  return result;
}

/// Snapshot over abd_replicad daemons, as loadgen's ClusterSnapshot builds
/// it: update is a quorum write with ts = the svc sequence number, scan a
/// double collect of atomic (write-back) reads — two identical consecutive
/// collects are a snapshot (Observation 1). Unlike loadgen it keeps one
/// RemoteRegisterClient per leased slot, used for that slot's writes and
/// scans alike, which is the fewest connections ABD allows.
class ClusterBackend {
 public:
  explicit ClusterBackend(std::size_t words)
      : clients_(words), stats_(words) {}

  /// Create the client of `slot`; it connects on its first operation.
  void attach(ProcessId slot, const std::vector<asnap::net::Endpoint>& eps,
              std::uint64_t client_id) {
    asnap::abd::AbdConfig config;
    config.op_deadline = std::chrono::seconds(5);
    clients_.at(slot) = std::make_unique<asnap::abd::RemoteRegisterClient>(
        eps, client_id, config);
  }

  std::size_t size() const { return clients_.size(); }

  void update(ProcessId i, Tag v) {
    auto& client = *clients_.at(i);
    const auto value = asnap::net::wire::encode_tag(v);
    const auto status = remote_call(client, Kind::kWrite, [&] {
      return client.try_write(i, v.seq, value);
    });
    if (status != asnap::abd::OpStatus::kOk) {
      throw std::runtime_error("cluster write failed");
    }
  }

  std::vector<Tag> scan(ProcessId i) {
    auto& client = *clients_.at(i);
    constexpr int kMaxCollects = 64;
    Collect prev = collect(client);
    for (int attempt = 1; attempt < kMaxCollects; ++attempt) {
      Collect cur = collect(client);
      if (cur.ts == prev.ts) {
        ++stats_[i].scans;
        stats_[i].double_collects += static_cast<std::uint64_t>(attempt);
        return std::move(cur.tags);
      }
      prev = std::move(cur);
    }
    throw std::runtime_error("cluster scan found no clean double collect");
  }

  const asnap::core::ScanStats& stats(ProcessId i) const { return stats_[i]; }

  /// Retransmission waves summed over the attached clients.
  std::uint64_t retransmit_waves() const {
    std::uint64_t total = 0;
    for (const auto& c : clients_) {
      if (c) total += c->stats().retransmit_waves;
    }
    return total;
  }

 private:
  struct Collect {
    std::vector<std::uint64_t> ts;
    std::vector<Tag> tags;
  };

  Collect collect(asnap::abd::RemoteRegisterClient& client) {
    Collect c{std::vector<std::uint64_t>(size()), std::vector<Tag>(size())};
    for (std::size_t w = 0; w < size(); ++w) {
      const auto got = remote_call(client, Kind::kRead,
                                   [&] { return client.try_read(w); });
      if (!got.has_value()) throw std::runtime_error("cluster read failed");
      c.ts[w] = got->ts;
      if (got->ts == 0) continue;
      const auto tag = asnap::net::wire::decode_tag(got->value);
      if (!tag.has_value()) throw std::runtime_error("cluster read: bad value");
      c.tags[w] = *tag;
    }
    return c;
  }

  std::vector<std::unique_ptr<asnap::abd::RemoteRegisterClient>> clients_;
  std::vector<asnap::core::ScanStats> stats_;  ///< written by the slot's owner
};

}  // namespace perfbench
