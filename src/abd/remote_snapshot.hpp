// The Section 6 snapshot over a real socket cluster: word w is ABD register
// w on the abd_replicad daemons, reached through one RemoteRegisterClient.
// An update of word p writes the tag with timestamp tag.seq; a scan is the
// paper's Observation 1 double collect — two identical consecutive collects
// of atomic (write-back) reads are a snapshot, whatever the transport.
// chaos_run's process scenarios and loadgen's --backend cluster drive the
// daemons through it.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "abd/remote_client.hpp"
#include "common/config.hpp"
#include "lin/history.hpp"
#include "net/wire.hpp"

namespace asnap::abd {

class RemoteSnapshot {
 public:
  /// Collects one scan makes before giving up: under sustained writes a
  /// clean double collect may never come, and a failed scan observed
  /// nothing, so the caller may simply drop it.
  static constexpr int kMaxCollects = 64;

  RemoteSnapshot(std::vector<net::Endpoint> replicas, std::uint64_t client_id,
                 std::size_t words, AbdConfig config = {})
      : client_(std::move(replicas), client_id, config), words_(words) {}

  /// Writes `tag` to word p. The caller keeps tag.seq monotone per word, so
  /// retrying a timed-out update with the same tag is sound: replicas
  /// ignore stale timestamps and re-ack.
  bool try_update(ProcessId p, const lin::Tag& tag) {
    return client_.try_write(p, tag.seq, net::wire::encode_tag(tag)) ==
           OpStatus::kOk;
  }

  /// nullopt when a read times out (no majority), a value does not decode,
  /// or kMaxCollects collects never repeat.
  std::optional<std::vector<lin::Tag>> try_scan(ProcessId) {
    auto prev = collect();
    if (!prev.has_value()) return std::nullopt;
    for (int i = 1; i < kMaxCollects; ++i) {
      auto cur = collect();
      if (!cur.has_value()) return std::nullopt;
      if (cur->ts == prev->ts) return std::move(cur->tags);
      prev = std::move(cur);
    }
    return std::nullopt;
  }

  const RemoteRegisterClient& client() const { return client_; }

 private:
  struct Collect {
    std::vector<std::uint64_t> ts;
    std::vector<lin::Tag> tags;
  };

  /// One atomic read of every word; unwritten words (ts 0) read as Tag{},
  /// the initial tag.
  std::optional<Collect> collect() {
    Collect c{std::vector<std::uint64_t>(words_),
              std::vector<lin::Tag>(words_)};
    for (std::size_t w = 0; w < words_; ++w) {
      const auto got = client_.try_read(w);
      if (!got.has_value()) return std::nullopt;
      c.ts[w] = got->ts;
      if (got->ts == 0) continue;
      const auto tag = net::wire::decode_tag(got->value);
      if (!tag.has_value()) return std::nullopt;
      c.tags[w] = *tag;
    }
    return c;
  }

  RemoteRegisterClient client_;
  std::size_t words_;
};

}  // namespace asnap::abd
