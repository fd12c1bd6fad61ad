#include "abd/remote_client.hpp"

#include <utility>

namespace asnap::abd {

RemoteRegisterClient::RemoteRegisterClient(std::vector<net::Endpoint> replicas,
                                           std::uint64_t client_id,
                                           AbdConfig config)
    : config_(config),
      bus_(std::move(replicas), /*seed=*/client_id * 0x9E3779B97F4A7C15ull + 1),
      client_(TcpPort{&bus_, client_id}, config_, counters_) {}

OpStatus RemoteRegisterClient::try_write(std::uint64_t reg, std::uint64_t ts,
                                         const net::wire::Bytes& value) {
  std::lock_guard<std::mutex> lock(op_mu_);
  return client_.write(reg, ts, value);
}

std::optional<RemoteRegisterClient::ReadResult>
RemoteRegisterClient::try_read(std::uint64_t reg) {
  std::lock_guard<std::mutex> lock(op_mu_);
  return client_.read(reg);
}

std::optional<RemoteRegisterClient::ReadResult>
RemoteRegisterClient::try_query(std::uint64_t reg) {
  std::lock_guard<std::mutex> lock(op_mu_);
  return client_.query(reg);
}

RemoteRegisterClient::Stats RemoteRegisterClient::stats() const {
  return Stats{load(counters_.rounds),
               load(counters_.fast_reads),
               load(counters_.fast_fallbacks),
               load(counters_.retransmits),
               load(counters_.dup_replies),
               load(counters_.stale_epoch_replies),
               load(counters_.round_timeouts),
               load(counters_.requests),
               load(counters_.hedges)};
}

}  // namespace asnap::abd
