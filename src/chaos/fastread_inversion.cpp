#include "chaos/fastread_inversion.hpp"

#include "abd/abd_register.hpp"

namespace asnap::chaos {

FastReadInversion run_fastread_inversion(const abd::AbdConfig& config,
                                         std::uint64_t seed) {
  using lin::Tag;
  abd::AbdCluster<Tag> cluster(3, 1, Tag{}, seed, config);
  lin::Recorder recorder(/*num_words=*/1);
  FastReadInversion out;
  const auto read = [&](net::NodeId node, Tag& got) {
    const lin::Time inv = recorder.tick();
    const auto value = cluster.try_read(0, node);
    const lin::Time res = recorder.tick();
    if (!value.has_value()) return false;
    got = *value;
    recorder.add_scan(node, {got}, inv, res);
    return true;
  };

  // Step 1: a confirmed base value.
  const lin::Time a_inv = recorder.tick();
  if (cluster.try_write(0, 0, Tag{0, 1}) != abd::OpStatus::kOk) {
    out.setup_error = "base write failed";
    return out;
  }
  recorder.add_update(0, 0, Tag{0, 1}, a_inv, recorder.tick());

  // Step 2: the writer is cut off from 1 and 2; B reaches only replica 0.
  cluster.cut_link(0, 1);
  cluster.cut_link(0, 2);
  const lin::Time b_inv = recorder.tick();
  if (cluster.try_write(0, 0, Tag{0, 2}) == abd::OpStatus::kOk) {
    out.setup_error = "partitioned write unexpectedly completed";
    return out;
  }

  // Step 3: node 1 reads with quorum {0,1}.
  cluster.restore_link(0, 1);
  cluster.restore_link(0, 2);
  cluster.cut_link(1, 2);
  if (!read(1, out.read1)) {
    out.setup_error = "first read failed";
    return out;
  }

  // Step 4: node 2 reads with quorum {1,2}.
  cluster.restore_link(1, 2);
  cluster.cut_link(0, 1);
  cluster.cut_link(0, 2);
  if (!read(2, out.read2)) {
    out.setup_error = "second read failed";
    return out;
  }

  // B is indeterminate: possibly applied any time up to now.
  recorder.add_update(0, 0, Tag{0, 2}, b_inv, recorder.tick());
  const lin::History history = recorder.take();
  out.history_ops = history.total_ops();
  out.violation = lin::check_single_writer(history);
  out.fast_reads = cluster.fast_reads();
  out.fast_fallbacks = cluster.fast_fallbacks();
  return out;
}

}  // namespace asnap::chaos
