#include "history.hpp"

#include <cstdint>
#include <string>

namespace perfbench {

using asnap::lin::Tag;

asnap::lin::CheckResult SegmentChecker::check(
    const std::vector<const ClientLog*>& logs) {
  const std::size_t words = base_.size();
  asnap::lin::History h;
  h.num_words = words;
  std::vector<std::uint64_t> last = base_;

  for (const ClientLog* log : logs) {
    if (log->malformed) return std::string("a scan returned a malformed view");
    const asnap::ProcessId p = log->slot;
    if (p >= words) return std::string("client slot out of range");
    for (std::size_t i = 0; i < log->updates.size(); ++i) {
      const UpdateRec& u = log->updates[i];
      if (u.seq <= base_[p]) {
        return "update (" + std::to_string(p) + "," + std::to_string(u.seq) +
               ") repeats a sequence number from before the cut";
      }
      h.updates.push_back({p, p, Tag{p, u.seq - base_[p]}, u.inv, u.res});
      if (u.seq > last[p]) last[p] = u.seq;
    }
    for (std::size_t i = 0; i < log->scans.size(); ++i) {
      const ScanRec& s = log->scans[i];
      asnap::lin::ScanOp op;
      op.proc = p;
      op.inv = s.inv;
      op.res = s.res;
      op.view.resize(words);
      for (std::size_t j = 0; j < words; ++j) {
        const Tag& t = log->views[i * words + j];
        const auto where = [&] {
          return "scan by P" + std::to_string(p) + " at " +
                 std::to_string(s.inv) + ": word " + std::to_string(j);
        };
        if (t.is_initial()) {
          if (base_[j] != 0) {
            return where() + " reads its initial value after (" +
                   std::to_string(j) + "," + std::to_string(base_[j]) +
                   ") completed before the cut";
          }
          continue;  // Tag{} stays the initial value
        }
        if (t.writer != j) {
          return where() + " holds a value written by P" +
                 std::to_string(t.writer);
        }
        if (t.seq < base_[j]) {
          return where() + " reads (" + std::to_string(j) + "," +
                 std::to_string(t.seq) + ") although (" + std::to_string(j) +
                 "," + std::to_string(base_[j]) +
                 ") completed before the cut";
        }
        if (t.seq > base_[j]) op.view[j] = Tag{t.writer, t.seq - base_[j]};
      }
      h.scans.push_back(std::move(op));
    }
  }

  const std::size_t ops = h.total_ops();
  // A client pipelines its updates, so one writer's updates can overlap in
  // real time, and check_single_writer orders a writer's updates only
  // through real time. A partial scan of word j that reads (j, s) and spans
  // all time forces (j, s) before (j, s + 1), the order the service applies
  // them in, and adds no real-time edge.
  for (std::size_t j = 0; j < words; ++j) {
    for (std::uint64_t s = 1; s < last[j] - base_[j]; ++s) {
      asnap::lin::ScanOp order;
      order.proc = static_cast<asnap::ProcessId>(j);
      order.word_base = j;
      order.view = {Tag{static_cast<asnap::ProcessId>(j), s}};
      order.inv = 0;
      order.res = UINT64_MAX;
      h.scans.push_back(std::move(order));
    }
  }
  if (auto verdict = asnap::lin::check_single_writer(h)) return verdict;
  ops_checked_ += ops;
  base_ = std::move(last);
  return std::nullopt;
}

}  // namespace perfbench
