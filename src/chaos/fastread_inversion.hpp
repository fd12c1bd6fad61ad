// The fast-read inversion schedule (DESIGN.md §15): a deterministic
// partition schedule around a timed-out write that makes an unconditional
// write-back skip (AbdConfig::unsafe_always_fast_read) observable as a
// new/old read inversion. On a 3-replica, 1-register AbdCluster<lin::Tag>:
//
//   1. write A = Tag{0,1} completes (and is confirmed) everywhere;
//   2. links 0-1 and 0-2 are cut, so write B = Tag{0,2} times out having
//      reached only replica 0 — an INDETERMINATE write, no confirm;
//   3. reader at node 1 (quorum {0,1}, link 1-2 cut) sees {ts=2, ts=1}:
//      disagreement and no confirmed bit;
//   4. reader at node 2 (quorum {1,2}, links to 0 cut) reads last.
//
// With the real stability rule step 3 falls back to the write-back and step
// 4 returns B. The mutant returns B at step 3 without writing it back, so
// step 4 sees ts=1 unanimously and returns the OLD A after a read of B
// returned — a history the exact single-writer checker must reject.
// chaos_run's broken-fastread scenario and the fast-read tests both run it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "abd/core.hpp"
#include "lin/history.hpp"
#include "lin/snapshot_checker.hpp"

namespace asnap::chaos {

struct FastReadInversion {
  /// The step that did not behave as the schedule needs; the run stopped
  /// there and nothing was checked.
  std::optional<std::string> setup_error;
  /// The exact single-writer verdict on the four-operation history (B is
  /// recorded as possibly applied any time up to the end).
  lin::CheckResult violation;
  lin::Tag read1{};  ///< step 3's read
  lin::Tag read2{};  ///< step 4's read
  std::uint64_t fast_reads = 0;
  std::uint64_t fast_fallbacks = 0;
  std::size_t history_ops = 0;
};

FastReadInversion run_fastread_inversion(const abd::AbdConfig& config,
                                         std::uint64_t seed);

}  // namespace asnap::chaos
