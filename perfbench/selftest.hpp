// Checks that the benchmark's own measuring and checking code works. Every
// run calls it, so every result carries the proof that the history checker
// still rejects a non-linearizable history.
#pragma once

namespace perfbench {

/// Histogram percentiles against a sorted reference, and MUST-FAIL
/// histories through ClientLog + SegmentChecker. True iff every case
/// behaves; with `verbose`, one line per case on stderr.
bool run_selftest(bool verbose);

}  // namespace perfbench
