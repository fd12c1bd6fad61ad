// Resource readings of this process and of the daemons it spawned, taken
// from outside the program: CPU clocks and /proc files.
#pragma once

#include <sys/types.h>

#include <cstdint>

namespace perfbench {

/// Nanoseconds of CPU the calling thread has used.
std::uint64_t thread_cpu_ns();

/// Nanoseconds of user plus system CPU used by every thread, living or
/// exited, of process `pid` (0 = this process). 0 if the process is gone.
std::uint64_t process_cpu_ns(pid_t pid);

/// Fields of /proc/<pid>/status and /proc/<pid>/io (0 = this process).
struct ProcSample {
  std::uint64_t rss_bytes = 0;   ///< VmRSS
  std::uint64_t hwm_bytes = 0;   ///< VmHWM: peak resident set
  std::uint64_t threads = 0;
  std::uint64_t ctxsw = 0;       ///< voluntary + involuntary, all threads
  std::uint64_t wchar = 0;       ///< bytes passed to write-type calls
  std::uint64_t syscw = 0;       ///< write-type system calls
};
ProcSample sample_process(pid_t pid);

/// The machine's cumulative CPU time from /proc/stat, in clock ticks:
/// all of it, and the part the hypervisor ran something else on our vCPUs.
struct MachineTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
MachineTicks machine_ticks();

/// Reset this process's VmHWM to its current resident size. False where
/// the kernel refuses.
bool reset_peak_rss();

}  // namespace perfbench
