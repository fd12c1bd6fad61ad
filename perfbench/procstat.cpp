#include "procstat.hpp"

#include <time.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {
namespace {

std::string proc_dir(pid_t pid) {
  return pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Value of a "Key:  <number> [kB]" line, 0 when absent.
std::uint64_t field(const std::string& text, const char* key) {
  const std::string needle = std::string("\n") + key + ":";
  std::size_t at = text.rfind(key, 0) == 0 ? 0 : text.find(needle);
  if (at == std::string::npos) return 0;
  at = text.find(':', at) + 1;
  return std::strtoull(text.c_str() + at, nullptr, 10);
}

std::uint64_t to_ns(const timespec& ts) {
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return to_ns(ts);
}

std::uint64_t process_cpu_ns(pid_t pid) {
  clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
  if (pid != 0 && clock_getcpuclockid(pid, &clock) != 0) return 0;
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return to_ns(ts);
}

ProcSample sample_process(pid_t pid) {
  const std::string dir = proc_dir(pid);
  ProcSample s;
  const std::string status = slurp(dir + "/status");
  s.rss_bytes = field(status, "VmRSS") * 1024;
  s.hwm_bytes = field(status, "VmHWM") * 1024;
  s.threads = field(status, "Threads");
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator(dir + "/task", ec)) {
    const std::string t = slurp(task.path().string() + "/status");
    s.ctxsw += field(t, "voluntary_ctxt_switches") +
               field(t, "nonvoluntary_ctxt_switches");
  }
  const std::string io = slurp(dir + "/io");
  s.wchar = field(io, "wchar");
  s.syscw = field(io, "syscw");
  return s;
}

MachineTicks machine_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": the sum over all CPUs
  MachineTicks t;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    in >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
