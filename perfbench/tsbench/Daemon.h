//===----------------------------------------------------------------------===//
///
/// \file
/// The deployed tracesafed as a child process of the benchmark.
///
/// The child is started in its durable configuration (journal, cache file,
/// two workers, visit-only quota) from the run directory, with its output
/// in a log file there, and is told to die with the benchmark
/// (PR_SET_PDEATHSIG) so no daemon outlives a crashed or killed run. Its
/// CPU time and peak RSS are read from /proc.
///
//===----------------------------------------------------------------------===//

#ifndef TSBENCH_DAEMON_H
#define TSBENCH_DAEMON_H

#include "support/Budget.h"

#include <string>
#include <sys/types.h>
#include <utility>
#include <vector>

namespace tsbench {

/// Visit-only quota: no deadline and no memory cap, so a verdict (and the
/// point where a budget truncates it) is the same on every host.
inline constexpr uint64_t QuotaVisited = 400'000;
inline const tracesafe::BudgetSpec QuotaCeiling{/*DeadlineMs=*/0,
                                                /*MaxVisited=*/QuotaVisited,
                                                /*MaxMemoryBytes=*/0};

/// File names inside the run directory.
inline constexpr const char *SocketName = "tracesafed.sock";
inline constexpr const char *JournalName = "tracesafed.journal";
inline constexpr const char *CacheFileName = "tracesafed.cache";
inline constexpr const char *DaemonLogName = "tracesafed.log";

/// The daemon's command-line flags (without the binary).
std::vector<std::string> daemonFlags();

/// Jiffies the whole host spent in (busy, steal): steal is time the
/// hypervisor gave this machine's CPUs to someone else.
std::pair<double, double> hostCpuJiffies();

class DaemonProcess {
public:
  explicit DaemonProcess(std::string Binary) : Binary(std::move(Binary)) {}
  ~DaemonProcess() { stop(); }

  DaemonProcess(const DaemonProcess &) = delete;
  DaemonProcess &operator=(const DaemonProcess &) = delete;

  /// Starts a fresh life: removes the old journal and socket (the cache
  /// file is kept, so the new life preloads it) and forks the daemon.
  /// Returns false when fork/exec fails.
  bool start();

  /// Waits until the socket accepts a connection. False when the daemon
  /// exits first or \p TimeoutS passes.
  bool waitReady(double TimeoutS);

  /// SIGTERM, then wait (SIGKILL after 30 s). Returns the exit status as
  /// the shell reports it (130 is the daemon's clean signal exit); -1 if
  /// nothing was running.
  int stop();

  /// User+system CPU time of the whole process, in milliseconds.
  double cpuMs() const;
  /// VmHWM in MiB.
  double peakRssMb() const;
  /// The last lines of the daemon's log file, for diagnostics.
  static std::string logTail();

private:
  std::string Binary;
  pid_t Pid = -1;
};

} // namespace tsbench

#endif // TSBENCH_DAEMON_H
