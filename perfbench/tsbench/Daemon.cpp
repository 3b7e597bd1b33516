#include "Daemon.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

namespace tsbench {

std::vector<std::string> daemonFlags() {
  return {"--socket",        SocketName,
          "--journal",       JournalName,
          "--cache-file",    CacheFileName,
          "--workers",       "2",
          "--quota-deadline-ms", "0",
          "--quota-visited", std::to_string(QuotaVisited),
          "--quota-mem-mb",  "0"};
}

bool DaemonProcess::start() {
  stop();
  ::unlink(JournalName);
  ::unlink(SocketName);
  std::vector<std::string> Args = daemonFlags();
  Args.insert(Args.begin(), Binary);
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  const pid_t Parent = ::getpid();
  pid_t Child = ::fork();
  if (Child < 0)
    return false;
  if (Child == 0) {
    // Only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != Parent)
      ::_exit(127);
    int Log = ::open(DaemonLogName, O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (Log >= 0) {
      ::dup2(Log, STDOUT_FILENO);
      ::dup2(Log, STDERR_FILENO);
      ::close(Log);
    }
    ::execv(Argv[0], Argv.data());
    ::_exit(127);
  }
  Pid = Child;
  return true;
}

bool DaemonProcess::waitReady(double TimeoutS) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(TimeoutS);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", SocketName);
  while (std::chrono::steady_clock::now() < Deadline) {
    int Status = 0;
    if (Pid <= 0 || ::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      return false;
    }
    int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0)
      return false;
    bool Up = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                        sizeof(Addr)) == 0;
    ::close(Fd);
    if (Up)
      return true;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return false;
}

int DaemonProcess::stop() {
  if (Pid <= 0)
    return -1;
  ::kill(Pid, SIGTERM);
  int Status = 0;
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    pid_t R = ::waitpid(Pid, &Status, WNOHANG);
    if (R == Pid || (R < 0 && errno != EINTR))
      break;
    if (std::chrono::steady_clock::now() > Deadline) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &Status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Pid = -1;
  if (WIFEXITED(Status))
    return WEXITSTATUS(Status);
  if (WIFSIGNALED(Status))
    return 128 + WTERMSIG(Status);
  return -1;
}

double DaemonProcess::cpuMs() const {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Line;
  std::getline(In, Line);
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  size_t Close = Line.rfind(')');
  if (Close == std::string::npos)
    return 0;
  std::istringstream Rest(Line.substr(Close + 2));
  std::string Field;
  unsigned long long UTime = 0, STime = 0;
  for (int I = 3; I <= 15 && (Rest >> Field); ++I) {
    if (I == 14)
      UTime = std::stoull(Field);
    if (I == 15)
      STime = std::stoull(Field);
  }
  return 1000.0 * static_cast<double>(UTime + STime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::pair<double, double> hostCpuJiffies() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  double User = 0, Nice = 0, System = 0, Idle = 0, IoWait = 0, Irq = 0,
         SoftIrq = 0, Steal = 0;
  In >> Cpu >> User >> Nice >> System >> Idle >> IoWait >> Irq >> SoftIrq >>
      Steal;
  return {User + Nice + System + Irq + SoftIrq, Steal};
}

double DaemonProcess::peakRssMb() const {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // kB
  return 0;
}

std::string DaemonProcess::logTail() {
  std::ifstream In(DaemonLogName);
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    Lines.push_back(Line);
  std::string Out;
  for (size_t I = Lines.size() > 8 ? Lines.size() - 8 : 0; I < Lines.size();
       ++I)
    Out += "  | " + Lines[I] + "\n";
  return Out;
}

} // namespace tsbench
