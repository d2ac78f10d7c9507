#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace ledger {

namespace {

// Live children, for the signal handler. Slots hold 0 when free.
constexpr int kMaxChildren = 16;
std::atomic<pid_t> g_children[kMaxChildren];

void TrackChild(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
}

void UntrackChild(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

void KillChildrenAndExit(int sig) {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  ::_exit(128 + sig);
}

/// fork + exec with the child's stdin/stdout/stderr set to the given fds
/// (-1 leaves the benchmark's own). Every other descriptor the benchmark
/// opens is close-on-exec, so no child inherits another child's pipe.
pid_t Spawn(const std::vector<std::string>& argv, int in_fd, int out_fd,
            const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid != 0) {
    if (pid > 0) TrackChild(pid);
    return pid;
  }
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(127);
  sigset_t none;
  sigemptyset(&none);
  ::sigprocmask(SIG_SETMASK, &none, nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd < 0) ::_exit(127);
  if (in_fd >= 0) ::dup2(in_fd, STDIN_FILENO);
  ::dup2(out_fd >= 0 ? out_fd : log_fd, STDOUT_FILENO);
  ::dup2(log_fd, STDERR_FILENO);
  ::execv(args[0], args.data());
  ::_exit(127);
}

int WaitExit(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  UntrackChild(pid);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// The value after `"port":` in one event line, or -1.
int PortOf(const std::string& line) {
  const size_t at = line.find("\"port\":");
  return at == std::string::npos ? -1 : std::atoi(line.c_str() + at + 7);
}

}  // namespace

void InstallChildReaper() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = KillChildrenAndExit;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGINT, SIGTERM, SIGHUP}) ::sigaction(sig, &sa, nullptr);
  // A daemon that exits early must surface as an error, not kill us.
  ::signal(SIGPIPE, SIG_IGN);
}

int RunToCompletion(const std::vector<std::string>& argv,
                    const std::string& log_path) {
  const pid_t pid = Spawn(argv, -1, -1, log_path);
  return pid < 0 ? -1 : WaitExit(pid);
}

tegra::Status Daemon::Start(const std::vector<std::string>& argv,
                            const std::string& log_path, bool want_admin) {
  int in_pipe[2];
  int out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) return tegra::Status::IOError("pipe");
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    return tegra::Status::IOError("pipe");
  }
  pid_ = Spawn(argv, in_pipe[0], out_pipe[1], log_path);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  stdin_fd_ = in_pipe[1];
  stdout_fd_ = out_pipe[0];
  if (pid_ < 0) {
    Stop();
    return tegra::Status::IOError("fork failed");
  }

  // Read event lines until every wanted port is known.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::string buffer;
  while (data_port_ < 0 || (want_admin && admin_port_ < 0)) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      Stop();
      return tegra::Status::DeadlineExceeded("tegra_serve did not get ready");
    }
    struct pollfd pfd = {stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char chunk[512];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      Stop();
      return tegra::Status::IOError("tegra_serve exited before ready; see " +
                                    log_path);
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (line.find("\"data_ready\"") != std::string::npos) {
        data_port_ = PortOf(line);
      } else if (line.find("\"admin_ready\"") != std::string::npos) {
        admin_port_ = PortOf(line);
      }
    }
  }
  return tegra::Status::OK();
}

double Daemon::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // Reported in kB.
    }
  }
  return 0;
}

double Daemon::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

bool Daemon::Stop() {
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
  bool clean = false;
  if (pid_ > 0) {
    int status = 0;
    pid_t done = 0;
    for (int i = 0; i < 2000 && done == 0; ++i) {
      done = ::waitpid(pid_, &status, WNOHANG);
      if (done == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (done == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    } else {
      clean = done == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    UntrackChild(pid_);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  data_port_ = admin_port_ = -1;
  return clean;
}

}  // namespace ledger
