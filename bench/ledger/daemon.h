// Child processes of the benchmark: one-shot tools (tegra_corpusctl) and the
// tegra_serve daemon under test.
//
// Every child is killed with the benchmark: children get SIGKILL as their
// parent-death signal, InstallChildReaper() kills and reaps them when the
// benchmark is interrupted, and ~Daemon() stops the daemon on every return
// path. The daemon's stdin is a pipe only the benchmark holds; closing it is
// the EOF that makes tegra_serve drain and exit.

#ifndef TEGRA_BENCH_LEDGER_DAEMON_H_
#define TEGRA_BENCH_LEDGER_DAEMON_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "common/status.h"

namespace ledger {

/// SIGINT / SIGTERM / SIGHUP: SIGKILL and reap every live child, then exit
/// with 128 + signal.
void InstallChildReaper();

/// Runs `argv` to completion with stdout and stderr appended to `log_path`.
/// Returns the exit status, or -1 when the program could not be run.
int RunToCompletion(const std::vector<std::string>& argv,
                    const std::string& log_path);

/// A running tegra_serve.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `argv` (stderr appended to `log_path`) and waits until it
  /// announces its data-plane port, and its admin port when `want_admin`.
  tegra::Status Start(const std::vector<std::string>& argv,
                      const std::string& log_path, bool want_admin);

  int data_port() const { return data_port_; }
  int admin_port() const { return admin_port_; }
  bool running() const { return pid_ > 0; }

  /// High-water resident set (VmHWM) of the daemon, in MiB.
  double PeakRssMb() const;
  /// User + system CPU time the daemon has used so far, in seconds.
  double CpuSeconds() const;

  /// Closes stdin (graceful drain) and waits for the exit; SIGKILL after
  /// 20 s. True when the daemon exited with status 0. Idempotent.
  bool Stop();

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  int data_port_ = -1;
  int admin_port_ = -1;
};

}  // namespace ledger

#endif  // TEGRA_BENCH_LEDGER_DAEMON_H_
