/// \file children.h
/// \brief Server child processes of the benchmark: spawning predictd
/// and predict_router, reading their CPU time and peak memory from
/// /proc, and killing every one of them on any exit path.

#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/// \brief One running child server.
struct Child {
  pid_t pid = -1;
  int port = 0;
};

/// \brief Resource use of a child read from /proc.
struct ChildUsage {
  /// User + system CPU seconds so far.
  double cpu_s = 0.0;
  /// Peak resident set (VmHWM), MiB.
  double peak_rss_mb = 0.0;
};

/// Forks and execs `path` with `args`; waits (up to 20 s) for its
/// "... listening on 127.0.0.1:<port>" banner. The child is registered
/// for KillAllChildren and dies with the benchmark (PR_SET_PDEATHSIG).
/// Returns false, with the child reaped, on any failure.
bool SpawnServer(const std::string& path, const std::vector<std::string>& args,
                 Child* child);

/// SIGKILLs and reaps one child (no-op when already gone).
void KillChild(Child* child);

/// SIGKILLs and reaps every registered child. Installed for normal exit
/// and for SIGINT/SIGTERM/SIGHUP by InstallChildHygiene.
void KillAllChildren();

/// Registers KillAllChildren at exit and on termination signals.
void InstallChildHygiene();

/// CPU time and peak RSS of a live child; false when /proc is missing.
bool ReadChildUsage(pid_t pid, ChildUsage* usage);

}  // namespace perfbench
