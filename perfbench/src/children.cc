#include "children.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

/// Registered child pids; a fixed array so the signal handler can walk
/// it without allocating. 0 marks a free slot.
constexpr size_t kMaxChildren = 16;
std::array<volatile pid_t, kMaxChildren> g_children = {};

void Register(pid_t pid) {
  for (auto& slot : g_children) {
    if (slot == 0) {
      slot = pid;
      return;
    }
  }
}

void Unregister(pid_t pid) {
  for (auto& slot : g_children) {
    if (slot == pid) slot = 0;
  }
}

void OnTerminate(int signo) {
  for (auto& slot : g_children) {
    const pid_t pid = slot;
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }
  _exit(128 + signo);
}

}  // namespace

bool SpawnServer(const std::string& path, const std::vector<std::string>& args,
                 Child* child) {
  int out_pipe[2];
  if (pipe(out_pipe) != 0) {
    std::fprintf(stderr, "pipe() failed: %s\n", std::strerror(errno));
    return false;
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    std::fprintf(stderr, "fork() failed: %s\n", std::strerror(errno));
    close(out_pipe[0]);
    close(out_pipe[1]);
    return false;
  }
  if (pid == 0) {
    // Die with the benchmark even if it is SIGKILLed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(out_pipe[1], STDOUT_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(path.c_str()));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    execv(path.c_str(), argv.data());
    std::fprintf(stderr, "execv(%s) failed: %s\n", path.c_str(),
                 std::strerror(errno));
    _exit(127);
  }
  Register(pid);
  close(out_pipe[1]);
  // The first stdout line announces the bound port.
  std::string line;
  const auto deadline_ms = 20000;
  int waited_ms = 0;
  bool done = false;
  while (!done && waited_ms < deadline_ms) {
    pollfd pfd{out_pipe[0], POLLIN, 0};
    const int ready = poll(&pfd, 1, 100);
    if (ready == 0) {
      waited_ms += 100;
      continue;
    }
    if (ready < 0 && errno == EINTR) continue;
    char c = 0;
    if (ready < 0 || read(out_pipe[0], &c, 1) != 1) break;
    if (c == '\n') {
      done = true;
    } else {
      line += c;
    }
  }
  close(out_pipe[0]);
  const size_t colon = line.rfind(':');
  const int port =
      done && colon != std::string::npos && line.find("listening on") !=
                                                std::string::npos
          ? std::atoi(line.c_str() + colon + 1)
          : 0;
  child->pid = pid;
  if (port <= 0) {
    std::fprintf(stderr, "%s: unexpected banner '%s'\n", path.c_str(),
                 line.c_str());
    KillChild(child);
    return false;
  }
  child->port = port;
  return true;
}

void KillChild(Child* child) {
  if (child->pid <= 0) return;
  kill(child->pid, SIGKILL);
  while (waitpid(child->pid, nullptr, 0) < 0 && errno == EINTR) {
  }
  Unregister(child->pid);
  child->pid = -1;
}

void KillAllChildren() {
  for (auto& slot : g_children) {
    Child child;
    child.pid = slot;
    KillChild(&child);
  }
}

void InstallChildHygiene() {
  std::atexit(KillAllChildren);
  struct sigaction action {};
  action.sa_handler = OnTerminate;
  sigemptyset(&action.sa_mask);
  for (int signo : {SIGINT, SIGTERM, SIGHUP}) {
    sigaction(signo, &action, nullptr);
  }
  signal(SIGPIPE, SIG_IGN);
}

bool ReadChildUsage(pid_t pid, ChildUsage* usage) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string content;
  if (!std::getline(stat, content)) return false;
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const size_t close_paren = content.rfind(')');
  if (close_paren == std::string::npos) return false;
  std::istringstream fields(content.substr(close_paren + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  usage->cpu_s = ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      usage->peak_rss_mb = std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return true;
}

}  // namespace perfbench
