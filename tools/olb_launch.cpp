// Multi-process loopback launcher for the socket backend.
//
// Forks n copies of a bench/example binary, hands each its rank and a
// shared 127.0.0.1 address table, and supervises them under a wall-clock
// deadline:
//
//   $ tools/olb_launch --n 4 --timeout-ms 60000 --logdir /tmp/logs --
//         examples/flowshop_solver --strategy btd --peers 4
//
// Appends `--backend=sockets --rank=<i> --peer-addrs=<table>` to the
// command, so the command line before `--` is exactly what a single-process
// run takes. Rank 0 inherits stdout/stderr (it prints the results — every
// rank computes identical aggregates); other ranks log to
// <logdir>/rank<i>.log, or stdout-to-/dev/null without --logdir.
//
// Exit status: 0 when every child exits 0; 1 when any child fails; 2 on a
// usage error or a rank log that cannot be opened (before any rank starts);
// 124 when the deadline fires (all children are SIGKILLed first — a hung
// distributed run must not hang the launcher, or CI).
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace {

[[noreturn]] void usage_and_exit() {
  std::fprintf(stderr,
               "usage: olb_launch [--n <ranks>] [--base-port <port>] "
               "[--logdir <dir>] [--timeout-ms <ms>] -- <command> [args...]\n"
               "  --n           number of ranks/processes (default 4)\n"
               "  --base-port   rank i listens on port+i (default: ask the "
               "kernel for free ports)\n"
               "  --logdir      per-rank log files for ranks > 0 (default: "
               "discard their stdout)\n"
               "  --timeout-ms  kill everything and exit 124 after this long "
               "(default 120000)\n");
  std::exit(2);
}

/// Binds 127.0.0.1:0, reads back the kernel-chosen port, closes. The tiny
/// race against another process grabbing the port before the child rebinds
/// is acceptable for a loopback test launcher.
int free_port() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) { std::perror("olb_launch: socket"); std::exit(2); }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    std::perror("olb_launch: bind");
    std::exit(2);
  }
  socklen_t len = sizeof addr;
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    std::perror("olb_launch: getsockname");
    std::exit(2);
  }
  close(fd);
  return ntohs(addr.sin_port);
}

}  // namespace

int main(int argc, char** argv) {
  int n = 4;
  int base_port = 0;
  long long timeout_ms = 120000;
  std::string logdir;
  int cmd_start = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_and_exit();
      return argv[++i];
    };
    if (arg == "--") { cmd_start = i + 1; break; }
    if (arg == "--n") n = std::atoi(value());
    else if (arg == "--base-port") base_port = std::atoi(value());
    else if (arg == "--logdir") logdir = value();
    else if (arg == "--timeout-ms") timeout_ms = std::atoll(value());
    else usage_and_exit();
  }
  if (cmd_start < 0 || cmd_start >= argc || n < 1 || timeout_ms < 1) {
    usage_and_exit();
  }

  std::string table;
  for (int i = 0; i < n; ++i) {
    const int port = base_port > 0 ? base_port + i : free_port();
    if (!table.empty()) table += ',';
    table += "127.0.0.1:" + std::to_string(port);
  }

  // Every rank's log is opened before any rank starts: a log that cannot be
  // opened fails the launch, instead of that rank writing to our stdout.
  std::vector<int> logs(static_cast<size_t>(n), -1);
  for (int rank = 1; rank < n; ++rank) {
    const std::string log = logdir.empty()
                                ? "/dev/null"
                                : logdir + "/rank" + std::to_string(rank) + ".log";
    const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      std::fprintf(stderr, "olb_launch: cannot open %s: %s\n", log.c_str(),
                   std::strerror(errno));
      std::exit(2);
    }
    logs[static_cast<size_t>(rank)] = fd;
  }

  std::vector<pid_t> pids(static_cast<size_t>(n), -1);
  for (int rank = 0; rank < n; ++rank) {
    const pid_t pid = fork();
    if (pid < 0) { std::perror("olb_launch: fork"); std::exit(2); }
    if (pid == 0) {
      if (const int fd = logs[static_cast<size_t>(rank)]; fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        if (!logdir.empty()) dup2(fd, STDERR_FILENO);
      }
      std::vector<std::string> extra = {
          "--backend=sockets",
          "--rank=" + std::to_string(rank),
          "--peer-addrs=" + table,
      };
      std::vector<char*> child_argv;
      for (int i = cmd_start; i < argc; ++i) child_argv.push_back(argv[i]);
      for (std::string& s : extra) child_argv.push_back(s.data());
      child_argv.push_back(nullptr);
      execvp(child_argv[0], child_argv.data());
      std::fprintf(stderr, "olb_launch: exec %s: %s\n", child_argv[0],
                   std::strerror(errno));
      _exit(127);
    }
    pids[static_cast<size_t>(rank)] = pid;
  }
  for (const int fd : logs) {
    if (fd >= 0) close(fd);
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  int live = n;
  bool failed = false;
  while (live > 0) {
    int status = 0;
    const pid_t done = waitpid(-1, &status, WNOHANG);
    if (done > 0) {
      --live;
      const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (!ok) {
        failed = true;
        for (int rank = 0; rank < n; ++rank) {
          if (pids[static_cast<size_t>(rank)] == done) {
            std::fprintf(stderr, "olb_launch: rank %d failed (status 0x%x)\n",
                         rank, status);
          }
        }
        // Surviving ranks would block on the dead peer until some watchdog
        // fires; fail fast instead.
        for (pid_t pid : pids) kill(pid, SIGKILL);
      }
      continue;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr,
                   "olb_launch: deadline (%lld ms) reached with %d rank(s) "
                   "still running; killing them\n",
                   timeout_ms, live);
      for (pid_t pid : pids) kill(pid, SIGKILL);
      while (live > 0 && waitpid(-1, &status, 0) > 0) --live;
      return 124;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return failed ? 1 : 0;
}
