// cxrun — launcher for the multi-process socket backend.
//
//   cxrun -np N [-ppn K] [-hosts h0,h1,...] ./program [args...]
//
// Starts N rank processes (fork/exec locally), runs the rendezvous root
// they wire up through, and waits for all of them. A rank that exits
// before checking in (a failed exec, say) fails the job at once, with its
// exit status reported. So does the first rank to die or exit nonzero
// after wireup: the remaining ranks get SIGTERM, then SIGKILL after a
// short grace period, and cxrun exits nonzero naming that rank. Each
// child gets:
//
//   CXRUN_RANK    its rank (0..N-1)
//   CXRUN_NRANKS  N
//   CXRUN_PPN     worker PEs per rank (default 1)
//   CXRUN_ROOT    host:port of the rendezvous listener
//
// cxm::make_machine sees the environment and joins the socket job, so
// unmodified examples run multi-process. Remote hosts are accepted in
// -hosts only as aliases of localhost for now (ssh launch is future
// work); anything else is rejected up front rather than hanging in
// wireup.

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "net/wireup.hpp"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: cxrun -np N [-ppn K] [-hosts h0,h1,...] ./program [args...]\n"
      "  -np N      number of rank processes (required)\n"
      "  -ppn K     worker PEs per rank (default 1)\n"
      "  -hosts ... comma-separated host list (localhost only for now)\n");
}

bool is_localhost(const std::string& h) {
  return h == "localhost" || h == "127.0.0.1" || h == "::1";
}

struct Args {
  int np = 0;
  int ppn = 1;
  std::vector<std::string> hosts;
  std::vector<char*> child_argv;  // program + args, from the parent argv
};

/// How long the remaining ranks get between SIGTERM and SIGKILL when
/// the job is torn down.
constexpr std::chrono::seconds kTeardownGrace{2};

/// Report how rank `r` ended; true if it ended abnormally.
bool report_exit(int r, int status) {
  if (WIFSIGNALED(status)) {
    std::fprintf(stderr, "cxrun: rank %d killed by signal %d (%s)\n", r,
                 WTERMSIG(status), strsignal(WTERMSIG(status)));
    return true;
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "cxrun: rank %d exited with status %d\n", r,
                 WEXITSTATUS(status));
    return true;
  }
  return false;
}

bool parse(int argc, char** argv, Args& out) {
  int i = 1;
  for (; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-np" || a == "--np") {
      if (i + 1 >= argc) return false;
      out.np = std::atoi(argv[++i]);
    } else if (a == "-ppn" || a == "--ppn") {
      if (i + 1 >= argc) return false;
      out.ppn = std::atoi(argv[++i]);
    } else if (a == "-hosts" || a == "--hosts") {
      if (i + 1 >= argc) return false;
      std::string list = argv[++i];
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end = comma == std::string::npos ? list.size()
                                                           : comma;
        if (end > pos) out.hosts.push_back(list.substr(pos, end - pos));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (a == "-h" || a == "--help") {
      return false;
    } else {
      break;  // first non-option token is the program
    }
  }
  for (; i < argc; ++i) out.child_argv.push_back(argv[i]);
  out.child_argv.push_back(nullptr);
  return out.np >= 1 && out.ppn >= 1 && out.child_argv.size() > 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }
  for (const std::string& h : args.hosts) {
    if (!is_localhost(h)) {
      std::fprintf(stderr,
                   "cxrun: remote host '%s' is not supported yet — all "
                   "ranks launch on localhost\n",
                   h.c_str());
      return 2;
    }
  }

  // Rendezvous root: an ephemeral listener the ranks check in with.
  cxnet::Fd root;
  std::uint16_t root_port = 0;
  try {
    root = cxnet::tcp_listen(0);
    root_port = cxnet::local_port(root.get());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cxrun: %s\n", e.what());
    return 1;
  }
  const std::string root_addr = "127.0.0.1:" + std::to_string(root_port);

  std::vector<pid_t> pids;
  pids.reserve(static_cast<std::size_t>(args.np));
  for (int r = 0; r < args.np; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("cxrun: fork");
      for (const pid_t p : pids) ::kill(p, SIGKILL);
      return 1;
    }
    if (pid == 0) {
      ::setenv("CXRUN_RANK", std::to_string(r).c_str(), 1);
      ::setenv("CXRUN_NRANKS", std::to_string(args.np).c_str(), 1);
      ::setenv("CXRUN_PPN", std::to_string(args.ppn).c_str(), 1);
      ::setenv("CXRUN_ROOT", root_addr.c_str(), 1);
      ::execvp(args.child_argv[0], args.child_argv.data());
      std::fprintf(stderr, "cxrun: exec %s: %s\n", args.child_argv[0],
                   std::strerror(errno));
      std::_Exit(127);
    }
    pids.push_back(pid);
  }

  // Run the root exchange. While it waits for ranks to check in it polls
  // the children, so a rank that dies first (failed exec, crash) ends the
  // wireup at once instead of after the 30 s accept timeout.
  std::vector<bool> reaped(pids.size(), false);
  const auto check_children = [&] {
    for (std::size_t r = 0; r < pids.size(); ++r) {
      int status = 0;
      if (reaped[r] || ::waitpid(pids[r], &status, WNOHANG) != pids[r]) {
        continue;
      }
      reaped[r] = true;
      (void)report_exit(static_cast<int>(r), status);
      throw std::runtime_error("rank " + std::to_string(r) +
                               " ended before checking in");
    }
  };
  // Teardown: SIGTERM every rank still running now, SIGKILL at the
  // deadline. Only a job that is being torn down polls; otherwise the
  // reaping loop below blocks in waitpid.
  using Clock = std::chrono::steady_clock;
  bool tearing_down = false;
  bool killed = false;
  Clock::time_point kill_at;
  const auto tear_down = [&] {
    tearing_down = true;
    kill_at = Clock::now() + kTeardownGrace;
    for (std::size_t r = 0; r < pids.size(); ++r) {
      if (!reaped[r]) ::kill(pids[r], SIGTERM);
    }
  };

  int exit_code = 0;
  try {
    cxnet::run_root_exchange(root.get(),
                             static_cast<std::uint32_t>(args.np),
                             static_cast<std::uint32_t>(args.ppn), 30.0,
                             check_children);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cxrun: wireup failed: %s\n", e.what());
    exit_code = 1;
    tear_down();
  }

  // Reap ranks in the order they end. The first abnormal end fails the
  // job and tears down the rest.
  std::size_t live = 0;
  for (std::size_t r = 0; r < pids.size(); ++r) {
    if (!reaped[r]) ++live;
  }
  while (live > 0) {
    int status = 0;
    const pid_t pid =
        ::waitpid(-1, &status, tearing_down && !killed ? WNOHANG : 0);
    if (pid == 0) {
      if (Clock::now() >= kill_at) {
        for (std::size_t r = 0; r < pids.size(); ++r) {
          if (!reaped[r]) ::kill(pids[r], SIGKILL);
        }
        killed = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      continue;
    }
    if (pid < 0) {
      if (errno == EINTR) continue;
      std::perror("cxrun: waitpid");
      return 1;
    }
    std::size_t r = 0;
    while (r < pids.size() && pids[r] != pid) ++r;
    if (r == pids.size() || reaped[r]) continue;
    reaped[r] = true;
    --live;
    if (tearing_down) {
      // Ranks ending on the teardown signals are expected; anything
      // else (a rank's own failure report) is still shown.
      const bool torn = WIFSIGNALED(status) && (WTERMSIG(status) == SIGTERM ||
                                                WTERMSIG(status) == SIGKILL);
      if (!torn) (void)report_exit(static_cast<int>(r), status);
      continue;
    }
    if (report_exit(static_cast<int>(r), status)) {
      exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
      if (live > 0) {
        std::fprintf(stderr,
                     "cxrun: rank %zu failed; terminating the other %zu "
                     "rank(s)\n",
                     r, live);
        tear_down();
      }
    }
  }
  return exit_code;
}
