// cxrun — launcher for the SocketMachine backend.
//
//   cxrun -np N [-ppn K] [-hosts h0,h1,...] ./program [args...]
//
// Starts N rank processes (fork/exec locally), runs the rendezvous root
// they wire up through, and waits for all of them. A rank that exits
// before checking in (a failed exec, say) fails the job at once, with its
// exit status reported. Each child gets:
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
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <sys/wait.h>
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
  std::vector<int> statuses(pids.size(), 0);
  std::vector<bool> reaped(pids.size(), false);
  const auto check_children = [&] {
    for (std::size_t r = 0; r < pids.size(); ++r) {
      if (reaped[r] || ::waitpid(pids[r], &statuses[r], WNOHANG) != pids[r]) {
        continue;
      }
      reaped[r] = true;
      throw std::runtime_error("rank " + std::to_string(r) +
                               " ended before checking in");
    }
  };
  bool wireup_ok = true;
  try {
    cxnet::run_root_exchange(root.get(),
                             static_cast<std::uint32_t>(args.np),
                             static_cast<std::uint32_t>(args.ppn), 30.0,
                             check_children);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cxrun: wireup failed: %s\n", e.what());
    wireup_ok = false;
    for (std::size_t r = 0; r < pids.size(); ++r) {
      if (!reaped[r]) ::kill(pids[r], SIGTERM);
    }
  }

  int exit_code = wireup_ok ? 0 : 1;
  for (int r = 0; r < args.np; ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (!reaped[i] && ::waitpid(pids[i], &statuses[i], 0) < 0) {
      std::perror("cxrun: waitpid");
      exit_code = 1;
      continue;
    }
    const int status = statuses[i];
    if (WIFSIGNALED(status)) {
      std::fprintf(stderr, "cxrun: rank %d killed by signal %d (%s)\n", r,
                   WTERMSIG(status), strsignal(WTERMSIG(status)));
      exit_code = 1;
    } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "cxrun: rank %d exited with status %d\n", r,
                   WEXITSTATUS(status));
      if (exit_code == 0) exit_code = WEXITSTATUS(status);
    }
  }
  return exit_code;
}
