#include "machine/machine.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "machine/sim_machine.hpp"
#include "machine/threaded_machine.hpp"

namespace cxm {

namespace {

long env_long(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    throw std::invalid_argument(std::string("cxrun environment incomplete: ") +
                                name + " is not set");
  }
  char* end = nullptr;
  const long x = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') {
    throw std::invalid_argument(std::string("cxrun environment: bad ") + name +
                                "='" + v + "'");
  }
  return x;
}

}  // namespace

bool socket_env_active() { return std::getenv("CXRUN_RANK") != nullptr; }

int launched_rank() {
  const char* v = std::getenv("CXRUN_RANK");
  return v != nullptr ? static_cast<int>(std::strtol(v, nullptr, 10)) : 0;
}

void apply_socket_env(MachineConfig& cfg) {
  SocketParams p;
  p.rank = static_cast<int>(env_long("CXRUN_RANK"));
  p.nranks = static_cast<int>(env_long("CXRUN_NRANKS"));
  p.ppn = static_cast<int>(env_long("CXRUN_PPN"));
  const char* root = std::getenv("CXRUN_ROOT");
  if (root == nullptr) {
    throw std::invalid_argument("cxrun environment incomplete: CXRUN_ROOT");
  }
  const std::string r = root;
  const auto colon = r.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= r.size()) {
    throw std::invalid_argument("CXRUN_ROOT must be host:port, got '" + r +
                                "'");
  }
  p.root_host = r.substr(0, colon);
  const std::string port = r.substr(colon + 1);
  const bool digits = port.size() <= 5 &&
                      port.find_first_not_of("0123456789") == std::string::npos;
  const int n = digits ? std::stoi(port) : 0;
  if (n < 1 || n > 65535) {
    throw std::invalid_argument("CXRUN_ROOT port must be 1-65535, got '" +
                                r + "'");
  }
  p.root_port = static_cast<std::uint16_t>(n);
  if (p.rank < 0 || p.nranks < 1 || p.rank >= p.nranks || p.ppn < 1) {
    throw std::invalid_argument("cxrun environment: bad geometry (rank " +
                                std::to_string(p.rank) + " of " +
                                std::to_string(p.nranks) + ", ppn " +
                                std::to_string(p.ppn) + ")");
  }
  cfg.socket = p;
  cfg.backend = Backend::Socket;
}

std::unique_ptr<Machine> make_machine(const MachineConfig& cfg) {
  MachineConfig effective = cfg;
  // Under cxrun, a default (Threaded) request joins the socket job so
  // unmodified examples work; explicit Sim runs stay simulated.
  if (effective.backend == Backend::Threaded && socket_env_active()) {
    apply_socket_env(effective);
  }
  if (effective.backend == Backend::Sim) {
    return std::make_unique<SimMachine>(effective);
  }
  if (effective.backend == Backend::Socket &&
      effective.socket.root_port == 0) {
    apply_socket_env(effective);  // Socket requested directly: need env
  }
  return std::make_unique<ThreadedMachine>(effective);
}

}  // namespace cxm
