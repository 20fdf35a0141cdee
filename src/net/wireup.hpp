#pragma once
// Job wireup: rank rendezvous through a root listener, then an
// all-to-all TCP mesh.
//
// Protocol (all native-endian, guarded by the Handshake):
//
//   1. Every rank connects to the root (cxrun, or a test harness) and
//      sends Handshake + u16 data_port (the ephemeral port its own data
//      listener is bound to).
//   2. The root validates all nranks handshakes against each other
//      (magic/version/ABI/geometry, no duplicate ranks), then replies
//      to every rank with the endpoint table:
//        nranks x { u32 ip (host order, from getpeername), u16 port }.
//   3. Ranks build the mesh: rank r connects to every rank < r
//      (sending its Handshake first, then reading the peer's), and
//      accepts from every rank > r (reading the peer's Handshake —
//      which identifies the connecting rank — then replying with its
//      own). Sequential accept is safe: the kernel backlog holds
//      early connectors.
//   4. When asked to, the connecting rank of each pair also creates a
//      shared-memory segment (net/shm_ring.hpp) and offers it in its
//      handshake; the accepting rank maps it and echoes the offer, or
//      answers 0. Both unlink it before the handshake completes. A pair
//      whose offer was not echoed frames over TCP.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/shm_ring.hpp"
#include "net/socket_util.hpp"

namespace cxnet {

struct Endpoint {
  std::uint32_t ip = 0;  ///< host byte order
  std::uint16_t port = 0;
};

/// Root side of step 1-2: accept `nranks` hellos on `listen_fd`,
/// validate, reply the endpoint table to each. Throws on any protocol
/// violation (naming the offending rank/host where possible).
/// `while_waiting` runs about every 100 ms while no rank is connecting
/// (cxrun checks its children there); an exception it throws abandons
/// the exchange.
void run_root_exchange(int listen_fd, std::uint32_t nranks, std::uint32_t ppn,
                       double timeout_s = 30.0,
                       const std::function<void()>& while_waiting = {});

/// Rank side of step 1-2: rendezvous with the root and return the full
/// endpoint table (indexed by rank; our own entry included).
std::vector<Endpoint> client_rendezvous(const std::string& root_host,
                                        std::uint16_t root_port,
                                        const Handshake& mine,
                                        std::uint16_t data_port,
                                        double timeout_s = 30.0);

/// Step 3: build the mesh. Returns nranks fds (self entry invalid),
/// each having completed a validated handshake exchange. The fds are
/// still blocking; the caller flips them nonblocking for the epoll
/// loop. With `shm` set, every pair also tries step 4 and (*shm)[r]
/// holds the segment shared with rank r, or stays empty.
std::vector<Fd> mesh_wireup(const Handshake& mine, int data_listen_fd,
                            const std::vector<Endpoint>& table,
                            double timeout_s = 30.0,
                            std::vector<ShmSegment>* shm = nullptr);

}  // namespace cxnet
