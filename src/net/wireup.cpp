#include "net/wireup.hpp"

#include <arpa/inet.h>
#include <cstring>
#include <netinet/in.h>
#include <stdexcept>

namespace cxnet {

namespace {

constexpr std::size_t kEndpointBytes = 6;  // u32 ip + u16 port

void put_u32(std::byte* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u16(std::byte* p, std::uint16_t v) { std::memcpy(p, &v, 2); }
std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint16_t get_u16(const std::byte* p) {
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}

std::string ip_str(std::uint32_t host_order) {
  in_addr a{};
  a.s_addr = htonl(host_order);
  char buf[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &a, buf, sizeof(buf));
  return buf;
}

}  // namespace

void run_root_exchange(int listen_fd, std::uint32_t nranks, std::uint32_t ppn,
                       double timeout_s,
                       const std::function<void()>& while_waiting) {
  Handshake root_view;  // what every rank's hello must agree with
  root_view.nranks = nranks;
  root_view.ppn = ppn;

  std::vector<Fd> conns(nranks);
  std::vector<Endpoint> table(nranks);
  std::vector<bool> seen(nranks, false);
  for (std::uint32_t i = 0; i < nranks; ++i) {
    std::string peer_ip;
    Fd fd = accept_conn(listen_fd, timeout_s, &peer_ip, while_waiting);
    set_timeout(fd.get(), timeout_s);
    std::byte hello[kHandshakeBytes + 2];
    recv_all(fd.get(), hello, sizeof(hello));
    const Handshake h = decode_handshake(hello);
    const std::string err = handshake_check(root_view, h);
    if (!err.empty()) {
      throw std::runtime_error("cxrun: bad hello from " + peer_ip + ": " +
                               err);
    }
    if (seen[h.rank]) {
      throw std::runtime_error("cxrun: duplicate rank " +
                               std::to_string(h.rank) + " (second hello from " +
                               peer_ip + ")");
    }
    seen[h.rank] = true;
    table[h.rank].ip = peer_ip_u32(fd.get());
    table[h.rank].port = get_u16(hello + kHandshakeBytes);
    conns[h.rank] = std::move(fd);
  }

  std::vector<std::byte> reply(nranks * kEndpointBytes);
  for (std::uint32_t r = 0; r < nranks; ++r) {
    put_u32(reply.data() + r * kEndpointBytes, table[r].ip);
    put_u16(reply.data() + r * kEndpointBytes + 4, table[r].port);
  }
  for (std::uint32_t r = 0; r < nranks; ++r) {
    send_all(conns[r].get(), reply.data(), reply.size());
  }
  // Connections close as `conns` destructs; ranks have the table by then.
}

std::vector<Endpoint> client_rendezvous(const std::string& root_host,
                                        std::uint16_t root_port,
                                        const Handshake& mine,
                                        std::uint16_t data_port,
                                        double timeout_s) {
  Fd fd = tcp_connect(root_host, root_port, timeout_s);
  set_timeout(fd.get(), timeout_s);
  std::byte hello[kHandshakeBytes + 2];
  encode_handshake(mine, hello);
  put_u16(hello + kHandshakeBytes, data_port);
  send_all(fd.get(), hello, sizeof(hello));

  std::vector<std::byte> reply(mine.nranks * kEndpointBytes);
  recv_all(fd.get(), reply.data(), reply.size());
  std::vector<Endpoint> table(mine.nranks);
  for (std::uint32_t r = 0; r < mine.nranks; ++r) {
    table[r].ip = get_u32(reply.data() + r * kEndpointBytes);
    table[r].port = get_u16(reply.data() + r * kEndpointBytes + 4);
  }
  return table;
}

std::vector<Fd> mesh_wireup(const Handshake& mine, int data_listen_fd,
                            const std::vector<Endpoint>& table,
                            double timeout_s,
                            std::vector<ShmSegment>* shm) {
  const std::uint32_t nranks = mine.nranks;
  std::vector<Fd> peers(nranks);
  std::byte buf[kHandshakeBytes];
  if (shm != nullptr) {
    shm->clear();
    shm->resize(nranks);
  }

  // Outbound: connect to every lower rank, handshake first.
  for (std::uint32_t r = 0; r < mine.rank; ++r) {
    Fd fd = tcp_connect(ip_str(table[r].ip), table[r].port, timeout_s);
    set_timeout(fd.get(), timeout_s);
    set_nodelay(fd.get());
    Handshake hello = mine;
    ShmSegment seg = shm != nullptr ? ShmSegment::create(mine.rank, r)
                                    : ShmSegment{};
    hello.shm_offer = seg.offer();
    encode_handshake(hello, buf);
    send_all(fd.get(), buf, sizeof(buf));
    recv_all(fd.get(), buf, sizeof(buf));
    seg.unlink();  // the peer has mapped it or never will
    const Handshake h = decode_handshake(buf);
    const std::string err = handshake_check(mine, h);
    if (!err.empty()) {
      throw std::runtime_error("cxnet: mesh handshake with rank " +
                               std::to_string(r) + " failed: " + err);
    }
    if (h.rank != r) {
      throw std::runtime_error("cxnet: connected to rank " +
                               std::to_string(r) + " but peer claims rank " +
                               std::to_string(h.rank));
    }
    if (seg && h.shm_offer == seg.offer()) (*shm)[r] = std::move(seg);
    peers[r] = std::move(fd);
  }

  // Inbound: accept from every higher rank; its handshake identifies it.
  for (std::uint32_t n = mine.rank + 1; n < nranks; ++n) {
    std::string peer_ip;
    Fd fd = accept_conn(data_listen_fd, timeout_s, &peer_ip);
    set_timeout(fd.get(), timeout_s);
    set_nodelay(fd.get());
    recv_all(fd.get(), buf, sizeof(buf));
    const Handshake h = decode_handshake(buf);
    const std::string err = handshake_check(mine, h);
    if (!err.empty()) {
      throw std::runtime_error("cxnet: mesh handshake from " + peer_ip +
                               " rejected: " + err);
    }
    if (h.rank <= mine.rank || h.rank >= nranks || peers[h.rank].valid()) {
      throw std::runtime_error("cxnet: unexpected mesh connection claiming "
                               "rank " +
                               std::to_string(h.rank) + " (from " + peer_ip +
                               ")");
    }
    Handshake reply = mine;
    ShmSegment seg = shm != nullptr && h.shm_offer != 0
                         ? ShmSegment::open(h.shm_offer, mine.rank, h.rank)
                         : ShmSegment{};
    reply.shm_offer = seg.offer();
    encode_handshake(reply, buf);
    send_all(fd.get(), buf, sizeof(buf));
    if (seg) (*shm)[h.rank] = std::move(seg);
    peers[h.rank] = std::move(fd);
  }
  return peers;
}

}  // namespace cxnet
