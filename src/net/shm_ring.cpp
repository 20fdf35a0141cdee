#include "net/shm_ring.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

namespace cxnet {

namespace {

constexpr std::uint64_t kSegMagic = 0x474e495258534d43ull;  // "CMSXRING"
constexpr std::size_t kMask = kRingBytes - 1;
static_assert((kRingBytes & kMask) == 0, "kRingBytes must be a power of two");

/// Segment layout: a header naming the pair, the two rings' control
/// words, then the two rings' bytes from the next page on. Ring 0
/// carries creator -> acceptor, ring 1 the other way.
struct SegHeader {
  std::uint64_t magic;
  std::uint64_t offer;
  std::uint32_t creator;
  std::uint32_t acceptor;
  std::uint32_t ring_bytes;
};
constexpr std::size_t kCtlOffset = 64;
constexpr std::size_t kDataOffset = 4096;
constexpr std::size_t kSegmentBytes = kDataOffset + 2 * kRingBytes;
static_assert(sizeof(SegHeader) <= kCtlOffset);
static_assert(kCtlOffset + 2 * sizeof(RingCtl) <= kDataOffset);

std::string shm_name(std::uint64_t offer) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "/charmx-%u-%08x",
                static_cast<unsigned>(offer >> 32),
                static_cast<unsigned>(offer & 0xffffffffu));
  return buf;
}

/// A fresh offer: this process's pid, then a nonce that differs per
/// call and per run.
std::uint64_t fresh_offer() {
  static std::atomic<std::uint32_t> calls{0};
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  std::uint32_t nonce = static_cast<std::uint32_t>(ns ^ (ns >> 32)) ^
                        (calls.fetch_add(1) * 0x9e3779b9u);
  return (static_cast<std::uint64_t>(::getpid()) << 32) | nonce;
}

template <typename T>
std::atomic_ref<T> at(T& word) {
  return std::atomic_ref<T>(word);
}

std::byte* map_fd(int fd) {
  void* p = ::mmap(nullptr, kSegmentBytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                   fd, 0);
  return p == MAP_FAILED ? nullptr : static_cast<std::byte*>(p);
}

}  // namespace

// ---- rings ----------------------------------------------------------------

std::ptrdiff_t RingTx::write(std::span<const std::byte> a,
                             std::span<const std::byte> b) {
  const std::ptrdiff_t room = space();
  if (room < 0) return -1;
  const std::size_t n =
      std::min(a.size() + b.size(), static_cast<std::size_t>(room));
  for (std::size_t done = 0; done < n;) {
    // The next source run (within a or b), up to the ring's wrap.
    const std::byte* src =
        done < a.size() ? a.data() + done : b.data() + (done - a.size());
    const std::size_t src_left =
        done < a.size() ? a.size() - done : a.size() + b.size() - done;
    const std::size_t pos = tail_ & kMask;
    const std::size_t run = std::min({n - done, src_left, kRingBytes - pos});
    std::memcpy(data_ + pos, src, run);
    tail_ += run;
    done += run;
  }
  if (n > 0) at(ctl_->tail).store(tail_, std::memory_order_release);
  return static_cast<std::ptrdiff_t>(n);
}

std::ptrdiff_t RingTx::space() const noexcept {
  const std::uint64_t used =
      tail_ - at(ctl_->head).load(std::memory_order_acquire);
  return used > kRingBytes ? -1
                           : static_cast<std::ptrdiff_t>(kRingBytes - used);
}

void RingTx::want_space() {
  at(ctl_->want_space).store(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

bool RingTx::claim_sleeper() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (at(ctl_->sleeping).load(std::memory_order_relaxed) == 0) return false;
  return at(ctl_->sleeping).exchange(0, std::memory_order_acq_rel) != 0;
}

std::ptrdiff_t RingRx::available() const noexcept {
  const std::uint64_t have =
      at(ctl_->tail).load(std::memory_order_acquire) - head_;
  return have > kRingBytes ? -1 : static_cast<std::ptrdiff_t>(have);
}

std::span<const std::byte> RingRx::peek(std::size_t n) const noexcept {
  const std::size_t pos = head_ & kMask;
  return {data_ + pos, std::min(n, kRingBytes - pos)};
}

void RingRx::copy_out(std::byte* dst, std::size_t n) const noexcept {
  const std::size_t pos = head_ & kMask;
  const std::size_t first = std::min(n, kRingBytes - pos);
  std::memcpy(dst, data_ + pos, first);
  std::memcpy(dst + first, data_, n - first);
}

bool RingRx::consume(std::size_t n) {
  head_ += n;
  at(ctl_->head).store(head_, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (at(ctl_->want_space).load(std::memory_order_relaxed) == 0) return false;
  return at(ctl_->want_space).exchange(0, std::memory_order_acq_rel) != 0;
}

void RingRx::set_sleeping(bool on) {
  at(ctl_->sleeping).store(on ? 1u : 0u, std::memory_order_relaxed);
  if (on) std::atomic_thread_fence(std::memory_order_seq_cst);
}

// ---- segment --------------------------------------------------------------

ShmSegment::~ShmSegment() { reset(); }

ShmSegment::ShmSegment(ShmSegment&& o) noexcept
    : base_(o.base_), offer_(o.offer_), creator_(o.creator_), named_(o.named_) {
  o.base_ = nullptr;
  o.named_ = false;
}

ShmSegment& ShmSegment::operator=(ShmSegment&& o) noexcept {
  if (this != &o) {
    reset();
    base_ = o.base_;
    offer_ = o.offer_;
    creator_ = o.creator_;
    named_ = o.named_;
    o.base_ = nullptr;
    o.named_ = false;
  }
  return *this;
}

void ShmSegment::reset() noexcept {
  unlink();
  if (base_ != nullptr) ::munmap(base_, kSegmentBytes);
  base_ = nullptr;
  offer_ = 0;
}

void ShmSegment::unlink() noexcept {
  if (!named_) return;
  named_ = false;
  ::shm_unlink(shm_name(offer_).c_str());  // ENOENT: the peer was first
}

ShmSegment ShmSegment::create(std::uint32_t me, std::uint32_t peer) {
  ShmSegment s;
  int fd = -1;
  for (int attempt = 0; attempt < 4 && fd < 0; ++attempt) {
    s.offer_ = fresh_offer();
    fd = ::shm_open(shm_name(s.offer_).c_str(), O_RDWR | O_CREAT | O_EXCL,
                    0600);
    if (fd < 0 && errno != EEXIST) return {};
  }
  if (fd < 0) return {};
  s.named_ = true;  // from here on, an early return unlinks the name
  s.creator_ = true;
  const bool reserved = ::posix_fallocate(fd, 0, kSegmentBytes) == 0;
  s.base_ = reserved ? map_fd(fd) : nullptr;
  ::close(fd);
  if (s.base_ == nullptr) return {};
  // The pages are zero (fresh from fallocate), so every ring index
  // starts at 0. The peer reads the header only after our handshake.
  const SegHeader h{kSegMagic, s.offer_, me, peer,
                    static_cast<std::uint32_t>(kRingBytes)};
  std::memcpy(s.base_, &h, sizeof(h));
  return s;
}

ShmSegment ShmSegment::open(std::uint64_t offer, std::uint32_t me,
                            std::uint32_t peer) {
  const std::string name = shm_name(offer);
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
  if (fd < 0) return {};
  struct stat st {};
  const bool sized = ::fstat(fd, &st) == 0 &&
                     static_cast<std::size_t>(st.st_size) == kSegmentBytes;
  ShmSegment s;
  s.base_ = sized ? map_fd(fd) : nullptr;
  ::close(fd);
  if (s.base_ == nullptr) return {};
  s.offer_ = offer;
  s.named_ = true;  // unlink as soon as it is mapped (or rejected)
  s.unlink();
  SegHeader h{};
  std::memcpy(&h, s.base_, sizeof(h));
  if (h.magic != kSegMagic || h.offer != offer || h.creator != peer ||
      h.acceptor != me || h.ring_bytes != kRingBytes) {
    return {};
  }
  return s;
}

RingCtl* ShmSegment::ctl(int dir) const noexcept {
  return reinterpret_cast<RingCtl*>(
      base_ + kCtlOffset + static_cast<std::size_t>(dir) * sizeof(RingCtl));
}

std::byte* ShmSegment::data(int dir) const noexcept {
  return base_ + kDataOffset + static_cast<std::size_t>(dir) * kRingBytes;
}

RingTx ShmSegment::tx() const noexcept {
  const int dir = creator_ ? 0 : 1;
  return base_ ? RingTx(ctl(dir), data(dir)) : RingTx();
}

RingRx ShmSegment::rx() const noexcept {
  const int dir = creator_ ? 1 : 0;
  return base_ ? RingRx(ctl(dir), data(dir)) : RingRx();
}

}  // namespace cxnet
