#pragma once
// PUP — pack/unpack serialization framework, modeled on Charm++'s PUP.
//
// One traversal function serves sizing, packing and unpacking:
//
//   struct Particle {
//     double x, y, z;
//     std::vector<int> bonds;
//     void pup(pup::Er& p) { p | x; p | y; p | z; p | bonds; }
//   };
//
//   auto bytes = pup::to_bytes(particle);          // size + pack
//   Particle q = pup::from_bytes<Particle>(bytes); // unpack
//
// Supported out of the box: arithmetic types and enums, std::string,
// std::vector, std::array, std::pair, std::tuple, std::map,
// std::unordered_map, std::set, std::optional, and any type with a
// `void pup(pup::Er&)` member. Contiguous trivially-copyable vectors
// are packed with a single memcpy (the NumPy-array fast path of the
// paper's serialization layer builds on this). Unpacking checks every
// element count read off the wire against the bytes left before it
// allocates (check_count), so a corrupt or hostile buffer throws
// std::length_error instead of asking for terabytes.
//
// Wire format caveat: fields are packed host-endian and host-width
// (raw memcpy, no swapping). Within one process that is invisible; the
// multi-process socket backend guards it with a connection
// handshake (src/net/frame.hpp) that rejects peers whose endianness or
// primitive widths differ, so mismatched hosts fail loudly at wireup
// instead of silently mis-decoding payloads.

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pup {

enum class Mode { Sizing, Packing, Unpacking };

/// Abstract pup-er. Subclasses implement raw byte traversal.
class Er {
 public:
  virtual ~Er() = default;

  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] bool sizing() const noexcept { return mode_ == Mode::Sizing; }
  [[nodiscard]] bool packing() const noexcept {
    return mode_ == Mode::Packing;
  }
  [[nodiscard]] bool unpacking() const noexcept {
    return mode_ == Mode::Unpacking;
  }

  /// Traverse `n` raw bytes at `p` (read on pack, write on unpack).
  virtual void bytes(void* p, std::size_t n) = 0;

  /// Bytes left to read when unpacking; unbounded otherwise.
  [[nodiscard]] virtual std::size_t remaining() const noexcept {
    return std::numeric_limits<std::size_t>::max();
  }

 protected:
  explicit Er(Mode m) : mode_(m) {}

 private:
  Mode mode_;
};

/// Pass one: compute the packed size.
class Sizer final : public Er {
 public:
  Sizer() : Er(Mode::Sizing) {}
  void bytes(void*, std::size_t n) override { size_ += n; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Pass two: copy into a caller-provided buffer.
class Packer final : public Er {
 public:
  Packer(void* buf, std::size_t cap)
      : Er(Mode::Packing), buf_(static_cast<std::byte*>(buf)), cap_(cap) {}
  void bytes(void* p, std::size_t n) override {
    if (off_ + n > cap_) throw std::length_error("pup::Packer overflow");
    std::memcpy(buf_ + off_, p, n);
    off_ += n;
  }
  [[nodiscard]] std::size_t offset() const noexcept { return off_; }

 private:
  std::byte* buf_;
  std::size_t cap_;
  std::size_t off_ = 0;
};

/// Reverse pass: read fields back out of a buffer.
class Unpacker final : public Er {
 public:
  Unpacker(const void* buf, std::size_t len)
      : Er(Mode::Unpacking),
        buf_(static_cast<const std::byte*>(buf)),
        len_(len) {}
  void bytes(void* p, std::size_t n) override {
    if (off_ + n > len_) throw std::length_error("pup::Unpacker underflow");
    std::memcpy(p, buf_ + off_, n);
    off_ += n;
  }
  [[nodiscard]] std::size_t offset() const noexcept { return off_; }
  [[nodiscard]] std::size_t remaining() const noexcept override {
    return len_ - off_;
  }

 private:
  const std::byte* buf_;
  std::size_t len_;
  std::size_t off_ = 0;
};

/// Unpacking guard for a count read off the wire: throws
/// std::length_error unless `n` elements of at least `min_bytes` encoded
/// bytes each fit in what is left to read, so a corrupt or hostile count
/// fails before anything is allocated for it.
inline void check_count(const Er& p, std::uint64_t n, std::size_t min_bytes) {
  if (p.unpacking() && n > p.remaining() / min_bytes) {
    throw std::length_error("pup: count exceeds the remaining bytes");
  }
}

// ---------------------------------------------------------------------------
// Dispatch

template <typename T>
concept HasMemberPup = requires(T& t, Er& p) { t.pup(p); };

template <typename T>
concept TriviallyPuppable =
    (std::is_arithmetic_v<T> || std::is_enum_v<T>)&&!HasMemberPup<T>;

template <TriviallyPuppable T>
inline void operator|(Er& p, T& t) {
  p.bytes(&t, sizeof(T));
}

template <HasMemberPup T>
inline void operator|(Er& p, T& t) {
  t.pup(p);
}

inline void operator|(Er& p, std::string& s) {
  std::uint64_t n = s.size();
  p | n;
  check_count(p, n, 1);
  if (p.unpacking()) s.resize(static_cast<std::size_t>(n));
  if (n) p.bytes(s.data(), static_cast<std::size_t>(n));
}

template <typename T>
inline void operator|(Er& p, std::vector<T>& v) {
  constexpr bool kRaw = std::is_trivially_copyable_v<T> && !HasMemberPup<T>;
  std::uint64_t n = v.size();
  p | n;
  check_count(p, n, kRaw ? sizeof(T) : 1);
  if (p.unpacking()) v.resize(static_cast<std::size_t>(n));
  if constexpr (kRaw) {
    if (n) p.bytes(v.data(), static_cast<std::size_t>(n) * sizeof(T));
  } else {
    for (auto& e : v) p | e;
  }
}

inline void operator|(Er& p, std::vector<bool>& v) {
  std::uint64_t n = v.size();
  p | n;
  check_count(p, n, 1);
  if (p.unpacking()) v.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::uint8_t b = p.unpacking() ? 0 : static_cast<std::uint8_t>(v[i]);
    p | b;
    if (p.unpacking()) v[i] = (b != 0);
  }
}

template <typename T, std::size_t N>
inline void operator|(Er& p, std::array<T, N>& a) {
  if constexpr (std::is_trivially_copyable_v<T> && !HasMemberPup<T>) {
    p.bytes(a.data(), N * sizeof(T));
  } else {
    for (auto& e : a) p | e;
  }
}

template <typename A, typename B>
inline void operator|(Er& p, std::pair<A, B>& pr) {
  p | pr.first;
  p | pr.second;
}

template <typename... Ts>
inline void operator|(Er& p, std::tuple<Ts...>& t) {
  std::apply([&p](auto&... es) { ((p | es), ...); }, t);
}

template <typename T>
inline void operator|(Er& p, std::optional<T>& o) {
  std::uint8_t has = o.has_value() ? 1 : 0;
  p | has;
  if (p.unpacking()) {
    if (has) {
      o.emplace();
      p | *o;
    } else {
      o.reset();
    }
  } else if (has) {
    p | *o;
  }
}

template <typename K, typename V, typename C, typename A>
inline void operator|(Er& p, std::map<K, V, C, A>& m) {
  std::uint64_t n = m.size();
  p | n;
  if (p.unpacking()) {
    m.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      std::pair<K, V> kv;
      p | kv;
      m.emplace(std::move(kv.first), std::move(kv.second));
    }
  } else {
    for (auto& kv : m) {
      K k = kv.first;  // keys are const in-place; copy for traversal
      p | k;
      p | kv.second;
    }
  }
}

template <typename K, typename V, typename H, typename E, typename A>
inline void operator|(Er& p, std::unordered_map<K, V, H, E, A>& m) {
  std::uint64_t n = m.size();
  p | n;
  if (p.unpacking()) {
    check_count(p, n, 1);
    m.clear();
    m.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      std::pair<K, V> kv;
      p | kv;
      m.emplace(std::move(kv.first), std::move(kv.second));
    }
  } else {
    for (auto& kv : m) {
      K k = kv.first;
      p | k;
      p | kv.second;
    }
  }
}

template <typename K, typename C, typename A>
inline void operator|(Er& p, std::set<K, C, A>& s) {
  std::uint64_t n = s.size();
  p | n;
  if (p.unpacking()) {
    s.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      K k;
      p | k;
      s.insert(std::move(k));
    }
  } else {
    for (const auto& e : s) {
      K k = e;
      p | k;
    }
  }
}

// ---------------------------------------------------------------------------
// Convenience entry points

/// Packed size of `t`.
template <typename T>
std::size_t size_of(T& t) {
  Sizer s;
  s | t;
  return s.size();
}

/// Serialize `t` to a fresh byte buffer.
template <typename T>
std::vector<std::byte> to_bytes(T& t) {
  Sizer s;
  s | t;
  std::vector<std::byte> buf(s.size());
  Packer pk(buf.data(), buf.size());
  pk | t;
  return buf;
}

/// Deserialize a default-constructible `T` from any contiguous byte
/// container (std::vector<std::byte>, cx::wire::Buffer, ...).
template <typename T, typename Bytes>
T from_bytes(const Bytes& buf) {
  Unpacker u(buf.data(), buf.size());
  T t{};
  u | t;
  return t;
}

template <typename T>
T from_bytes(const void* data, std::size_t len) {
  Unpacker u(data, len);
  T t{};
  u | t;
  return t;
}

/// Serialize an argument pack into one buffer (used for entry methods).
template <typename... Ts>
std::vector<std::byte> pack_args(Ts&... ts) {
  Sizer s;
  ((s | ts), ...);
  std::vector<std::byte> buf(s.size());
  Packer pk(buf.data(), buf.size());
  ((pk | ts), ...);
  return buf;
}

}  // namespace pup
