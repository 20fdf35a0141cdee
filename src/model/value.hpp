#pragma once
// cpy::Value — the dynamic value type of the model layer.
//
// Plays the role Python objects play in CharmPy: every argument of a
// dynamic entry method is a Value. Supported kinds mirror the paper's
// serialization discussion (§IV-B): scalars and strings ("built-in
// types"), lists/tuples/dicts ("pickled types"), and numeric arrays with
// contiguous buffers (the NumPy fast path — serialized by direct memcpy
// with shape metadata in the header, and shared by reference between
// same-process chares).
//
// Layout: 24 bytes (a std::variant of a 16-byte alternative plus its
// index). None/bool/int/float sit inline; every other kind is one
// shared pointer. Lists, tuples, dicts and arrays are shared and
// mutable, as in Python. Strings, bytes and proxies are immutable:
// they sit behind std::shared_ptr<const T>, only const references to
// them are handed out, and a Value is re-pointed rather than written
// through, so copies share the payload without copy-on-write and keep
// value semantics. Copying any Value is a refcount bump at most. The
// PUP encoding is the variant index as a one-byte tag followed by the
// payload, and does not depend on this layout.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/index.hpp"
#include "pup/pup.hpp"

namespace cpy {

class Value;

using List = std::vector<Value>;
using Dict = std::map<std::string, Value>;

/// Contiguous numeric array (the NumPy analogue). The buffer is shared:
/// copying a Value copies the reference, as in Python.
template <typename T>
struct NdBuffer {
  std::vector<T> data;
  std::vector<std::uint64_t> shape;

  [[nodiscard]] std::uint64_t size() const noexcept { return data.size(); }
};

using F64Array = std::shared_ptr<NdBuffer<double>>;
using I64Array = std::shared_ptr<NdBuffer<std::int64_t>>;

/// A chare proxy boxed as a dynamic value — proxies are first-class
/// arguments in the paper (§II-D). `is_element` distinguishes element
/// proxies from whole-collection proxies.
struct ProxyRef {
  std::uint32_t coll = 0xffffffffu;
  cx::Index idx;
  bool is_element = true;
  std::string cls;

  void pup(pup::Er& p) {
    p | coll;
    p | idx;
    p | is_element;
    p | cls;
  }
  bool operator==(const ProxyRef&) const = default;
};

enum class Kind : std::uint8_t {
  None = 0,
  Bool,
  Int,
  Real,
  Str,
  Bytes,
  List,
  Tuple,
  Dict,
  F64Array,
  I64Array,
  Proxy,
};

const char* kind_name(Kind k) noexcept;

class Value {
 public:
  Value() = default;  // None
  Value(bool b) : v_(b) {}
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : v_(i) {}
  Value(std::uint64_t i) : v_(static_cast<std::int64_t>(i)) {}
  Value(double d) : v_(d) {}
  Value(const char* s) : v_(std::make_shared<const std::string>(s)) {}
  Value(std::string s)
      : v_(std::make_shared<const std::string>(std::move(s))) {}
  Value(std::vector<std::byte> b)
      : v_(std::make_shared<const std::vector<std::byte>>(std::move(b))) {}
  Value(List l) : v_(boxed(std::move(l), /*tuple=*/false)) {}
  Value(Dict d) : v_(std::make_shared<Dict>(std::move(d))) {}
  Value(F64Array a) : v_(std::move(a)) {}
  Value(I64Array a) : v_(std::move(a)) {}
  Value(ProxyRef p) : v_(std::make_shared<const ProxyRef>(std::move(p))) {}

  static Value none() { return Value(); }
  static Value tuple(List items) {
    Value v;
    v.v_ = boxed(std::move(items), /*tuple=*/true);
    return v;
  }
  static Value list(List items) { return Value(std::move(items)); }
  static Value dict(Dict d) { return Value(std::move(d)); }

  /// Fresh numeric arrays.
  static Value zeros(std::uint64_t n);
  static Value array(std::vector<double> data);
  static Value array(std::vector<double> data,
                     std::vector<std::uint64_t> shape);
  static Value iarray(std::vector<std::int64_t> data);

  [[nodiscard]] Kind kind() const noexcept;
  [[nodiscard]] bool is_none() const noexcept {
    return kind() == Kind::None;
  }
  [[nodiscard]] bool is_numeric() const noexcept {
    const Kind k = kind();
    return k == Kind::Bool || k == Kind::Int || k == Kind::Real;
  }

  // --- accessors (throw TypeError-style std::runtime_error on mismatch) ---
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_real() const;  ///< int/bool coerce to double
  [[nodiscard]] const std::string& as_str() const;
  [[nodiscard]] const std::vector<std::byte>& as_bytes() const;
  [[nodiscard]] const List& as_list() const;  ///< list or tuple
  [[nodiscard]] List& as_list();
  [[nodiscard]] const Dict& as_dict() const;
  [[nodiscard]] Dict& as_dict();
  [[nodiscard]] const F64Array& as_f64_array() const;
  [[nodiscard]] const I64Array& as_i64_array() const;
  [[nodiscard]] const ProxyRef& as_proxy() const;

  /// Python truthiness: None/0/""/empty containers are false.
  [[nodiscard]] bool truthy() const;

  /// len(): strings, bytes, containers, arrays.
  [[nodiscard]] std::uint64_t length() const;

  /// Container / array element access (list index or dict key).
  [[nodiscard]] Value item(const Value& key) const;

  /// Structural equality (numeric kinds compare by value).
  [[nodiscard]] bool equals(const Value& o) const;

  /// Ordering for numeric and string kinds (throws otherwise).
  [[nodiscard]] int compare(const Value& o) const;

  /// Human-readable representation (repr-like, for tests/debugging).
  [[nodiscard]] std::string repr() const;

  /// Serialization with the array fast path (paper §IV-B).
  void pup(pup::Er& p);

  /// Approximate serialized size without a sizing pass (fast accounting).
  [[nodiscard]] std::uint64_t approx_bytes() const;

 private:
  void pup_payload(pup::Er& p);

  struct Boxed {  // list or tuple
    List items;
    bool is_tuple = false;
  };
  static std::shared_ptr<Boxed> boxed(List items, bool tuple) {
    auto b = std::make_shared<Boxed>();
    b->items = std::move(items);
    b->is_tuple = tuple;
    return b;
  }

  // The alternative's index is the PUP tag: keep the order.
  using Storage =
      std::variant<std::monostate, bool, std::int64_t, double,
                   std::shared_ptr<const std::string>,
                   std::shared_ptr<const std::vector<std::byte>>,
                   std::shared_ptr<Boxed>, std::shared_ptr<Dict>, F64Array,
                   I64Array, std::shared_ptr<const ProxyRef>>;
  Storage v_;
};

static_assert(sizeof(Value) <= 24,
              "cpy::Value keeps only scalars inline; box the new kind");

/// Argument pack of a dynamic entry method.
using Args = std::vector<Value>;

}  // namespace cpy
