#include "model/value.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace cpy {

namespace {

using StrPtr = std::shared_ptr<const std::string>;
using BytesPtr = std::shared_ptr<const std::vector<std::byte>>;
using ProxyPtr = std::shared_ptr<const ProxyRef>;

[[noreturn]] void type_error(const std::string& what, Kind got) {
  throw std::runtime_error("TypeError: expected " + what + ", got " +
                           kind_name(got));
}

template <typename T>
void pup_ndbuffer(pup::Er& p, std::shared_ptr<NdBuffer<T>>& arr) {
  // Array fast path: shape metadata then one contiguous byte copy.
  if (p.unpacking()) arr = std::make_shared<NdBuffer<T>>();
  p | arr->shape;
  std::uint64_t n = arr->data.size();
  p | n;
  pup::check_count(p, n, sizeof(T));
  if (p.unpacking()) arr->data.resize(static_cast<std::size_t>(n));
  if (n != 0) {
    p.bytes(arr->data.data(), static_cast<std::size_t>(n) * sizeof(T));
  }
}

/// Immutable payloads: unpack into a fresh object and re-point; pack and
/// size read through the pointer (the traversal does not write then).
template <typename T>
void pup_immutable(pup::Er& p, std::shared_ptr<const T>& ptr) {
  if (p.unpacking()) {
    T fresh{};
    p | fresh;
    ptr = std::make_shared<const T>(std::move(fresh));
  } else {
    p | const_cast<T&>(*ptr);
  }
}

}  // namespace

const char* kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::None: return "None";
    case Kind::Bool: return "bool";
    case Kind::Int: return "int";
    case Kind::Real: return "float";
    case Kind::Str: return "str";
    case Kind::Bytes: return "bytes";
    case Kind::List: return "list";
    case Kind::Tuple: return "tuple";
    case Kind::Dict: return "dict";
    case Kind::F64Array: return "f64array";
    case Kind::I64Array: return "i64array";
    case Kind::Proxy: return "proxy";
  }
  return "?";
}

Value Value::zeros(std::uint64_t n) {
  auto buf = std::make_shared<NdBuffer<double>>();
  buf->data.assign(static_cast<std::size_t>(n), 0.0);
  buf->shape = {n};
  return Value(std::move(buf));
}

Value Value::array(std::vector<double> data) {
  auto buf = std::make_shared<NdBuffer<double>>();
  buf->shape = {data.size()};
  buf->data = std::move(data);
  return Value(std::move(buf));
}

Value Value::array(std::vector<double> data,
                   std::vector<std::uint64_t> shape) {
  auto buf = std::make_shared<NdBuffer<double>>();
  buf->data = std::move(data);
  buf->shape = std::move(shape);
  return Value(std::move(buf));
}

Value Value::iarray(std::vector<std::int64_t> data) {
  auto buf = std::make_shared<NdBuffer<std::int64_t>>();
  buf->shape = {data.size()};
  buf->data = std::move(data);
  return Value(std::move(buf));
}

Kind Value::kind() const noexcept {
  switch (v_.index()) {
    case 0: return Kind::None;
    case 1: return Kind::Bool;
    case 2: return Kind::Int;
    case 3: return Kind::Real;
    case 4: return Kind::Str;
    case 5: return Kind::Bytes;
    case 6:
      return std::get<std::shared_ptr<Boxed>>(v_)->is_tuple ? Kind::Tuple
                                                            : Kind::List;
    case 7: return Kind::Dict;
    case 8: return Kind::F64Array;
    case 9: return Kind::I64Array;
    case 10: return Kind::Proxy;
  }
  return Kind::None;
}

bool Value::as_bool() const {
  if (const auto* b = std::get_if<bool>(&v_)) return *b;
  type_error("bool", kind());
}

std::int64_t Value::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return *i;
  if (const auto* b = std::get_if<bool>(&v_)) return *b ? 1 : 0;
  type_error("int", kind());
}

double Value::as_real() const {
  if (const auto* d = std::get_if<double>(&v_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v_)) {
    return static_cast<double>(*i);
  }
  if (const auto* b = std::get_if<bool>(&v_)) return *b ? 1.0 : 0.0;
  type_error("float", kind());
}

const std::string& Value::as_str() const {
  if (const auto* s = std::get_if<StrPtr>(&v_)) return **s;
  type_error("str", kind());
}

const std::vector<std::byte>& Value::as_bytes() const {
  if (const auto* b = std::get_if<BytesPtr>(&v_)) return **b;
  type_error("bytes", kind());
}

const List& Value::as_list() const {
  if (const auto* b = std::get_if<std::shared_ptr<Boxed>>(&v_)) {
    return (*b)->items;
  }
  type_error("list", kind());
}

List& Value::as_list() {
  if (auto* b = std::get_if<std::shared_ptr<Boxed>>(&v_)) {
    return (*b)->items;
  }
  type_error("list", kind());
}

const Dict& Value::as_dict() const {
  if (const auto* d = std::get_if<std::shared_ptr<Dict>>(&v_)) return **d;
  type_error("dict", kind());
}

Dict& Value::as_dict() {
  if (auto* d = std::get_if<std::shared_ptr<Dict>>(&v_)) return **d;
  type_error("dict", kind());
}

const F64Array& Value::as_f64_array() const {
  if (const auto* a = std::get_if<F64Array>(&v_)) return *a;
  type_error("f64array", kind());
}

const I64Array& Value::as_i64_array() const {
  if (const auto* a = std::get_if<I64Array>(&v_)) return *a;
  type_error("i64array", kind());
}

const ProxyRef& Value::as_proxy() const {
  if (const auto* p = std::get_if<ProxyPtr>(&v_)) return **p;
  type_error("proxy", kind());
}

bool Value::truthy() const {
  switch (kind()) {
    case Kind::None: return false;
    case Kind::Bool: return std::get<bool>(v_);
    case Kind::Int: return std::get<std::int64_t>(v_) != 0;
    case Kind::Real: return std::get<double>(v_) != 0.0;
    case Kind::Str: return !as_str().empty();
    case Kind::Bytes: return !as_bytes().empty();
    case Kind::List:
    case Kind::Tuple:
    case Kind::Dict:
    case Kind::F64Array:
    case Kind::I64Array: return length() != 0;
    case Kind::Proxy: return true;
  }
  return false;
}

std::uint64_t Value::length() const {
  switch (kind()) {
    case Kind::Str: return as_str().size();
    case Kind::Bytes: return as_bytes().size();
    case Kind::List:
    case Kind::Tuple: return as_list().size();
    case Kind::Dict: return as_dict().size();
    case Kind::F64Array: return as_f64_array()->size();
    case Kind::I64Array: return as_i64_array()->size();
    default: type_error("sized value", kind());
  }
}

Value Value::item(const Value& key) const {
  switch (kind()) {
    case Kind::List:
    case Kind::Tuple: {
      std::int64_t i = key.as_int();
      const auto& xs = as_list();
      if (i < 0) i += static_cast<std::int64_t>(xs.size());
      if (i < 0 || i >= static_cast<std::int64_t>(xs.size())) {
        throw std::out_of_range("IndexError: list index out of range");
      }
      return xs[static_cast<std::size_t>(i)];
    }
    case Kind::Dict: {
      const auto& d = as_dict();
      const auto it = d.find(key.as_str());
      if (it == d.end()) {
        throw std::out_of_range("KeyError: " + key.as_str());
      }
      return it->second;
    }
    case Kind::F64Array: {
      const auto& a = *as_f64_array();
      std::int64_t i = key.as_int();
      if (i < 0) i += static_cast<std::int64_t>(a.size());
      if (i < 0 || i >= static_cast<std::int64_t>(a.size())) {
        throw std::out_of_range("IndexError: array index out of range");
      }
      return Value(a.data[static_cast<std::size_t>(i)]);
    }
    case Kind::I64Array: {
      const auto& a = *as_i64_array();
      std::int64_t i = key.as_int();
      if (i < 0) i += static_cast<std::int64_t>(a.size());
      if (i < 0 || i >= static_cast<std::int64_t>(a.size())) {
        throw std::out_of_range("IndexError: array index out of range");
      }
      return Value(a.data[static_cast<std::size_t>(i)]);
    }
    default: type_error("indexable value", kind());
  }
}

bool Value::equals(const Value& o) const {
  if (is_numeric() && o.is_numeric()) return as_real() == o.as_real();
  const Kind k = kind();
  if (k != o.kind()) return false;
  switch (k) {
    case Kind::None: return true;
    case Kind::Str: return as_str() == o.as_str();
    case Kind::Bytes: return as_bytes() == o.as_bytes();
    case Kind::List:
    case Kind::Tuple: {
      const auto& a = as_list();
      const auto& b = o.as_list();
      if (a.size() != b.size()) return false;
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (!a[i].equals(b[i])) return false;
      }
      return true;
    }
    case Kind::Dict: {
      const auto& a = as_dict();
      const auto& b = o.as_dict();
      if (a.size() != b.size()) return false;
      for (const auto& [key, val] : a) {
        const auto it = b.find(key);
        if (it == b.end() || !val.equals(it->second)) return false;
      }
      return true;
    }
    case Kind::F64Array: {
      const auto& a = *as_f64_array();
      const auto& b = *o.as_f64_array();
      return a.shape == b.shape && a.data == b.data;
    }
    case Kind::I64Array: {
      const auto& a = *as_i64_array();
      const auto& b = *o.as_i64_array();
      return a.shape == b.shape && a.data == b.data;
    }
    case Kind::Proxy: return as_proxy() == o.as_proxy();
    default: return false;
  }
}

int Value::compare(const Value& o) const {
  if (is_numeric() && o.is_numeric()) {
    const double a = as_real();
    const double b = o.as_real();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (kind() == Kind::Str && o.kind() == Kind::Str) {
    return as_str().compare(o.as_str()) < 0
               ? -1
               : (as_str() == o.as_str() ? 0 : 1);
  }
  // Lexicographic ordering for sequences (used by gather to sort
  // contributions by element index).
  const bool seq_a = kind() == Kind::List || kind() == Kind::Tuple;
  const bool seq_b = o.kind() == Kind::List || o.kind() == Kind::Tuple;
  if (seq_a && seq_b) {
    const auto& xs = as_list();
    const auto& ys = o.as_list();
    const std::size_t n = std::min(xs.size(), ys.size());
    for (std::size_t i = 0; i < n; ++i) {
      const int c = xs[i].compare(ys[i]);
      if (c != 0) return c;
    }
    return xs.size() < ys.size() ? -1 : (xs.size() > ys.size() ? 1 : 0);
  }
  throw std::runtime_error(std::string("TypeError: cannot order ") +
                           kind_name(kind()) + " and " +
                           kind_name(o.kind()));
}

std::string Value::repr() const {
  std::ostringstream os;
  switch (kind()) {
    case Kind::None: os << "None"; break;
    case Kind::Bool: os << (std::get<bool>(v_) ? "True" : "False"); break;
    case Kind::Int: os << std::get<std::int64_t>(v_); break;
    case Kind::Real: os << std::get<double>(v_); break;
    case Kind::Str: os << '\'' << as_str() << '\''; break;
    case Kind::Bytes:
      os << "b'<" << as_bytes().size() << " bytes>'";
      break;
    case Kind::List:
    case Kind::Tuple: {
      const bool tup = kind() == Kind::Tuple;
      os << (tup ? '(' : '[');
      const auto& xs = as_list();
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i) os << ", ";
        os << xs[i].repr();
      }
      os << (tup ? ')' : ']');
      break;
    }
    case Kind::Dict: {
      os << '{';
      bool first = true;
      for (const auto& [k, v] : as_dict()) {
        if (!first) os << ", ";
        first = false;
        os << '\'' << k << "': " << v.repr();
      }
      os << '}';
      break;
    }
    case Kind::F64Array:
      os << "array(f64, n=" << as_f64_array()->size() << ")";
      break;
    case Kind::I64Array:
      os << "array(i64, n=" << as_i64_array()->size() << ")";
      break;
    case Kind::Proxy:
      os << "<proxy " << as_proxy().cls
         << (as_proxy().is_element ? as_proxy().idx.to_string() : "[*]")
         << ">";
      break;
  }
  return os.str();
}

void Value::pup(pup::Er& p) {
  std::uint8_t tag =
      p.unpacking() ? 0 : static_cast<std::uint8_t>(v_.index());
  p | tag;
  if (p.unpacking()) {
    // Pointer kinds start empty and get their payload below; a Value
    // whose unpack throws is reset to None, never left half-made.
    switch (tag) {
      case 0: v_ = std::monostate{}; break;
      case 1: v_ = false; break;
      case 2: v_ = std::int64_t{0}; break;
      case 3: v_ = 0.0; break;
      case 4: v_ = StrPtr(); break;
      case 5: v_ = BytesPtr(); break;
      case 6: v_ = std::shared_ptr<Boxed>(); break;
      case 7: v_ = std::shared_ptr<Dict>(); break;
      case 8: v_ = F64Array(); break;
      case 9: v_ = I64Array(); break;
      case 10: v_ = ProxyPtr(); break;
      default: throw std::runtime_error("Value: corrupt tag");
    }
  }
  try {
    pup_payload(p);
  } catch (...) {
    if (p.unpacking()) v_ = std::monostate{};
    throw;
  }
}

void Value::pup_payload(pup::Er& p) {
  switch (v_.index()) {
    case 0: break;
    case 1: p | std::get<bool>(v_); break;
    case 2: p | std::get<std::int64_t>(v_); break;
    case 3: p | std::get<double>(v_); break;
    case 4: pup_immutable(p, std::get<StrPtr>(v_)); break;
    case 5: pup_immutable(p, std::get<BytesPtr>(v_)); break;
    case 6: {
      auto& b = std::get<std::shared_ptr<Boxed>>(v_);
      if (p.unpacking()) b = boxed({}, false);
      p | b->is_tuple;
      std::uint64_t n = b->items.size();
      p | n;
      pup::check_count(p, n, 1);  // an item is at least its tag
      if (p.unpacking()) b->items.resize(static_cast<std::size_t>(n));
      for (auto& e : b->items) e.pup(p);
      break;
    }
    case 7: {
      auto& d = std::get<std::shared_ptr<Dict>>(v_);
      if (p.unpacking()) d = std::make_shared<Dict>();
      std::uint64_t n = d->size();
      p | n;
      // An entry is at least a key length and a value tag.
      pup::check_count(p, n, sizeof(std::uint64_t) + 1);
      if (p.unpacking()) {
        for (std::uint64_t i = 0; i < n; ++i) {
          std::string k;
          p | k;
          Value v;
          v.pup(p);
          d->emplace(std::move(k), std::move(v));
        }
      } else {
        for (auto& [k, v] : *d) {
          std::string key = k;
          p | key;
          v.pup(p);
        }
      }
      break;
    }
    case 8: pup_ndbuffer(p, std::get<F64Array>(v_)); break;
    case 9: pup_ndbuffer(p, std::get<I64Array>(v_)); break;
    case 10: pup_immutable(p, std::get<ProxyPtr>(v_)); break;
  }
}

std::uint64_t Value::approx_bytes() const {
  switch (kind()) {
    case Kind::None: return 1;
    case Kind::Bool: return 2;
    case Kind::Int:
    case Kind::Real: return 9;
    case Kind::Str: return 9 + as_str().size();
    case Kind::Bytes: return 9 + as_bytes().size();
    case Kind::List:
    case Kind::Tuple: {
      std::uint64_t n = 10;
      for (const auto& e : as_list()) n += e.approx_bytes();
      return n;
    }
    case Kind::Dict: {
      std::uint64_t n = 10;
      for (const auto& [k, v] : as_dict()) n += 9 + k.size() + v.approx_bytes();
      return n;
    }
    case Kind::F64Array: return 20 + as_f64_array()->size() * 8;
    case Kind::I64Array: return 20 + as_i64_array()->size() * 8;
    case Kind::Proxy: return 40 + as_proxy().cls.size();
  }
  return 1;
}

}  // namespace cpy
