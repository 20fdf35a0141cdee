#include "model/dist_array.hpp"

#include <algorithm>
#include <stdexcept>

namespace cpy {

namespace {

// Chunk i holds global indexes [i*n/chunks, (i+1)*n/chunks).
std::int64_t chunk_lo(std::int64_t n, int chunks, int i) {
  return static_cast<std::int64_t>(i) * n / chunks;
}

void register_chunk_class() {
  static const bool once = [] {
    DClass cls("cpy.ArrayChunk");

    cls.def("__init__", {"n", "chunks"}, [](DChare& self, Args& a) {
      const std::int64_t n = a[0].as_int();
      const int chunks = static_cast<int>(a[1].as_int());
      const int me = static_cast<int>(
          self["thisIndex"].item(Value(0)).as_int());
      self["n"] = a[0];
      self["chunks"] = a[1];
      self["lo"] = Value(chunk_lo(n, chunks, me));
      const auto len = static_cast<std::uint64_t>(
          chunk_lo(n, chunks, me + 1) - chunk_lo(n, chunks, me));
      self["data"] = Value::zeros(len);
      return Value::none();
    });

    cls.def("fill", {"v"}, [](DChare& self, Args& a) {
      auto& d = self["data"].as_f64_array()->data;
      std::fill(d.begin(), d.end(), a[0].as_real());
      return Value::none();
    });

    cls.def("iota", {}, [](DChare& self, Args&) {
      auto& d = self["data"].as_f64_array()->data;
      const double lo = self["lo"].as_real();
      for (std::size_t i = 0; i < d.size(); ++i) {
        d[i] = lo + static_cast<double>(i);
      }
      return Value::none();
    });

    cls.def("scale", {"a"}, [](DChare& self, Args& a) {
      auto& d = self["data"].as_f64_array()->data;
      const double s = a[0].as_real();
      for (auto& x : d) x *= s;
      return Value::none();
    });

    // this += alpha * other: ask the peer chunk for its block, then
    // apply it on arrival (two dynamic methods, fully asynchronous).
    cls.def("axpy_request", {"peer", "alpha", "done"},
            [](DChare& self, Args& a) {
              auto peer = collection_from(a[0]);
              peer[self.this_index()].send(
                  "axpy_serve", {to_value(proxy_of(self)), a[1], a[2]});
              return Value::none();
            });
    cls.def("axpy_serve", {"requester", "alpha", "done"},
            [](DChare& self, Args& a) {
              element_from(a[0]).send("axpy_apply",
                                      {self["data"], a[1], a[2]});
              return Value::none();
            });
    cls.def("axpy_apply", {"block", "alpha", "done"},
            [](DChare& self, Args& a) {
              auto& d = self["data"].as_f64_array()->data;
              const auto& o = a[0].as_f64_array()->data;
              if (o.size() != d.size()) {
                throw std::runtime_error(
                    "DistArray: chunking mismatch in axpy");
              }
              const double alpha = a[1].as_real();
              for (std::size_t i = 0; i < d.size(); ++i) {
                d[i] += alpha * o[i];
              }
              self.barrier(DTarget::to_future(future_from(a[2]).slot()));
              return Value::none();
            });

    cls.def("reduce_sum", {"target"}, [](DChare& self, Args& a) {
      const auto& d = self["data"].as_f64_array()->data;
      double s = 0;
      for (double x : d) s += x;
      self.contribute_value(Value(s), "sum",
                            DTarget::to_future(future_from(a[0]).slot()));
      return Value::none();
    });
    cls.def("reduce_min", {"target"}, [](DChare& self, Args& a) {
      const auto& d = self["data"].as_f64_array()->data;
      double m = d.empty() ? 0.0 : d[0];
      for (double x : d) m = std::min(m, x);
      self.contribute_value(Value(m), "min",
                            DTarget::to_future(future_from(a[0]).slot()));
      return Value::none();
    });
    cls.def("reduce_max", {"target"}, [](DChare& self, Args& a) {
      const auto& d = self["data"].as_f64_array()->data;
      double m = d.empty() ? 0.0 : d[0];
      for (double x : d) m = std::max(m, x);
      self.contribute_value(Value(m), "max",
                            DTarget::to_future(future_from(a[0]).slot()));
      return Value::none();
    });

    // dot: pull the peer's block, multiply locally, reduce the partials.
    cls.def("dot_request", {"peer", "target"}, [](DChare& self, Args& a) {
      auto peer = collection_from(a[0]);
      peer[self.this_index()].send("dot_serve",
                                   {to_value(proxy_of(self)), a[1]});
      return Value::none();
    });
    cls.def("dot_serve", {"requester", "target"},
            [](DChare& self, Args& a) {
              element_from(a[0]).send("dot_apply", {self["data"], a[1]});
              return Value::none();
            });
    cls.def("dot_apply", {"block", "target"}, [](DChare& self, Args& a) {
      const auto& d = self["data"].as_f64_array()->data;
      const auto& o = a[0].as_f64_array()->data;
      if (o.size() != d.size()) {
        throw std::runtime_error("DistArray: chunking mismatch in dot");
      }
      double s = 0;
      for (std::size_t i = 0; i < d.size(); ++i) s += d[i] * o[i];
      self.contribute_value(Value(s), "sum",
                            DTarget::to_future(future_from(a[1]).slot()));
      return Value::none();
    });

    cls.def("get_at", {"index"}, [](DChare& self, Args& a) {
      const auto& d = self["data"].as_f64_array()->data;
      const auto local =
          static_cast<std::size_t>(a[0].as_int() - self["lo"].as_int());
      return Value(d.at(local));
    });
    cls.def("set_at", {"index", "v"}, [](DChare& self, Args& a) {
      auto& d = self["data"].as_f64_array()->data;
      const auto local =
          static_cast<std::size_t>(a[0].as_int() - self["lo"].as_int());
      d.at(local) = a[1].as_real();
      return Value::none();
    });

    cls.def("noop", {}, [](DChare&, Args&) { return Value::none(); });
    return true;
  }();
  (void)once;
}

}  // namespace

DistArray DistArray::create(std::int64_t n, int chunks) {
  if (n < 0 || chunks < 1) {
    throw std::invalid_argument("DistArray: need n >= 0 and chunks >= 1");
  }
  register_chunk_class();
  DistArray arr;
  arr.n_ = n;
  arr.chunks_ = chunks;
  arr.chunks_proxy_ = create_array("cpy.ArrayChunk", {chunks},
                                   {Value(n), Value(chunks)});
  return arr;
}

void DistArray::fill(double v) const {
  chunks_proxy_.broadcast("fill", {Value(v)});
}

void DistArray::iota() const { chunks_proxy_.broadcast("iota", {}); }

void DistArray::scale(double a) const {
  chunks_proxy_.broadcast("scale", {Value(a)});
}

cx::Future<void> DistArray::add_scaled(const DistArray& other,
                                       double alpha) const {
  if (other.n_ != n_ || other.chunks_ != chunks_) {
    throw std::invalid_argument("DistArray: layouts must match");
  }
  auto done = cx::make_future<Value>();
  chunks_proxy_.broadcast(
      "axpy_request",
      {to_value(other.chunks_proxy_), Value(alpha), to_value(done)});
  return cx::Future<void>(done.handle());
}

cx::Future<Value> DistArray::sum() const {
  auto f = cx::make_future<Value>();
  chunks_proxy_.broadcast("reduce_sum", {to_value(f)});
  return f;
}

cx::Future<Value> DistArray::min() const {
  auto f = cx::make_future<Value>();
  chunks_proxy_.broadcast("reduce_min", {to_value(f)});
  return f;
}

cx::Future<Value> DistArray::max() const {
  auto f = cx::make_future<Value>();
  chunks_proxy_.broadcast("reduce_max", {to_value(f)});
  return f;
}

cx::Future<Value> DistArray::dot(const DistArray& other) const {
  if (other.n_ != n_ || other.chunks_ != chunks_) {
    throw std::invalid_argument("DistArray: layouts must match");
  }
  auto f = cx::make_future<Value>();
  chunks_proxy_.broadcast("dot_request",
                          {to_value(other.chunks_proxy_), to_value(f)});
  return f;
}

namespace {
/// Chunk owning global index j under lo_i = floor(i*n/chunks).
int owner_chunk(std::int64_t j, std::int64_t n, int chunks) {
  int i = static_cast<int>(j * chunks / (n > 0 ? n : 1));
  while (i > 0 && j < chunk_lo(n, chunks, i)) --i;
  while (i + 1 < chunks && j >= chunk_lo(n, chunks, i + 1)) ++i;
  return i;
}
}  // namespace

cx::Future<Value> DistArray::get(std::int64_t index) const {
  const int chunk = owner_chunk(index, n_, chunks_);
  return chunks_proxy_[cx::Index(chunk)].call("get_at", {Value(index)});
}

void DistArray::set(std::int64_t index, double v) const {
  const int chunk = owner_chunk(index, n_, chunks_);
  chunks_proxy_[cx::Index(chunk)].send("set_at", {Value(index), Value(v)});
}

cx::Future<void> DistArray::sync() const {
  return chunks_proxy_.broadcast_done("noop", {});
}

}  // namespace cpy
