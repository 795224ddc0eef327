// Generic walkers over a metrics struct's one field list.
//
// Each metrics struct lists its members once, in a static member
// visit_fields(f, objs...) that calls f(name, objs.member...) per member, in
// declaration order, for one or two objects. diff() and add() are the only
// code walking members, so a new member is one line in visit_fields
// (tests/test_fields.cpp fails until it is there).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/stats.hpp"

namespace aurora::fields {
namespace detail {

template <class T>
concept HasFields = requires(const T& t) {
  T::visit_fields([](const char*, const auto&) {}, t);
};

template <class T>
void diff_at(const std::string& path, const T& a, const T& b,
             std::vector<std::string>& out) {
  if constexpr (HasFields<T>) {
    T::visit_fields(
        [&](const char* name, const auto& x, const auto& y) {
          diff_at(path.empty() ? std::string(name) : path + "." + name, x, y,
                  out);
        },
        a, b);
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (a != b) out.push_back(path + ": text differs");
  } else if constexpr (std::is_same_v<T, Histogram>) {
    diff_at(path + ".total", a.total(), b.total(), out);
    diff_at(path + ".buckets", a.num_buckets(), b.num_buckets(), out);
    for (std::size_t i = 0; i < std::min(a.num_buckets(), b.num_buckets());
         ++i) {
      diff_at(path + ".bucket[" + std::to_string(i) + "]", a.bucket_count(i),
              b.bucket_count(i), out);
    }
  } else if constexpr (std::is_same_v<T, CounterSet>) {
    // sim.cycles_skipped is scheduler work (how far fast-forward jumped),
    // not modelled behaviour.
    auto ca = a.all();
    auto cb = b.all();
    ca.erase("sim.cycles_skipped");
    cb.erase("sim.cycles_skipped");
    for (const auto& [name, value] : ca) {
      if (!cb.contains(name)) {
        out.push_back(path + "[" + name + "]: present only in first");
      }
    }
    for (const auto& [name, value] : cb) {
      if (!ca.contains(name)) {
        out.push_back(path + "[" + name + "]: present only in second");
      } else {
        diff_at(path + "[" + name + "]", ca.at(name), value, out);
      }
    }
  } else if constexpr (std::is_enum_v<T>) {
    diff_at(path, static_cast<std::underlying_type_t<T>>(a),
            static_cast<std::underlying_type_t<T>>(b), out);
  } else if constexpr (std::is_arithmetic_v<T>) {
    if (a == b) return;
    std::ostringstream os;
    // Unary plus prints bools and narrow integers as numbers; max_digits10
    // makes doubles that differ in the last bit print differently.
    os.precision(std::numeric_limits<double>::max_digits10);
    os << path << ": " << +a << " != " << +b;
    out.push_back(os.str());
  } else {  // std::array or std::vector
    diff_at(path + ".size", a.size(), b.size(), out);
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      diff_at(path + "[" + std::to_string(i) + "]", a[i], b[i], out);
    }
  }
}

}  // namespace detail

/// Exact member-by-member comparison: one "a.b[i].c: x != y" line per
/// mismatch, empty when bit-identical (doubles too: both sides run the same
/// deterministic arithmetic). Nested structs, std::array and std::vector
/// recurse; a size mismatch is its own ".size" line, then the common prefix
/// is compared. Histograms compare total, bucket count and buckets;
/// CounterSets compare both key sets, ignoring "sim.cycles_skipped"; text
/// gives "text differs"; enums print as integers.
template <class T>
[[nodiscard]] std::vector<std::string> diff(const T& a, const T& b) {
  std::vector<std::string> out;
  detail::diff_at(std::string(), a, b, out);
  return out;
}

/// a += b member by member: numbers add, Histograms and CounterSets merge,
/// text keeps b's value unless it is empty, nested structs and std::array
/// recurse.
template <class T>
void add(T& a, const T& b) {
  if constexpr (detail::HasFields<T>) {
    T::visit_fields([](const char*, auto& x, const auto& y) { add(x, y); }, a,
                    b);
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!b.empty()) a = b;
  } else if constexpr (std::is_same_v<T, Histogram> ||
                       std::is_same_v<T, CounterSet>) {
    a.merge(b);
  } else if constexpr (std::is_arithmetic_v<T>) {
    a += b;
  } else {  // std::array only: std::tuple_size rejects anything else
    for (std::size_t i = 0; i < std::tuple_size_v<T>; ++i) add(a[i], b[i]);
  }
}

}  // namespace aurora::fields
