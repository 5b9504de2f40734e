// Declared parameter tables: the vocabulary a graph family uses to say
// which parameter values it accepts.
//
// A params struct (RandomPsrcsParams, PartitionParams, CrashParams,
// RotatingParams) comes with one `for_each_field(params, visit)` next
// to it that hands the visitor each field's descriptor and member in
// fingerprint order, then each cross-field rule with whether it holds.
// The source constructors, the scenarios' preconditions and
// fingerprints, the campaign spec parser and printer, and `sskel run`
// all walk that table, so a value one accepts the others accept too.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/varint.hpp"

namespace sskel {

/// Set `error` to why a check failed: "key must be in [lo, hi], not
/// value", or `message`. They take scalars, not the descriptor, so a
/// passing check materializes none, and are cold, so the compiler moves
/// failure paths out of the inlined checks.
[[gnu::cold]] void set_range_error(std::string& error, const char* key,
                                   double lo, double hi, double value);
[[gnu::cold]] void set_error(std::string& error, const char* message);

/// A number field: spec key, inclusive range, spec default.
struct ParamField {
  const char* key;
  double lo;
  double hi;
  double fallback;
  /// False: only code sets the field; a spec always gets `fallback`.
  bool in_spec = true;

  /// If `error` is empty and `value` lies outside [lo, hi] (NaN does),
  /// sets `error` to why. Two inlined comparisons when it lies inside.
  void check(double value, std::string& error) const {
    if (error.empty() && !(value >= lo && value <= hi)) [[unlikely]] {
      set_range_error(error, key, lo, hi, value);
    }
  }
};

/// A cross-field rule, visited with whether it holds.
struct ParamRule {
  const char* message;

  /// If `error` is empty and the rule fails, sets `error` to why.
  void check(bool holds, std::string& error) const {
    if (error.empty() && !holds) set_error(error, message);
  }
};

inline constexpr double kMaxInt = std::numeric_limits<int>::max();

/// `P` is `Params` or `const Params`: one table serves reads and writes.
template <typename P, typename Params>
concept ParamsOf = std::same_as<std::remove_const_t<P>, Params>;

/// Empty iff every field lies in its range and every rule holds;
/// otherwise the first violation. When valid it is a few scalar
/// comparisons and one empty string: cheap enough to guard every
/// constructor.
template <typename Params>
[[nodiscard]] std::string validate(const Params& params) {
  std::string error;
  for_each_field(params, [&error](const auto& field, const auto& value) {
    field.check(value, error);
  });
  return error;
}

/// Sets the number field keyed `key` to `value` if it lies in the
/// field's range, so a value beyond the member's type is reported
/// rather than narrowed. Returns the error, empty on success.
template <typename Params>
[[nodiscard]] std::string set_field(Params& params, std::string_view key,
                                    double value) {
  std::string error = std::string("no field ") + std::string(key);
  for_each_field(params, [&](const auto& field, auto&& member) {
    if constexpr (std::is_same_v<decltype(field), const ParamField&>) {
      if (key != field.key) return;
      error.clear();
      field.check(value, error);
      if (error.empty()) {
        member = static_cast<std::remove_cvref_t<decltype(member)>>(value);
      }
    }
  });
  return error;
}

/// Fingerprint bytes of a field: integers as varints, doubles by their
/// exact bit pattern.
template <typename T>
void put_field(std::vector<std::uint8_t>& out, const T& value) {
  if constexpr (std::is_floating_point_v<T>) {
    put_varint(out, std::bit_cast<std::uint64_t>(value));
  } else {
    put_varint(out, static_cast<std::uint64_t>(value));
  }
}

}  // namespace sskel
