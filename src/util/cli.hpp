// Minimal command-line flag parsing for examples and bench harnesses.
//
// Supports "--name=value", "--name value", and bare "--flag" booleans.
// Unknown flags are an error (fail fast beats silently ignoring a typo
// in an experiment sweep). Positional arguments are collected in order.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sskel {

/// Whole-string base-10 integer within [lo, hi]: nullopt on an empty
/// string, trailing junk, strtoll saturation (ERANGE) or a value
/// outside the range. Shared by flag and spec-file parsing.
[[nodiscard]] std::optional<std::int64_t> parse_int_in(const std::string& text,
                                                       std::int64_t lo,
                                                       std::int64_t hi);

class CliArgs {
 public:
  /// Parses argv; exits with a message on malformed input.
  CliArgs(int argc, const char* const* argv,
          std::vector<std::string> known_flags);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  /// A present value must be a whole base-10 int64; anything else
  /// exits 2 with a message.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// Strict integer within [lo, hi]: nullopt when a present value is
  /// not a whole base-10 integer in that range, so the caller can
  /// print its own usage. An absent flag yields `fallback`.
  [[nodiscard]] std::optional<std::int64_t> get_int_in(
      const std::string& name, std::int64_t fallback, std::int64_t lo,
      std::int64_t hi) const;
  /// A present value must be a whole floating-point number (strtod
  /// syntax); empty text, trailing junk or overflow exits 2 with a
  /// message.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace sskel
