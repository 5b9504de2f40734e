#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace sskel {

namespace {
[[noreturn]] void usage_error(const std::string& program,
                              const std::string& message,
                              const std::vector<std::string>& known) {
  std::fprintf(stderr, "%s: %s\n", program.c_str(), message.c_str());
  if (!known.empty()) {
    std::fprintf(stderr, "known flags:");
    for (const auto& f : known) std::fprintf(stderr, " --%s", f.c_str());
    std::fprintf(stderr, "\n");
  }
  std::exit(2);
}
}  // namespace

std::optional<std::int64_t> parse_int_in(const std::string& text,
                                         std::int64_t lo, std::int64_t hi) {
  char* end = nullptr;
  errno = 0;
  const std::int64_t value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE || value < lo ||
      value > hi) {
    return std::nullopt;
  }
  return value;
}

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::vector<std::string> known_flags)
    : program_(argc > 0 ? argv[0] : "sskel") {
  auto is_known = [&](const std::string& name) {
    return std::find(known_flags.begin(), known_flags.end(), name) !=
           known_flags.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    std::string name;
    std::string value;
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else {
      name = body;
      // "--name value" form: consume the next token when it does not
      // itself look like a flag; otherwise treat as boolean "true".
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (!is_known(name)) usage_error(program_, "unknown flag --" + name,
                                     known_flags);
    values_[name] = std::move(value);
  }
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const std::optional<std::int64_t> value =
      get_int_in(name, fallback, std::numeric_limits<std::int64_t>::min(),
                 std::numeric_limits<std::int64_t>::max());
  if (!value.has_value()) {
    usage_error(program_, "--" + name + " expects an integer", {});
  }
  return *value;
}

std::optional<std::int64_t> CliArgs::get_int_in(const std::string& name,
                                                std::int64_t fallback,
                                                std::int64_t lo,
                                                std::int64_t hi) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_int_in(it->second, lo, hi);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace sskel
