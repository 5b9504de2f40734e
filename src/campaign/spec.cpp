#include "campaign/spec.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "adversary/crash.hpp"
#include "adversary/rotating.hpp"
#include "util/cli.hpp"
#include "util/decode.hpp"

namespace sskel {

namespace {

[[nodiscard]] std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && (std::isspace(static_cast<unsigned char>(s[begin])) !=
                         0)) {
    ++begin;
  }
  while (end > begin &&
         (std::isspace(static_cast<unsigned char>(s[end - 1])) != 0)) {
    --end;
  }
  return s.substr(begin, end - begin);
}

/// Inclusive value range of the integer type an attribute lands in.
struct IntRange {
  std::int64_t lo;
  std::int64_t hi;
};

template <typename T>
constexpr IntRange kRangeOf{std::numeric_limits<T>::min(),
                            std::numeric_limits<T>::max()};

/// Process counts are capped like the trace decoder's, so a
/// violation artifact written by the campaign decodes again (and a
/// partition's blocks are built at parse time, O(n) each).
constexpr IntRange kUniverseRange{
    0, static_cast<std::int64_t>(kMaxDecodeUniverse)};

/// key=value attributes of a `job =` line, after the scenario word.
class Attrs {
 public:
  [[nodiscard]] bool parse(const std::string& text, std::string& error) {
    std::istringstream in(text);
    std::string token;
    while (in >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
        error = "malformed attribute '" + token + "' (want key=value)";
        return false;
      }
      values_[token.substr(0, eq)] = token.substr(eq + 1);
    }
    return true;
  }

  /// `range` is the destination type's (or kUniverseRange): semantic
  /// bounds are the caller's to check, after the value is known to fit.
  [[nodiscard]] bool get_int(const std::string& key, std::int64_t fallback,
                             IntRange range, std::int64_t& out,
                             std::string& error) {
    auto it = values_.find(key);
    if (it == values_.end()) {
      out = fallback;
      return true;
    }
    consumed_.insert(it->first);
    const std::optional<std::int64_t> value =
        parse_int_in(it->second, range.lo, range.hi);
    if (!value.has_value()) {
      error = "attribute '" + key + "' is not an integer in [" +
              std::to_string(range.lo) + ", " + std::to_string(range.hi) +
              "]: " + it->second;
      return false;
    }
    out = *value;
    return true;
  }

  [[nodiscard]] bool get_uint(const std::string& key, std::uint64_t fallback,
                              std::uint64_t& out, std::string& error) {
    auto it = values_.find(key);
    if (it == values_.end()) {
      out = fallback;
      return true;
    }
    consumed_.insert(it->first);
    char* end = nullptr;
    errno = 0;
    out = std::strtoull(it->second.c_str(), &end, 10);
    // strtoull accepts and negates a leading '-'; a seed never has one.
    if (end == it->second.c_str() || *end != '\0' || errno == ERANGE ||
        it->second.find('-') != std::string::npos) {
      error = "attribute '" + key + "' is not an unsigned 64-bit integer: " +
              it->second;
      return false;
    }
    return true;
  }

  [[nodiscard]] bool get_probability(const std::string& key,
                                     double fallback, double& out,
                                     std::string& error) {
    auto it = values_.find(key);
    if (it == values_.end()) {
      out = fallback;
      return true;
    }
    consumed_.insert(it->first);
    char* end = nullptr;
    out = std::strtod(it->second.c_str(), &end);
    // The negated test also rejects NaN.
    if (end == it->second.c_str() || *end != '\0' ||
        !(out >= 0.0 && out <= 1.0)) {
      error = "attribute '" + key + "' is not a probability in [0, 1]: " +
              it->second;
      return false;
    }
    return true;
  }

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    consumed_.insert(it->first);
    return it->second;
  }

  /// Unknown attributes are typos in a sweep config — fail fast.
  [[nodiscard]] bool check_consumed(std::string& error) const {
    for (const auto& [key, value] : values_) {
      if (consumed_.count(key) == 0) {
        error = "unknown attribute '" + key + "'";
        return false;
      }
    }
    return true;
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> consumed_;
};

[[nodiscard]] bool parse_bool_value(const std::string& value, bool& out) {
  if (value == "1" || value == "true") {
    out = true;
    return true;
  }
  if (value == "0" || value == "false") {
    out = false;
    return true;
  }
  return false;
}

[[nodiscard]] bool parse_job(const std::string& value, CampaignJob& job,
                             std::string& error) {
  std::istringstream in(value);
  std::string kind;
  if (!(in >> kind)) {
    error = "job line missing scenario kind";
    return false;
  }
  std::string rest;
  std::getline(in, rest);

  Attrs attrs;
  if (!attrs.parse(rest, error)) return false;

  std::int64_t trials = 0;
  std::uint64_t seed = 0;
  if (!attrs.get_int("trials", 0, kRangeOf<std::int64_t>, trials, error) ||
      !attrs.get_uint("seed", 0, seed, error)) {
    return false;
  }
  if (trials <= 0) {
    error = "job needs trials > 0";
    return false;
  }
  job.master_seed = seed;
  job.trials = trials;
  job.name = attrs.get_string("name", kind);

  if (kind == "partition") {
    std::int64_t n = 0;
    std::int64_t m = 0;
    double noise = 0.0;
    std::int64_t stabilize = 1;
    if (!attrs.get_int("n", 4, kUniverseRange, n, error) ||
        !attrs.get_int("m", 2, kRangeOf<int>, m, error) ||
        !attrs.get_probability("noise", 0.0, noise, error) ||
        !attrs.get_int("stabilize", 1, kRangeOf<Round>, stabilize, error)) {
      return false;
    }
    if (n < 1 || m < 1 || m > n || stabilize < 1) {
      error = "partition needs 1 <= m <= n and stabilize >= 1";
      return false;
    }
    PartitionParams params;
    params.blocks = even_blocks(static_cast<ProcId>(n), static_cast<int>(m));
    params.cross_noise_probability = noise;
    params.stabilization_round = static_cast<Round>(stabilize);
    job.scenario = std::make_shared<PartitionScenario>(std::move(params));
  } else if (kind == "random-psrcs") {
    std::int64_t n = 0;
    std::int64_t k = 0;
    std::int64_t roots = 0;
    std::int64_t maxcore = 0;
    double noise = 0.0;
    std::int64_t stabilize = 1;
    if (!attrs.get_int("n", 8, kUniverseRange, n, error) ||
        !attrs.get_int("k", 2, kRangeOf<int>, k, error) ||
        !attrs.get_int("roots", 2, kRangeOf<int>, roots, error) ||
        !attrs.get_int("maxcore", 3, kRangeOf<int>, maxcore, error) ||
        !attrs.get_probability("noise", 0.25, noise, error) ||
        !attrs.get_int("stabilize", 1, kRangeOf<Round>, stabilize, error)) {
      return false;
    }
    if (n < 1 || k < 1 || roots < 1 || roots > k || roots > n ||
        maxcore < 1 || stabilize < 1) {
      error =
          "random-psrcs needs n,k,maxcore >= 1 and 1 <= roots <= min(k, n)";
      return false;
    }
    RandomPsrcsParams params;
    params.n = static_cast<ProcId>(n);
    params.k = static_cast<int>(k);
    params.root_components = static_cast<int>(roots);
    params.max_core_size = static_cast<int>(maxcore);
    params.noise_probability = noise;
    params.stabilization_round = static_cast<Round>(stabilize);
    job.scenario = std::make_shared<RandomPsrcsScenario>(params);
  } else if (kind == "crash") {
    std::int64_t n = 0;
    std::int64_t crashes = 0;
    std::int64_t maxcrash = 0;
    if (!attrs.get_int("n", 5, kUniverseRange, n, error) ||
        !attrs.get_int("crashes", 1, kRangeOf<int>, crashes, error) ||
        !attrs.get_int("maxcrash", 3, kRangeOf<Round>, maxcrash, error)) {
      return false;
    }
    if (n < 1 || crashes < 0 || crashes >= n || maxcrash < 1) {
      error = "crash needs 0 <= crashes < n and maxcrash >= 1";
      return false;
    }
    job.scenario = std::make_shared<CrashScenario>(
        static_cast<ProcId>(n), static_cast<int>(crashes),
        static_cast<Round>(maxcrash));
  } else if (kind == "rotating") {
    std::int64_t n = 0;
    std::int64_t hold = 0;
    if (!attrs.get_int("n", 4, kUniverseRange, n, error) ||
        !attrs.get_int("hold", 1, kRangeOf<Round>, hold, error)) {
      return false;
    }
    if (n < 1 || hold < 1) {
      error = "rotating needs n >= 1 and hold >= 1";
      return false;
    }
    job.scenario = std::make_shared<RotatingScenario>(
        static_cast<ProcId>(n), static_cast<Round>(hold));
  } else {
    error = "unknown scenario kind '" + kind + "'";
    return false;
  }
  return attrs.check_consumed(error);
}

}  // namespace

SpecParseResult parse_campaign_spec(const std::string& text) {
  SpecParseResult result;
  CampaignSpec spec;

  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    const std::string line =
        trim(hash == std::string::npos ? raw : raw.substr(0, hash));
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      result.error = "expected 'key = value'";
      result.line = line_no;
      return result;
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    std::string error;

    if (key == "job") {
      CampaignJob job;
      if (!parse_job(value, job, error)) {
        result.error = error;
        result.line = line_no;
        return result;
      }
      spec.jobs.push_back(std::move(job));
    } else if (key == "k") {
      const std::optional<std::int64_t> k =
          parse_int_in(value, 1, kRangeOf<int>.hi);
      if (!k.has_value()) {
        result.error = "k must be an integer in [1, " +
                       std::to_string(kRangeOf<int>.hi) + "]";
        result.line = line_no;
        return result;
      }
      spec.config.k = static_cast<int>(*k);
    } else if (key == "guard") {
      if (value == "after-round-n") {
        spec.config.guard = DecisionGuard::kAfterRoundN;
      } else if (value == "at-round-n") {
        spec.config.guard = DecisionGuard::kAtRoundN;
      } else {
        result.error = "guard must be after-round-n or at-round-n";
        result.line = line_no;
        return result;
      }
    } else if (key == "max_rounds") {
      const std::optional<std::int64_t> rounds =
          parse_int_in(value, 0, kRangeOf<Round>.hi);
      if (!rounds.has_value()) {
        result.error = "max_rounds must be an integer in [0, " +
                       std::to_string(kRangeOf<Round>.hi) +
                       "] (0 = automatic)";
        result.line = line_no;
        return result;
      }
      spec.config.max_rounds = static_cast<Round>(*rounds);
    } else if (key == "tail_rounds") {
      const std::optional<std::int64_t> rounds =
          parse_int_in(value, 0, kRangeOf<Round>.hi);
      if (!rounds.has_value()) {
        result.error = "tail_rounds must be an integer in [0, " +
                       std::to_string(kRangeOf<Round>.hi) + "]";
        result.line = line_no;
        return result;
      }
      spec.config.tail_rounds = static_cast<Round>(*rounds);
    } else if (key == "measure_bytes") {
      if (!parse_bool_value(value, spec.config.measure_bytes)) {
        result.error = "measure_bytes must be 0/1/true/false";
        result.line = line_no;
        return result;
      }
    } else if (key == "lemma_monitor") {
      if (!parse_bool_value(value, spec.config.attach_lemma_monitor)) {
        result.error = "lemma_monitor must be 0/1/true/false";
        result.line = line_no;
        return result;
      }
    } else {
      result.error = "unknown config key '" + key + "'";
      result.line = line_no;
      return result;
    }
  }

  if (spec.jobs.empty()) {
    result.error = "spec has no jobs";
    result.line = 0;
    return result;
  }
  result.spec = std::move(spec);
  return result;
}

}  // namespace sskel
