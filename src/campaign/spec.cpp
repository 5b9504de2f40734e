#include "campaign/spec.hpp"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>

#include "util/cli.hpp"
#include "util/decode.hpp"

namespace sskel {

namespace {

[[nodiscard]] std::string trim(const std::string& s) {
  const char* space = " \t\n\v\f\r";  // std::isspace in the C locale
  const std::size_t begin = s.find_first_not_of(space);
  if (begin == std::string::npos) return {};
  return s.substr(begin, s.find_last_not_of(space) - begin + 1);
}

/// key=value attributes of a `job =` line, after the scenario word.
/// Reading a key removes it, so whatever is left at the end is unknown.
using Attrs = std::map<std::string, std::string>;

[[nodiscard]] std::string parse_attrs(const std::string& text, Attrs& attrs) {
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
      return "malformed attribute '" + token + "' (want key=value)";
    }
    // A repeated key is a sweep-config typo, not an override.
    if (!attrs.emplace(token.substr(0, eq), token.substr(eq + 1)).second) {
      return "duplicate attribute '" + token.substr(0, eq) + "'";
    }
  }
  return {};
}

[[nodiscard]] std::optional<std::string> take(Attrs& attrs,
                                              const std::string& key) {
  auto node = attrs.extract(key);
  if (node.empty()) return std::nullopt;
  return std::move(node.mapped());
}

[[nodiscard]] bool parse_number(const std::string& text, std::int64_t& out) {
  const std::optional<std::int64_t> value =
      parse_int_in(text, std::numeric_limits<std::int64_t>::min(),
                   std::numeric_limits<std::int64_t>::max());
  if (value.has_value()) out = *value;
  return value.has_value();
}

[[nodiscard]] bool parse_number(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0';
}

[[nodiscard]] bool parse_number(const std::string& text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text.c_str(), &end, 10);
  // strtoull accepts and negates a leading '-'; a seed never has one.
  return end != text.c_str() && *end == '\0' && errno != ERANGE &&
         text.find('-') == std::string::npos;
}

[[nodiscard]] bool parse_number(const std::string& text, bool& out) {
  out = text == "1" || text == "true";
  return out || text == "0" || text == "false";
}

/// Reads `field` from `text` (absent: the default) into `member` if it
/// lies in the field's range; an int reads as int64, so an
/// out-of-range value cannot wrap. Returns the error, empty on success.
template <typename T>
[[nodiscard]] std::string read_field(const ParamField& field,
                                     const std::optional<std::string>& text,
                                     T& member) {
  using Wide = std::conditional_t<std::is_same_v<T, int>, std::int64_t, T>;
  auto read = static_cast<Wide>(field.fallback);
  if (text.has_value() && !parse_number(*text, read)) {
    return std::string(field.key) + " is malformed: " + *text;
  }
  std::string error;
  field.check(static_cast<double>(read), error);
  if (error.empty()) member = static_cast<T>(read);
  return error;
}

/// Reads a table's fields (util/param_table.hpp) off a job line's
/// attributes. The first error sticks; the rules are validate()'s.
struct FieldReader {
  Attrs& attrs;
  /// Blocks the spec's partition jobs may still ask for.
  std::int64_t& blocks_left;
  std::string& error;

  template <typename T>
  void operator()(const ParamField& field, T& value) {
    if (error.empty()) {
      error = read_field(
          field, field.in_spec ? take(attrs, field.key) : std::nullopt, value);
    }
  }

  void operator()(const BlocksField& field, std::vector<ProcSet>& blocks) {
    std::int64_t n = 0;
    std::int64_t m = 0;
    (*this)(field.n, n);
    (*this)(field.m, m);
    if (!error.empty()) return;
    // Blocks are built at parse time, O(n) each: the spec's partition
    // jobs share the decoder's universe cap as a block budget.
    if (m > blocks_left) {
      error = "partition jobs ask for more than " +
              std::to_string(kMaxDecodeUniverse) + " blocks in total";
      return;
    }
    blocks_left -= m;
    field.check(n, m, error);
    if (error.empty()) {
      blocks = even_blocks(static_cast<ProcId>(n), static_cast<int>(m));
    }
  }

  void operator()(const ParamRule& /*rule*/, bool /*holds*/) const {}
};

/// A number as the spec writes it; doubles take the shortest form
/// strtod reads back exactly.
template <typename T>
[[nodiscard]] std::string number_text(T value) {
  if constexpr (std::is_floating_point_v<T>) {
    char text[32];
    return std::string(text,
                       std::to_chars(text, text + sizeof(text), value).ptr);
  } else {
    return std::to_string(value);
  }
}

/// Prints a table's spec fields in order as ` key=value` attributes.
struct FieldPrinter {
  std::string& out;

  template <typename T>
  void operator()(const ParamField& field, const T& value) const {
    if (field.in_spec) {
      out += ' ' + std::string(field.key) + '=' + number_text(value);
    }
  }

  void operator()(const BlocksField& field,
                  const std::vector<ProcSet>& blocks) const {
    (*this)(field.n, blocks.front().universe());
    (*this)(field.m, blocks.size());
  }

  void operator()(const ParamRule& /*rule*/, bool /*holds*/) const {}
};

/// The config keys except guard, as a table over KSetRunConfig.
template <typename Config, typename Visit>
void for_each_config_field(Config& config, Visit&& visit) {
  visit(ParamField{"k", 1, kMaxInt, 1}, config.k);
  visit(ParamField{"max_rounds", 0, kMaxInt, 0}, config.max_rounds);  // 0: auto
  visit(ParamField{"tail_rounds", 0, kMaxInt, 0}, config.tail_rounds);
  visit(ParamField{"measure_bytes", 0, 1, 0}, config.measure_bytes);
  visit(ParamField{"lemma_monitor", 0, 1, 0}, config.attach_lemma_monitor);
}

/// The attributes of every job line besides name and the scenario's.
template <typename Job, typename Visit>
void for_each_job_field(Job& job, Visit&& visit) {
  visit(ParamField{"seed", 0, 0x1p64, 0}, job.master_seed);
  visit(ParamField{"trials", 1, 0x1p63, 0}, job.trials);
}

/// Calls `visit(word, std::type_identity<Scenario>{})` for each
/// scenario kind a `job =` line can name, until one returns true.
/// NetScenario has no spec form.
template <typename Visit>
bool for_each_kind(Visit&& visit) {
  return visit("partition", std::type_identity<PartitionScenario>{}) ||
         visit("random-psrcs", std::type_identity<RandomPsrcsScenario>{}) ||
         visit("crash", std::type_identity<CrashScenario>{}) ||
         visit("rotating", std::type_identity<RotatingScenario>{});
}

/// Parses the text after `job =`; returns the error, empty on success.
[[nodiscard]] std::string parse_job(const std::string& value,
                                    std::int64_t& blocks_left,
                                    CampaignJob& job) {
  std::istringstream in(value);
  std::string word;
  if (!(in >> word)) return "job line missing scenario kind";
  std::string rest;
  std::getline(in, rest);

  Attrs attrs;
  std::string error = parse_attrs(rest, attrs);
  if (error.empty()) {
    for_each_job_field(job, FieldReader{attrs, blocks_left, error});
  }
  if (!error.empty()) return error;
  job.name = take(attrs, "name").value_or(word);
  const bool known = for_each_kind([&](const char* kind, auto scenario) {
    if (word != kind) return false;
    using Scenario = typename decltype(scenario)::type;
    typename Scenario::Params params;
    for_each_field(params, FieldReader{attrs, blocks_left, error});
    if (error.empty()) error = validate(params);
    if (error.empty()) job.scenario = std::make_shared<Scenario>(params);
    return true;
  });
  if (!known) return "unknown scenario kind '" + word + "'";
  if (error.empty() && !attrs.empty()) {
    // Unknown attributes are typos in a sweep config — fail fast.
    error = "unknown attribute '" + attrs.begin()->first + "'";
  }
  return error;
}

/// Applies one `key = value` config line; returns the error, empty on
/// success.
[[nodiscard]] std::string read_config(const std::string& key,
                                      const std::string& value,
                                      KSetRunConfig& config) {
  if (key == "guard") {
    if (value != "after-round-n" && value != "at-round-n") {
      return "guard must be after-round-n or at-round-n";
    }
    config.guard = value == "at-round-n" ? DecisionGuard::kAtRoundN
                                         : DecisionGuard::kAfterRoundN;
    return {};
  }
  std::string error = "unknown config key '" + key + "'";
  for_each_config_field(config, [&](const ParamField& field, auto& member) {
    if (key == field.key) error = read_field(field, value, member);
  });
  return error;
}

}  // namespace

SpecParseResult parse_campaign_spec(const std::string& text) {
  SpecParseResult result;
  CampaignSpec spec;
  std::int64_t blocks_left = kMaxDecodeUniverse;

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
    std::string error = "expected 'key = value'";
    if (eq != std::string::npos) {
      const std::string key = trim(line.substr(0, eq));
      const std::string value = trim(line.substr(eq + 1));
      if (key == "job") {
        error = parse_job(value, blocks_left, spec.jobs.emplace_back());
      } else {
        error = read_config(key, value, spec.config);
      }
    }
    if (!error.empty()) {
      result.error = std::move(error);
      result.line = line_no;
      return result;
    }
  }

  if (spec.jobs.empty()) {
    result.error = "spec has no jobs";
    return result;
  }
  result.spec = std::move(spec);
  return result;
}

std::optional<std::string> print_campaign_spec(const CampaignSpec& spec) {
  std::string out = std::string("guard = ") +
                    (spec.config.guard == DecisionGuard::kAtRoundN
                         ? "at-round-n\n"
                         : "after-round-n\n");
  for_each_config_field(spec.config, [&out](const ParamField& field,
                                           const auto& value) {
    out += std::string(field.key) + " = " + number_text(value) + '\n';
  });
  for (const CampaignJob& job : spec.jobs) {
    const bool known = for_each_kind([&](const char* kind, auto scenario) {
      using Scenario = typename decltype(scenario)::type;
      const auto* typed = dynamic_cast<const Scenario*>(job.scenario.get());
      if (typed == nullptr) return false;
      out += "job = " + std::string(kind) + " name=" + job.name;
      for_each_field(typed->params(), FieldPrinter{out});
      for_each_job_field(job, FieldPrinter{out});
      out += '\n';
      return true;
    });
    if (!known) return std::nullopt;
  }
  // Code can build what the grammar cannot say (code-only fields,
  // uneven blocks, a name with blanks, proposals): the text is the
  // spec's canonical form only if it reads back to the same identity.
  const SpecParseResult again = parse_campaign_spec(out);
  if (!again.spec.has_value() ||
      again.spec->fingerprint() != spec.fingerprint()) {
    return std::nullopt;
  }
  return out;
}

}  // namespace sskel
