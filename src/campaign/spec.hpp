// Text campaign specs for the sskel_campaign CLI and CI.
//
// A spec is a line-oriented config: `#` comments, blank lines
// ignored, `key = value` config entries, and one `job = <scenario>
// key=value...` line per sweep entry. Example:
//
//   # converged partition sweep
//   k = 2
//   guard = after-round-n
//   job = partition name=conv n=4 m=2 noise=0 stabilize=1 seed=42 trials=50000
//   job = random-psrcs name=rp n=6 k=2 roots=2 seed=7 trials=2000
//   job = crash name=cr n=5 crashes=1 maxcrash=3 seed=9 trials=2000
//   job = rotating name=rot n=4 hold=1 seed=3 trials=500
//
// Config keys: k, guard (after-round-n | at-round-n), max_rounds,
// tail_rounds, measure_bytes (0/1), lemma_monitor (0/1).
//
// Every job takes name (default: the kind word), seed (unsigned
// 64-bit, default 0) and trials (>= 1, required). The scenario
// attributes with their ranges and defaults, and the cross-field rules
// (random-psrcs roots <= min(k, n), crash crashes < n, partition
// m <= n), live in one place: the declared parameter table next to each
// params struct in adversary/ (util/param_table.hpp), which the graph
// sources, the scenario constructors and `sskel run` check too. n is
// at most 131,072, the trace decoder's universe cap. Integers must fit
// their range (nothing wraps or saturates) and probabilities (noise)
// lie in [0, 1].
//
// An attribute may appear once per job line. A partition job's blocks
// are built at parse time, so the partition jobs of one spec may ask
// for at most 131,072 blocks (the sum of m) in total.
//
// Parsing never aborts on bad input — specs are user files; errors
// come back with the offending line number so the CLI can point at
// them.
#pragma once

#include <optional>
#include <string>

#include "campaign/campaign.hpp"

namespace sskel {

struct SpecParseResult {
  /// Set iff parsing succeeded.
  std::optional<CampaignSpec> spec;
  /// Human-readable reason when it did not.
  std::string error;
  /// 1-based line the error was found on (0 = whole-file problem).
  int line = 0;
};

[[nodiscard]] SpecParseResult parse_campaign_spec(const std::string& text);

/// The canonical text of `spec`: every config key, then one job line
/// per job with name, every table attribute in table order, seed and
/// trials. It parses back to a spec with the same fingerprint() and
/// prints identically again. nullopt when the grammar cannot say what
/// `spec` holds: a NetScenario, a code-only field off its default,
/// uneven blocks, a name with blanks, explicit proposals.
[[nodiscard]] std::optional<std::string> print_campaign_spec(
    const CampaignSpec& spec);

}  // namespace sskel
