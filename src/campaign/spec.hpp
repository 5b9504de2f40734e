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
// Integers must fit the type they land in (int, ProcId or Round —
// nothing wraps or saturates), probabilities (noise) lie in [0, 1],
// and random-psrcs needs roots <= min(k, n).
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

}  // namespace sskel
