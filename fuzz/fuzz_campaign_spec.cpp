// Fuzz target: the text campaign-spec parser (campaign/spec.hpp).
//
// Specs are user files, so arbitrary text must never abort the
// parser. Properties:
//   * a rejected spec carries a non-empty error and a line number in
//     [0, number of lines] (0 = whole-file problem);
//   * an accepted spec constructed every job's scenario — the parser
//     and the constructors check the same parameter tables, so no
//     constructor precondition (SSKEL_REQUIRE) is reachable — and its
//     fingerprint() computes;
//   * an accepted spec prints canonically (print_campaign_spec returns
//     text only when it parses back to the same fingerprint()), and
//     that parse prints to identical text.
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "util/assert.hpp"

using namespace sskel;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  const SpecParseResult parsed = parse_campaign_spec(text);
  if (!parsed.spec.has_value()) {
    // std::getline's count: one per '\n', plus an unterminated tail.
    int lines = 0;
    for (const char c : text) lines += c == '\n' ? 1 : 0;
    if (!text.empty() && text.back() != '\n') ++lines;
    SSKEL_REQUIRE(!parsed.error.empty());
    SSKEL_REQUIRE(parsed.line >= 0 && parsed.line <= lines);
    return 0;
  }
  const CampaignSpec& spec = *parsed.spec;
  SSKEL_REQUIRE(!spec.jobs.empty());
  for (const CampaignJob& job : spec.jobs) {
    SSKEL_REQUIRE(job.scenario != nullptr);
    SSKEL_REQUIRE(job.trials > 0);
  }
  const std::optional<std::string> printed = print_campaign_spec(spec);
  SSKEL_REQUIRE(printed.has_value());
  const SpecParseResult again = parse_campaign_spec(*printed);
  SSKEL_REQUIRE(again.spec.has_value());
  SSKEL_REQUIRE(print_campaign_spec(*again.spec) == printed);
  return 0;
}

extern "C" void sskel_fuzz_seed_corpus(
    std::vector<std::vector<std::uint8_t>>* out) {
  const auto add = [out](const std::string& text) {
    out->emplace_back(text.begin(), text.end());
  };
  // The documented example (campaign/spec.hpp) with every config key.
  add("# converged partition sweep\n"
      "k = 2\n"
      "guard = after-round-n\n"
      "max_rounds = 0\n"
      "tail_rounds = 2\n"
      "measure_bytes = 1\n"
      "lemma_monitor = 0\n"
      "job = partition name=conv n=4 m=2 noise=0 stabilize=1 seed=42 "
      "trials=50000\n"
      "job = random-psrcs name=rp n=6 k=2 roots=2 seed=7 trials=2000\n"
      "job = crash name=cr n=5 crashes=1 maxcrash=3 seed=9 trials=2000\n"
      "job = rotating name=rot n=4 hold=1 seed=3 trials=500\n");
  // One line per scenario kind, every attribute spelled out.
  add("job = partition name=p n=6 m=3 noise=0.25 stabilize=2 seed=1 "
      "trials=10\n");
  add("job = random-psrcs name=r n=8 k=3 roots=2 maxcore=3 noise=0.5 "
      "stabilize=4 seed=2 trials=10\n");
  add("job = crash name=c n=7 crashes=2 maxcrash=4 seed=3 trials=10\n");
  add("job = rotating name=s n=5 hold=2 seed=4 trials=10\n");
  // One block per process at the universe cap: the whole block budget.
  add("job = partition n=131072 m=131072 trials=1\n");
}
