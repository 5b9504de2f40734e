// Text campaign specs (campaign/spec.hpp): the parser accepts the
// documented grammar and rejects everything else with a line number,
// the canonical printer round-trips, and CampaignSpec::fingerprint()
// — what a checkpoint carries — is pinned. A change to a scenario's
// parameter serialization that moves any of these digests stops
// existing checkpoints from resuming.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "adversary/partition.hpp"
#include "adversary/random_psrcs.hpp"
#include "campaign/campaign.hpp"
#include "campaign/spec.hpp"
#include "mc/scenario.hpp"
#include "net/link.hpp"

namespace sskel {
namespace {

std::string hex(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

/// The fingerprint of a spec that must parse.
std::string parsed_fingerprint(const std::string& text) {
  const SpecParseResult parsed = parse_campaign_spec(text);
  EXPECT_TRUE(parsed.spec.has_value()) << parsed.error;
  return parsed.spec.has_value() ? hex(parsed.spec->fingerprint()) : "";
}

TEST(CampaignSpecTest, FingerprintsArePinned) {
  // The documented spec: every scenario kind and every config key.
  EXPECT_EQ(parsed_fingerprint(
                "# converged partition sweep\n"
                "k = 2\n"
                "guard = after-round-n\n"
                "max_rounds = 0\n"
                "tail_rounds = 2\n"
                "measure_bytes = 1\n"
                "lemma_monitor = 0\n"
                "job = partition name=conv n=4 m=2 noise=0 stabilize=1 "
                "seed=42 trials=50000\n"
                "job = random-psrcs name=rp n=6 k=2 roots=2 seed=7 "
                "trials=2000\n"
                "job = crash name=cr n=5 crashes=1 maxcrash=3 seed=9 "
                "trials=2000\n"
                "job = rotating name=rot n=4 hold=1 seed=3 trials=500\n"),
            "e07c5c9322212b40");
  // Every attribute spelled out, off its default where it has one.
  EXPECT_EQ(parsed_fingerprint(
                "k = 3\n"
                "guard = at-round-n\n"
                "max_rounds = 40\n"
                "lemma_monitor = 1\n"
                "job = partition name=p n=7 m=3 noise=0.25 stabilize=2 "
                "seed=1 trials=10\n"
                "job = random-psrcs name=r n=8 k=3 roots=2 maxcore=2 "
                "noise=0.5 stabilize=4 seed=2 trials=10\n"
                "job = crash name=c n=7 crashes=2 maxcrash=4 seed=3 "
                "trials=10\n"
                "job = rotating name=s n=5 hold=2 seed=4 trials=10\n"),
            "80b11ab5f91878f9");

  // Scenarios only code can build: the random-Psrcs fields the spec
  // has no key for, an uneven hand-made partition, a network.
  CampaignSpec code_built;
  code_built.config.k = 2;
  RandomPsrcsParams quiet;
  quiet.n = 7;
  quiet.k = 3;
  quiet.root_components = 2;
  quiet.noise_after_stabilization = false;
  quiet.follower_edge_probability = 0.4;
  code_built.jobs.push_back(CampaignJob{
      "quiet", std::make_shared<RandomPsrcsScenario>(quiet), 11, 5});
  PartitionParams uneven;
  uneven.blocks = {ProcSet::of(6, {0, 3, 5}), ProcSet::of(6, {1}),
                   ProcSet::of(6, {2, 4})};
  uneven.cross_noise_probability = 0.125;
  uneven.stabilization_round = 3;
  code_built.jobs.push_back(CampaignJob{
      "uneven", std::make_shared<PartitionScenario>(std::move(uneven)), 12,
      6});
  NetConfig net;
  net.round_duration = 900;
  net.skews = {0, 5, 10, 15};
  code_built.jobs.push_back(CampaignJob{
      "net",
      std::make_shared<NetScenario>(LinkMatrix::all_timely(4, 100, 800), net),
      13, 7});
  EXPECT_EQ(hex(code_built.fingerprint()), "d6dda8df2de27e3c");

  // One block per process at the decoder's universe cap, and two.
  EXPECT_EQ(parsed_fingerprint("job = partition n=131072 m=131072 trials=1"),
            "0d9047c399148457");
  EXPECT_EQ(parsed_fingerprint("job = partition n=131072 m=2 trials=1"),
            "609dd84436e6eba1");
}

TEST(CampaignSpecTest, ParsesTheDocumentedGrammar) {
  const std::string text =
      "# converged partition sweep\n"
      "k = 2\n"
      "guard = at-round-n\n"
      "max_rounds = 30\n"
      "measure_bytes = 1\n"
      "\n"
      "job = partition name=conv n=4 m=2 noise=0 stabilize=1 seed=42 "
      "trials=500\n"
      "job = random-psrcs name=rp n=6 k=2 roots=2 seed=7 trials=20\n"
      "job = crash name=cr n=5 crashes=1 maxcrash=3 seed=9 trials=20\n"
      "job = rotating name=rot n=4 hold=1 seed=3 trials=5\n";
  const SpecParseResult parsed = parse_campaign_spec(text);
  ASSERT_TRUE(parsed.spec.has_value()) << parsed.error;
  const CampaignSpec& spec = *parsed.spec;
  EXPECT_EQ(spec.config.k, 2);
  EXPECT_EQ(spec.config.guard, DecisionGuard::kAtRoundN);
  EXPECT_EQ(spec.config.max_rounds, 30);
  EXPECT_TRUE(spec.config.measure_bytes);
  ASSERT_EQ(spec.jobs.size(), 4u);
  EXPECT_EQ(spec.jobs[0].name, "conv");
  EXPECT_EQ(spec.jobs[0].master_seed, 42u);
  EXPECT_EQ(spec.jobs[0].trials, 500);
  EXPECT_EQ(spec.jobs[0].scenario->name(), "partition");
  EXPECT_EQ(spec.jobs[1].scenario->name(), "random-psrcs");
  EXPECT_EQ(spec.jobs[2].scenario->name(), "crash");
  EXPECT_EQ(spec.jobs[3].scenario->name(), "rotating-star");
}

TEST(CampaignSpecTest, RejectsBadInputWithLineNumbers) {
  // Twenty one-block-per-process partitions: the first spends the whole
  // block budget, the second crosses it.
  std::string budget_buster;
  for (int i = 0; i < 20; ++i) {
    budget_buster += "job = partition n=131072 m=131072 trials=1\n";
  }
  const struct {
    std::string text;
    int line;
  } cases[] = {
      {"k = 0\njob = partition trials=5\n", 1},       // k out of range
      {"k = abc\njob = partition trials=5\n", 1},     // k not an integer
      {"k = 2\nmax_rounds = soon\n", 2},              // garbage int
      {"k = 2\nmax_rounds = -1\n", 2},                // negative rounds
      {"k = 2\ntail_rounds = 3x\n", 2},               // trailing junk
      {"k = 2\nmeasure_bytes = maybe\n", 2},          // bad bool
      {"k = 2\nbogus = 1\n", 2},                      // unknown config key
      {"k = 2\njob = warp trials=5\n", 2},            // unknown scenario
      {"k = 2\njob = partition n=4\n", 2},            // missing trials
      {"k = 2\njob = partition trials=5 warp=1\n", 2},  // unknown attr
      {"k = 2\nthis is not a key value line\n", 2},   // grammar
      {"k = 2\n", 0},                                 // no jobs at all
      // Values that overflow or truncate on the way to their type.
      {"k = 4294967297\njob = partition trials=5\n", 1},  // int wrap
      {"k = 99999999999999999999\njob = partition trials=5\n", 1},  // ERANGE
      {"k = 2\nmax_rounds = 4294967296\n", 2},       // Round wrap
      {"k = 2\njob = partition trials=2 n=4294967300 m=2\n", 2},  // ProcId
      {"k = 2\njob = rotating trials=2 n=131073\n", 2},  // decoder cap
      {"k = 2\njob = partition trials=99999999999999999999\n", 2},  // ERANGE
      {"k = 2\njob = partition trials=2 seed=99999999999999999999\n", 2},
      {"k = 2\njob = partition trials=2 seed=-1\n", 2},  // negated seed
      {"k = 2\njob = crash trials=2 maxcrash=2147483648\n", 2},  // Round
      // Probabilities outside [0, 1], NaN included.
      {"k = 2\njob = partition trials=2 noise=7\n", 2},
      {"k = 2\njob = partition trials=2 noise=-0.5\n", 2},
      {"k = 2\njob = random-psrcs trials=2 noise=nan\n", 2},
      // More roots than processes: the generator would abort.
      {"k = 9\njob = random-psrcs trials=2 n=4 k=9 roots=5\n", 2},
      // Every field's range, and every cross-field rule.
      {"job = partition trials=2 m=0\n", 1},
      {"job = partition trials=2 n=3 m=4\n", 1},
      {"job = partition trials=2 stabilize=0\n", 1},
      {"job = random-psrcs trials=2 k=0\n", 1},
      {"job = random-psrcs trials=2 maxcore=0\n", 1},
      {"job = random-psrcs trials=2 n=1 k=2 roots=2\n", 1},
      {"job = crash trials=2 n=3 crashes=3\n", 1},
      {"job = crash trials=2 crashes=-1\n", 1},
      {"job = rotating trials=2 hold=0\n", 1},
      {"job = rotating trials=2 n=0\n", 1},
      // An attribute given twice: the last value used to win.
      {"job = partition n=4 n=400 trials=1\n", 1},
      {"job = crash trials=1 trials=2\n", 1},
      {budget_buster, 2},
  };
  for (const auto& test_case : cases) {
    const SpecParseResult parsed = parse_campaign_spec(test_case.text);
    EXPECT_FALSE(parsed.spec.has_value()) << test_case.text;
    EXPECT_EQ(parsed.line, test_case.line) << test_case.text;
    EXPECT_FALSE(parsed.error.empty()) << test_case.text;
  }
}


TEST(CampaignSpecTest, PrintsTheDocumentedExampleCanonically) {
  const SpecParseResult parsed = parse_campaign_spec(
      "# converged partition sweep\n"
      "k = 2\n"
      "guard = after-round-n\n"
      "job = partition name=conv n=4 m=2 noise=0 stabilize=1 seed=42 "
      "trials=50000\n"
      "job = random-psrcs name=rp n=6 k=2 roots=2 seed=7 trials=2000\n"
      "job = crash name=cr n=5 crashes=1 maxcrash=3 seed=9 trials=2000\n"
      "job = rotating name=rot n=4 hold=1 seed=3 trials=500\n");
  ASSERT_TRUE(parsed.spec.has_value()) << parsed.error;
  const std::optional<std::string> printed =
      print_campaign_spec(*parsed.spec);
  ASSERT_TRUE(printed.has_value());
  EXPECT_EQ(*printed,
            "guard = after-round-n\n"
            "k = 2\n"
            "max_rounds = 0\n"
            "tail_rounds = 0\n"
            "measure_bytes = 0\n"
            "lemma_monitor = 0\n"
            "job = partition name=conv n=4 m=2 noise=0 stabilize=1 seed=42 "
            "trials=50000\n"
            "job = random-psrcs name=rp n=6 k=2 roots=2 maxcore=3 noise=0.25 "
            "stabilize=1 seed=7 trials=2000\n"
            "job = crash name=cr n=5 crashes=1 maxcrash=3 seed=9 "
            "trials=2000\n"
            "job = rotating name=rot n=4 hold=1 seed=3 trials=500\n");
  const SpecParseResult again = parse_campaign_spec(*printed);
  ASSERT_TRUE(again.spec.has_value()) << again.error;
  EXPECT_EQ(again.spec->fingerprint(), parsed.spec->fingerprint());
  EXPECT_EQ(print_campaign_spec(*again.spec), printed);
}

TEST(CampaignSpecTest, PrinterRefusesWhatTheGrammarCannotSay) {
  const auto single_job = [](std::shared_ptr<const ScenarioFactory> s) {
    CampaignSpec spec;
    spec.jobs.push_back(CampaignJob{"job", std::move(s), 1, 1});
    return spec;
  };
  RandomPsrcsParams quiet;
  quiet.noise_after_stabilization = false;
  EXPECT_FALSE(print_campaign_spec(
      single_job(std::make_shared<RandomPsrcsScenario>(quiet))));
  PartitionParams uneven;
  uneven.blocks = {ProcSet::of(3, {0, 1}), ProcSet::of(3, {2})};
  EXPECT_TRUE(print_campaign_spec(single_job(
      std::make_shared<PartitionScenario>(uneven))));  // even_blocks(3, 2)
  uneven.blocks = {ProcSet::of(3, {0}), ProcSet::of(3, {1, 2})};
  EXPECT_FALSE(print_campaign_spec(
      single_job(std::make_shared<PartitionScenario>(uneven))));
  EXPECT_FALSE(print_campaign_spec(single_job(std::make_shared<NetScenario>(
      LinkMatrix::all_timely(3, 100, 800), NetConfig{}))));
  CampaignSpec blank_name =
      single_job(std::make_shared<CrashScenario>(4, 1, 2));
  blank_name.jobs[0].name = "two words";
  EXPECT_FALSE(print_campaign_spec(blank_name));
}

}  // namespace
}  // namespace sskel
