// Tests for the scenario-driven Monte-Carlo engine: heterogeneous
// factories (crash, partition, rotating, network-backed) all aggregate
// through the one run_scenario_trials code path, byte accumulators are
// gated on measure_bytes, the trial hot loop constructs no per-round
// graphs, every Simulator scenario's capture replays its trial, and
// every constructor checks its parameter table.
#include "mc/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "adversary/random_psrcs.hpp"
#include "mc/montecarlo.hpp"
#include "rounds/record.hpp"
#include "rounds/trace.hpp"

namespace sskel {
namespace {

TEST(ScenarioTest, CrashScenarioReachesConsensus) {
  // One root component (the never-crashed set) -> consensus, k = 1.
  const CrashScenario scenario(6, /*crashes=*/2, /*max_crash_round=*/3);
  EXPECT_EQ(scenario.name(), "crash");
  EXPECT_EQ(scenario.n(), 6);
  KSetRunConfig config;
  config.k = 1;
  const McSummary s = run_scenario_trials(scenario, 42, 8, config, 2);
  EXPECT_EQ(s.scenario, "crash");
  EXPECT_EQ(s.runs, 8);
  EXPECT_EQ(s.undecided_runs, 0);
  EXPECT_EQ(s.agreement_violations, 0);
  EXPECT_EQ(s.validity_violations, 0);
  EXPECT_FALSE(s.net_backed);
  EXPECT_LE(s.distinct_values.max(), 1.0);
}

TEST(ScenarioTest, PartitionScenarioHonorsBlockCount) {
  PartitionParams params;
  params.blocks = even_blocks(8, 2);
  params.cross_noise_probability = 0.3;
  params.stabilization_round = 3;
  const PartitionScenario scenario(params);
  EXPECT_EQ(scenario.n(), 8);
  KSetRunConfig config;
  config.k = 2;
  const McSummary s = run_scenario_trials(scenario, 7, 6, config, 2);
  EXPECT_EQ(s.runs, 6);
  EXPECT_EQ(s.undecided_runs, 0);
  EXPECT_EQ(s.agreement_violations, 0);
  // Two complete blocks: exactly 2 root components in every trial.
  EXPECT_DOUBLE_EQ(s.root_components.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.root_components.max(), 2.0);
}

TEST(ScenarioTest, NetScenarioIsNetBacked) {
  NetConfig net;
  net.round_duration = 1000;
  const NetScenario scenario(LinkMatrix::all_timely(5, 100, 800), net);
  EXPECT_EQ(scenario.name(), "net");
  KSetRunConfig config;
  config.k = 1;
  const McSummary s = run_scenario_trials(scenario, 11, 4, config, 2);
  EXPECT_EQ(s.runs, 4);
  EXPECT_TRUE(s.net_backed);
  EXPECT_EQ(s.undecided_runs, 0);
  EXPECT_EQ(s.agreement_violations, 0);
  EXPECT_LE(s.distinct_values.max(), 1.0);  // all-timely -> consensus
  EXPECT_EQ(s.late_messages.count(), 4);
  EXPECT_GT(s.wall_clock_ms.min(), 0.0);
}

TEST(ScenarioTest, RotatingScenarioStaysValid) {
  // Psrcs fails by design (the negative control): agreement may
  // degrade, but validity is predicate-free and must hold.
  const RotatingScenario scenario(5);
  EXPECT_EQ(scenario.name(), "rotating-star");
  KSetRunConfig config;
  config.k = 1;
  const McSummary s = run_scenario_trials(scenario, 3, 6, config, 2);
  EXPECT_EQ(s.runs, 6);
  EXPECT_EQ(s.validity_violations, 0);
  EXPECT_EQ(s.undecided_runs, 0);
}

TEST(ScenarioTest, PerTrialCallbackRunsInTrialOrder) {
  const CrashScenario scenario(5, 1, 2);
  KSetRunConfig config;
  config.k = 1;
  std::vector<std::size_t> indices;
  const McSummary s = run_scenario_trials(
      scenario, 9, 5, config, 2,
      [&](std::size_t t, const ScenarioTrial& trial) {
        indices.push_back(t);
        EXPECT_FALSE(trial.net_backed);
        EXPECT_TRUE(trial.kset.all_decided);
      });
  EXPECT_EQ(s.runs, 5);
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ScenarioTest, ByteAccumulatorsGatedOnMeasureBytes) {
  RandomPsrcsParams params;
  params.n = 5;
  params.k = 2;
  params.root_components = 2;
  const RandomPsrcsScenario scenario(params);

  KSetRunConfig off;
  off.k = 2;
  const McSummary without = run_scenario_trials(scenario, 5, 4, off, 1);
  EXPECT_FALSE(without.bytes_measured);
  EXPECT_EQ(without.total_bytes.count(), 0);
  EXPECT_EQ(without.max_message_bytes.count(), 0);

  KSetRunConfig on = off;
  on.measure_bytes = true;
  const McSummary with = run_scenario_trials(scenario, 5, 4, on, 1);
  EXPECT_TRUE(with.bytes_measured);
  EXPECT_EQ(with.total_bytes.count(), 4);
  EXPECT_GT(with.total_bytes.min(), 0.0);
  EXPECT_GT(with.max_message_bytes.min(), 0.0);
}

TEST(ScenarioTest, DeterministicAcrossThreadCounts) {
  PartitionParams params;
  params.blocks = even_blocks(6, 2);
  params.cross_noise_probability = 0.4;
  params.stabilization_round = 4;
  const PartitionScenario scenario(params);
  KSetRunConfig config;
  config.k = 2;
  const McSummary a = run_scenario_trials(scenario, 21, 10, config, 1);
  const McSummary b = run_scenario_trials(scenario, 21, 10, config, 4);
  EXPECT_DOUBLE_EQ(a.distinct_values.mean(), b.distinct_values.mean());
  EXPECT_DOUBLE_EQ(a.last_decision_round.mean(), b.last_decision_round.mean());
  EXPECT_DOUBLE_EQ(a.total_messages.sum(), b.total_messages.sum());
  EXPECT_EQ(a.root_histogram.to_string(), b.root_histogram.to_string());
}

TEST(ScenarioTest, LegacyEntryPointMatchesScenarioEngine) {
  RandomPsrcsParams params;
  params.n = 6;
  params.k = 2;
  params.root_components = 2;
  KSetRunConfig config;
  config.k = 2;
  const McSummary legacy = run_random_psrcs_trials(123, 8, params, config, 2);
  const RandomPsrcsScenario scenario(params);
  const McSummary direct = run_scenario_trials(scenario, 123, 8, config, 2);
  EXPECT_DOUBLE_EQ(legacy.distinct_values.mean(),
                   direct.distinct_values.mean());
  EXPECT_DOUBLE_EQ(legacy.total_messages.sum(), direct.total_messages.sum());
  EXPECT_EQ(legacy.root_histogram.to_string(),
            direct.root_histogram.to_string());
}

TEST(ScenarioTest, TrialHotLoopConstructsNoPerRoundGraphs) {
  // Two runs of the same trial, differing only in how many rounds they
  // execute (tail_rounds 4 vs 40): if the per-round path constructed
  // any Digraph, the longer run would construct strictly more. Equal
  // construction deltas prove the hot loop is allocation-free.
  RandomPsrcsParams params;
  params.n = 8;
  params.k = 2;
  params.root_components = 2;
  params.noise_probability = 0.3;

  const auto constructions_for = [&](Round tail) {
    RandomPsrcsSource source(99, params);
    KSetRunConfig config;
    config.k = 2;
    config.tail_rounds = tail;
    const std::int64_t before = Digraph::graphs_constructed();
    const KSetRunReport report = run_kset(source, config);
    const std::int64_t delta = Digraph::graphs_constructed() - before;
    EXPECT_TRUE(report.all_decided);
    EXPECT_GE(report.rounds_executed, tail);
    return delta;
  };

  EXPECT_EQ(constructions_for(4), constructions_for(40));
}

TEST(ScenarioTest, CaptureTrialReplaysTheTrialForEveryScenario) {
  // capture_trial's contract, scenario by scenario: the capture carries
  // the trial seed, and replaying its graphs reproduces run_trial.
  RandomPsrcsParams psrcs;
  psrcs.n = 7;
  psrcs.k = 2;
  psrcs.noise_probability = 0.3;
  const RandomPsrcsScenario random_psrcs(psrcs);
  const CrashScenario crash(6, 2, 3);
  PartitionParams blocks;
  blocks.blocks = even_blocks(8, 2);
  blocks.cross_noise_probability = 0.3;
  blocks.stabilization_round = 3;
  const PartitionScenario partition(blocks);
  const RotatingScenario rotating(5);
  KSetRunConfig config;
  config.k = 2;
  config.tail_rounds = 2;

  const ScenarioFactory* scenarios[] = {&random_psrcs, &crash, &partition,
                                        &rotating};
  for (const ScenarioFactory* scenario : scenarios) {
    for (const std::uint64_t seed : {3u, 41u}) {
      const std::optional<RunCapture> capture =
          scenario->capture_trial(seed, config);
      ASSERT_TRUE(capture.has_value()) << scenario->name();
      EXPECT_EQ(capture->header.seed, seed) << scenario->name();

      ReplaySource replay(capture->graphs);
      const KSetRunReport replayed = run_kset(replay, config);
      const KSetRunReport direct = scenario->run_trial(seed, config).kset;
      ASSERT_EQ(replayed.outcomes.size(), direct.outcomes.size())
          << scenario->name();
      for (std::size_t p = 0; p < direct.outcomes.size(); ++p) {
        EXPECT_EQ(replayed.outcomes[p].decided, direct.outcomes[p].decided)
            << scenario->name() << " p=" << p;
        EXPECT_EQ(replayed.outcomes[p].decision, direct.outcomes[p].decision)
            << scenario->name() << " p=" << p;
        EXPECT_EQ(replayed.outcomes[p].decision_round,
                  direct.outcomes[p].decision_round)
            << scenario->name() << " p=" << p;
      }
      EXPECT_EQ(replayed.paths, direct.paths) << scenario->name();
      EXPECT_EQ(replayed.rounds_executed, direct.rounds_executed)
          << scenario->name();
      EXPECT_EQ(replayed.final_skeleton, direct.final_skeleton)
          << scenario->name();
      EXPECT_EQ(replayed.total_messages, direct.total_messages)
          << scenario->name();
    }
  }

  NetConfig net;
  net.round_duration = 1000;
  const NetScenario network(LinkMatrix::all_timely(4, 100, 800), net);
  EXPECT_FALSE(network.capture_trial(3, config).has_value());
}

TEST(ScenarioDeathTest, ConstructorsCheckTheirParameterTables) {
  // Bad parameters abort at construction, not on a tile thread at the
  // first trial.
  RandomPsrcsParams roots;
  roots.n = 6;
  roots.k = 2;
  roots.root_components = 3;  // > k
  EXPECT_DEATH(RandomPsrcsScenario{roots}, "precondition");
  RandomPsrcsParams noise;
  noise.noise_probability = 1.5;
  EXPECT_DEATH(RandomPsrcsScenario{noise}, "precondition");
  EXPECT_DEATH(CrashScenario(4, 4, 3), "precondition");  // crashes >= n
  EXPECT_DEATH(RotatingScenario(4, 0), "precondition");  // hold < 1
  EXPECT_DEATH(PartitionScenario(PartitionParams{}), "precondition");
}

}  // namespace
}  // namespace sskel
