// Scheduling determinism: parallel_for's threads claim trials off a
// shared counter, so which worker runs which trial varies run to run
// — but results are keyed by trial index and folded in trial order,
// so every aggregate must be bit-identical for every thread count. Pinned here over a
// network-backed scenario (the ring message plane under the pool),
// complementing the random-Psrcs pin in montecarlo_test.cpp.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mc/montecarlo.hpp"
#include "mc/scenario.hpp"

namespace sskel {
namespace {

NetScenario flaky_hub_scenario(ProcId n) {
  // A timely hub over a flaky remainder: trials see real lates and
  // losses, so the network accumulators carry signal worth pinning.
  Digraph stable(n);
  stable.add_self_loops();
  for (ProcId p = 0; p < n; ++p) stable.add_edge(0, p);
  LinkMatrix links = LinkMatrix::all_flaky(n, 0.6);
  links.upgrade_to_timely(stable, 100, 700);
  NetConfig net;
  net.round_duration = 1000;
  for (ProcId p = 0; p < n; ++p) {
    net.skews.push_back((static_cast<SimTime>(p) * 113) % 800);
  }
  return NetScenario(std::move(links), net);
}

TEST(StealDeterminismTest, NetTrialsIdenticalAcrossThreadCounts) {
  const NetScenario scenario = flaky_hub_scenario(6);
  KSetRunConfig config;
  config.k = 2;
  config.max_rounds = 40;

  const McSummary a = run_scenario_trials(scenario, 0x57EA1, 16, config, 1);
  const McSummary b = run_scenario_trials(scenario, 0x57EA1, 16, config, 4);

  ASSERT_TRUE(a.net_backed);
  ASSERT_TRUE(b.net_backed);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.undecided_runs, b.undecided_runs);
  EXPECT_EQ(a.agreement_violations, b.agreement_violations);
  EXPECT_DOUBLE_EQ(a.distinct_values.mean(), b.distinct_values.mean());
  EXPECT_DOUBLE_EQ(a.last_decision_round.mean(),
                   b.last_decision_round.mean());
  EXPECT_DOUBLE_EQ(a.total_messages.sum(), b.total_messages.sum());
  EXPECT_DOUBLE_EQ(a.late_messages.sum(), b.late_messages.sum());
  EXPECT_DOUBLE_EQ(a.lost_messages.sum(), b.lost_messages.sum());
  EXPECT_DOUBLE_EQ(a.wall_clock_ms.sum(), b.wall_clock_ms.sum());
  EXPECT_EQ(a.distinct_histogram.to_string(),
            b.distinct_histogram.to_string());
  EXPECT_EQ(a.root_histogram.to_string(), b.root_histogram.to_string());
}

TEST(StealDeterminismTest, PerTrialCallbackRunsInTrialOrder) {
  // The per-trial hook fires after the parallel phase, in trial order,
  // regardless of which worker ran which trial.
  const NetScenario scenario = flaky_hub_scenario(5);
  KSetRunConfig config;
  config.k = 2;
  config.max_rounds = 40;

  std::vector<std::size_t> order;
  std::vector<std::int64_t> messages;
  const McSummary s = run_scenario_trials(
      scenario, 0x57EA2, 10, config, 4,
      [&](std::size_t trial, const ScenarioTrial& t) {
        order.push_back(trial);
        messages.push_back(t.kset.total_messages);
      });
  EXPECT_EQ(s.runs, 10);
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }

  // And the per-trial stream itself is thread-count independent.
  std::vector<std::int64_t> messages_single;
  (void)run_scenario_trials(
      scenario, 0x57EA2, 10, config, 1,
      [&](std::size_t, const ScenarioTrial& t) {
        messages_single.push_back(t.kset.total_messages);
      });
  EXPECT_EQ(messages, messages_single);
}

}  // namespace
}  // namespace sskel
