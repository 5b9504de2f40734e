// Tests for run recording and replay. The codec that persists a
// capture is SSKT's (rounds/trace_codec_test.cpp).
#include "rounds/record.hpp"

#include <gtest/gtest.h>

#include "adversary/random_psrcs.hpp"
#include "kset/runner.hpp"

namespace sskel {
namespace {

TEST(RecordingSourceTest, CapturesServedGraphs) {
  RandomPsrcsParams params;
  params.n = 6;
  params.k = 2;
  params.root_components = 2;
  RandomPsrcsSource inner(4, params);
  RecordingSource recorder(inner);
  for (Round r = 1; r <= 5; ++r) {
    const Digraph g = recorder.graph(r);
    EXPECT_EQ(g, inner.graph(r));  // inner is a pure function of r
  }
  EXPECT_EQ(recorder.recorded().size(), 5u);
  // Re-queries of past rounds come from the capture.
  EXPECT_EQ(recorder.graph(3), inner.graph(3));
  EXPECT_EQ(recorder.recorded().size(), 5u);
}

TEST(ReplaySourceTest, ReplaysAndRepeatsLast) {
  Digraph a(3);
  a.add_edge(0, 1);
  Digraph b(3);
  b.add_edge(1, 2);
  ReplaySource replay({a, b});
  EXPECT_EQ(replay.graph(1), a);
  EXPECT_EQ(replay.graph(2), b);
  EXPECT_EQ(replay.graph(7), b);
  EXPECT_EQ(replay.n(), 3);
}

TEST(RecordReplayTest, ReplayedRunReproducesDecisionsExactly) {
  // Record a live run, replay the capture, and compare every outcome —
  // the reproduce-a-bug workflow.
  RandomPsrcsParams params;
  params.n = 8;
  params.k = 2;
  params.root_components = 2;
  params.stabilization_round = 3;
  RandomPsrcsSource inner(17, params);
  RecordingSource recorder(inner);

  KSetRunConfig config;
  config.k = 2;
  const KSetRunReport live = run_kset(recorder, config);
  ASSERT_TRUE(live.all_decided);

  ReplaySource replay(recorder.recorded());
  const KSetRunReport replayed = run_kset(replay, config);

  ASSERT_EQ(replayed.outcomes.size(), live.outcomes.size());
  for (std::size_t p = 0; p < live.outcomes.size(); ++p) {
    EXPECT_EQ(replayed.outcomes[p].decision, live.outcomes[p].decision);
    EXPECT_EQ(replayed.outcomes[p].decision_round,
              live.outcomes[p].decision_round);
  }
  EXPECT_EQ(replayed.final_skeleton, live.final_skeleton);
}

}  // namespace
}  // namespace sskel
