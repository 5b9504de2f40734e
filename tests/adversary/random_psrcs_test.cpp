// Tests for the random Psrcs(k) adversary: the generated runs must
// actually deliver the structure they promise.
#include "adversary/random_psrcs.hpp"

#include <gtest/gtest.h>

#include "graph/scc.hpp"
#include "predicates/psrcs.hpp"
#include "skeleton/tracker.hpp"
#include "util/rng.hpp"

namespace sskel {
namespace {

struct SweepCase {
  ProcId n;
  int k;
  int roots;
};

class RandomPsrcsSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RandomPsrcsSweep, StableSkeletonSatisfiesContract) {
  const SweepCase c = GetParam();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomPsrcsParams params;
    params.n = c.n;
    params.k = c.k;
    params.root_components = c.roots;
    RandomPsrcsSource source(seed, params);
    const Digraph& skel = source.stable_skeleton();

    // Hub cover of size <= k => Psrcs(k) by pigeonhole.
    EXPECT_EQ(source.hubs().count(), c.roots);
    EXPECT_TRUE(is_hub_cover(skel, source.hubs()));
    // Exact check where affordable.
    if (c.n <= 12) {
      EXPECT_TRUE(check_psrcs_exact(skel, c.k).holds)
          << "seed=" << seed << " n=" << c.n << " k=" << c.k;
    }

    // Exactly the promised root components.
    const std::vector<ProcSet> roots = root_components(skel);
    EXPECT_EQ(roots.size(), static_cast<std::size_t>(c.roots));
    // Each promised core is a root component.
    for (const ProcSet& core : source.cores()) {
      bool matched = false;
      for (const ProcSet& root : roots) {
        if (root == core) matched = true;
      }
      EXPECT_TRUE(matched) << "core " << core.to_string()
                           << " is not a root component (seed=" << seed
                           << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomPsrcsSweep,
    ::testing::Values(SweepCase{4, 1, 1}, SweepCase{6, 2, 2},
                      SweepCase{8, 3, 2}, SweepCase{8, 3, 3},
                      SweepCase{12, 4, 4}, SweepCase{16, 2, 2},
                      SweepCase{24, 5, 5}),
    [](const ::testing::TestParamInfo<SweepCase>& pinfo) {
      return "n" + std::to_string(pinfo.param.n) + "_k" +
             std::to_string(pinfo.param.k) + "_j" +
             std::to_string(pinfo.param.roots);
    });

TEST(RandomPsrcsTest, GraphIsDeterministicPerRound) {
  RandomPsrcsParams params;
  params.n = 10;
  params.k = 2;
  params.root_components = 2;
  RandomPsrcsSource a(7, params);
  RandomPsrcsSource b(7, params);
  for (Round r = 1; r <= 6; ++r) EXPECT_EQ(a.graph(r), b.graph(r));
  RandomPsrcsSource c(8, params);
  bool any_diff = false;
  for (Round r = 1; r <= 6; ++r) any_diff |= (a.graph(r) != c.graph(r));
  EXPECT_TRUE(any_diff);
}

TEST(RandomPsrcsTest, EveryRoundContainsStableEdges) {
  RandomPsrcsParams params;
  params.n = 9;
  params.k = 3;
  params.root_components = 3;
  params.noise_probability = 0.5;
  RandomPsrcsSource source(11, params);
  for (Round r = 1; r <= 15; ++r) {
    EXPECT_TRUE(source.stable_skeleton().is_subgraph_of(source.graph(r)))
        << "round " << r;
  }
}

TEST(RandomPsrcsTest, SkeletonConvergesToStable) {
  RandomPsrcsParams params;
  params.n = 8;
  params.k = 2;
  params.root_components = 2;
  params.noise_probability = 0.4;
  params.stabilization_round = 5;
  RandomPsrcsSource source(13, params);
  SkeletonTracker tracker(8);
  for (Round r = 1; r <= 20; ++r) {
    Digraph g = source.graph(r);
    g.add_self_loops();
    tracker.observe(r, g);
  }
  EXPECT_EQ(tracker.skeleton(), source.stable_skeleton());
  EXPECT_LE(tracker.last_change_round(), 5);
}

TEST(RandomPsrcsTest, NoNoiseAfterStabilizationWhenDisabled) {
  RandomPsrcsParams params;
  params.n = 6;
  params.k = 2;
  params.root_components = 1;
  params.noise_probability = 0.9;
  params.stabilization_round = 3;
  params.noise_after_stabilization = false;
  RandomPsrcsSource source(17, params);
  for (Round r = 3; r <= 10; ++r) {
    EXPECT_EQ(source.graph(r), source.stable_skeleton());
  }
}

TEST(RandomPsrcsTest, CoresAreDisjointAndCoverHubs) {
  RandomPsrcsParams params;
  params.n = 20;
  params.k = 4;
  params.root_components = 4;
  RandomPsrcsSource source(23, params);
  ProcSet seen(20);
  for (const ProcSet& core : source.cores()) {
    EXPECT_FALSE(seen.intersects(core));
    seen |= core;
    EXPECT_EQ((core & source.hubs()).count(), 1);  // one hub per core
  }
}

TEST(RandomPsrcsDeathTest, RejectsMoreRootsThanK) {
  RandomPsrcsParams params;
  params.n = 6;
  params.k = 2;
  params.root_components = 3;
  EXPECT_DEATH(RandomPsrcsSource(1, params), "precondition");
}

TEST(RandomPsrcsDeathTest, RejectsNoiseOutsideTheUnitInterval) {
  RandomPsrcsParams params;
  params.follower_edge_probability = 1.5;
  EXPECT_DEATH(RandomPsrcsSource(1, params), "precondition");
}

}  // namespace
}  // namespace sskel
