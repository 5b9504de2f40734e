// RandomPsrcsSource: seeded random runs that satisfy Psrcs(k) by
// construction.
//
// Construction (all randomness from one 64-bit seed):
//
//   1. Pick j <= k *root cores*: disjoint strongly connected groups
//      (a directed cycle through the members plus random chords), each
//      containing a distinguished *hub* with stable edges hub -> x to
//      every core member.
//   2. Every remaining process becomes a *follower*: it gets a stable
//      edge hub -> f from the hub of a uniformly chosen core, plus
//      optional random stable edges from "earlier" processes (a DAG,
//      so follower SCCs stay singletons and the cores stay the only
//      root components).
//   3. Per round r: the stable edges, plus transient noise edges
//      (each non-stable ordered pair independently with probability
//      noise_probability). In round `stabilization_round` the graph is
//      *exactly* the stable edge set, which evicts every noise edge
//      from the skeleton — so G∩r = G∩∞ for all r >= that round and
//      r_ST <= stabilization_round. Noise may continue afterwards
//      (harmless: those edges already left the skeleton).
//
// Why this satisfies Psrcs(k): the hubs form a *hub cover* of size
// j <= k — every process perpetually hears some hub. Any k+1 processes
// therefore include two that share a hub (pigeonhole), and that hub is
// their 2-source. Theorem 1's bound is met with equality when j = k.
//
// The per-round graph for round r is a pure function of
// (seed, params, r), so a source can be re-queried or replayed freely.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "graph/digraph.hpp"
#include "rounds/graph_source.hpp"
#include "util/decode.hpp"
#include "util/param_table.hpp"
#include "util/rng.hpp"

namespace sskel {

struct RandomPsrcsParams {
  ProcId n = 8;
  int k = 2;
  /// Number of root components j (1 <= j <= k; j <= n).
  int root_components = 2;
  /// Core sizes are drawn uniformly from [1, max_core_size].
  int max_core_size = 3;
  /// Per-round probability of each transient non-stable edge.
  double noise_probability = 0.25;
  /// The round whose graph is exactly the stable edges (>= 1).
  Round stabilization_round = 1;
  /// Keep injecting noise after stabilization_round.
  bool noise_after_stabilization = true;
  /// Probability of extra stable DAG edges into followers.
  double follower_edge_probability = 0.15;
};

/// The declared parameter table (util/param_table.hpp). n is capped
/// like the trace decoder, so a recorded run decodes again.
template <ParamsOf<RandomPsrcsParams> P, typename Visit>
void for_each_field(P& params, Visit&& visit) {
  visit(ParamField{"n", 1, kMaxDecodeUniverse, 8}, params.n);
  visit(ParamField{"k", 1, kMaxInt, 2}, params.k);
  visit(ParamField{"roots", 1, kMaxInt, 2}, params.root_components);
  visit(ParamField{"maxcore", 1, kMaxInt, 3}, params.max_core_size);
  visit(ParamField{"noise", 0, 1, 0.25}, params.noise_probability);
  visit(ParamField{"stabilize", 1, kMaxInt, 1}, params.stabilization_round);
  visit(ParamField{"noise_after_stabilization", 0, 1, 1, false},
        params.noise_after_stabilization);
  visit(ParamField{"follower_edge_probability", 0, 1, 0.15, false},
        params.follower_edge_probability);
  visit(ParamRule{"random-psrcs needs roots <= min(k, n)"},
        params.root_components <= std::min(params.k, params.n));
}

class RandomPsrcsSource final : public GraphSource {
 public:
  RandomPsrcsSource(std::uint64_t seed, const RandomPsrcsParams& params);

  [[nodiscard]] ProcId n() const override { return params_.n; }
  [[nodiscard]] Digraph graph(Round r) override;
  /// Allocation-free round generation: copies the stable skeleton into
  /// `out` (reusing its storage) and sprinkles noise edges in place.
  void graph_into(Round r, Digraph& out) override;

  /// The stable skeleton this source converges to (self-loops
  /// included). Equals the run's G∩∞ for any run of at least
  /// stabilization_round rounds.
  [[nodiscard]] const Digraph& stable_skeleton() const { return stable_; }

  /// The hub cover (one hub per core), |hubs| = root_components.
  [[nodiscard]] const ProcSet& hubs() const { return hubs_; }

  /// The root components of the stable skeleton, by construction.
  [[nodiscard]] const std::vector<ProcSet>& cores() const { return cores_; }

  [[nodiscard]] const RandomPsrcsParams& params() const { return params_; }

 private:
  std::uint64_t seed_;
  RandomPsrcsParams params_;
  Digraph stable_;
  ProcSet hubs_;
  std::vector<ProcSet> cores_;
};

/// Convenience factory.
[[nodiscard]] std::unique_ptr<RandomPsrcsSource> make_random_psrcs_source(
    std::uint64_t seed, const RandomPsrcsParams& params);

}  // namespace sskel
