#include "adversary/random_psrcs.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sskel {

RandomPsrcsSource::RandomPsrcsSource(std::uint64_t seed,
                                     const RandomPsrcsParams& params)
    : seed_(seed),
      params_(params),
      stable_(params.n),
      hubs_(params.n) {
  SSKEL_REQUIRE(validate(params_).empty());
  const ProcId n = params_.n;

  Rng rng(mix_seed(seed_, 0));

  // Random process permutation; cores are carved off its front.
  std::vector<ProcId> order(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) order[static_cast<std::size_t>(p)] = p;
  rng.shuffle(order);

  stable_.add_self_loops();

  const int j = params_.root_components;
  std::size_t cursor = 0;
  for (int c = 0; c < j; ++c) {
    // Leave at least one process for each remaining core.
    const std::size_t remaining_cores = static_cast<std::size_t>(j - c - 1);
    const std::size_t available =
        static_cast<std::size_t>(n) - cursor - remaining_cores;
    const std::size_t size = std::min<std::size_t>(
        1 + rng.next_below(static_cast<std::uint64_t>(params_.max_core_size)),
        available);
    SSKEL_ASSERT(size >= 1);

    std::vector<ProcId> members(order.begin() + static_cast<std::ptrdiff_t>(cursor),
                                order.begin() + static_cast<std::ptrdiff_t>(cursor + size));
    cursor += size;

    ProcSet core(n);
    for (ProcId m : members) core.insert(m);
    cores_.push_back(core);

    const ProcId hub = members.front();
    hubs_.insert(hub);

    // Strong connectivity: a directed cycle through the members.
    for (std::size_t i = 0; i < members.size(); ++i) {
      stable_.add_edge(members[i], members[(i + 1) % members.size()]);
    }
    // The hub must be heard by every core member (hub-cover property).
    for (ProcId m : members) stable_.add_edge(hub, m);
    // Random chords inside the core.
    for (ProcId a : members) {
      for (ProcId b : members) {
        if (a != b && rng.next_bool(0.3)) stable_.add_edge(a, b);
      }
    }
  }

  // Followers: everything after the cores in the permutation.
  for (std::size_t i = cursor; i < order.size(); ++i) {
    const ProcId f = order[i];
    const std::size_t core_idx = rng.pick_index(cores_.size());
    const ProcId chosen_hub = (cores_[core_idx] & hubs_).first();
    SSKEL_ASSERT(chosen_hub >= 0);
    stable_.add_edge(chosen_hub, f);
    // Extra stable in-edges from strictly earlier processes in the
    // permutation keep the follower layer acyclic, so the cores remain
    // the only root components.
    for (std::size_t e = 0; e < i; ++e) {
      if (rng.next_bool(params_.follower_edge_probability)) {
        stable_.add_edge(order[e], f);
      }
    }
  }
}

Digraph RandomPsrcsSource::graph(Round r) {
  Digraph g;
  graph_into(r, g);
  return g;
}

void RandomPsrcsSource::graph_into(Round r, Digraph& out) {
  SSKEL_REQUIRE(r >= 1);
  out = stable_;  // copy-assign: reuses out's adjacency storage
  if (r == params_.stabilization_round) return;
  if (r > params_.stabilization_round && !params_.noise_after_stabilization) {
    return;
  }
  Rng rng(mix_seed(seed_ ^ 0x5eed5eedULL, static_cast<std::uint64_t>(r)));
  const ProcId n = params_.n;
  for (ProcId q = 0; q < n; ++q) {
    for (ProcId p = 0; p < n; ++p) {
      if (q == p || out.has_edge(q, p)) continue;
      if (rng.next_bool(params_.noise_probability)) out.add_edge(q, p);
    }
  }
}

std::unique_ptr<RandomPsrcsSource> make_random_psrcs_source(
    std::uint64_t seed, const RandomPsrcsParams& params) {
  return std::make_unique<RandomPsrcsSource>(seed, params);
}

}  // namespace sskel
