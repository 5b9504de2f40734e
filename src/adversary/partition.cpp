#include "adversary/partition.hpp"

#include "util/assert.hpp"

namespace sskel {

PartitionSource::PartitionSource(std::uint64_t seed, PartitionParams params)
    : seed_(seed), params_(std::move(params)), n_(0), stable_() {
  SSKEL_REQUIRE(validate(params_).empty());
  n_ = params_.blocks.front().universe();

  // Blocks must partition the universe.
  ProcSet seen(n_);
  for (const ProcSet& block : params_.blocks) {
    SSKEL_REQUIRE(block.universe() == n_);
    SSKEL_REQUIRE(!block.empty());
    SSKEL_REQUIRE(!seen.intersects(block));
    seen |= block;
  }
  SSKEL_REQUIRE(seen == ProcSet::full(n_));

  stable_ = Digraph(n_);
  stable_.add_self_loops();
  for (const ProcSet& block : params_.blocks) {
    for (ProcId q : block) {
      for (ProcId p : block) stable_.add_edge(q, p);
    }
  }
}

Digraph PartitionSource::graph(Round r) {
  Digraph g;
  graph_into(r, g);
  return g;
}

void PartitionSource::graph_into(Round r, Digraph& out) {
  SSKEL_REQUIRE(r >= 1);
  out = stable_;  // copy-assign: reuses out's adjacency storage
  if (r >= params_.stabilization_round ||
      params_.cross_noise_probability <= 0.0) {
    return;
  }
  Rng rng(mix_seed(seed_, static_cast<std::uint64_t>(r)));
  for (ProcId q = 0; q < n_; ++q) {
    for (ProcId p = 0; p < n_; ++p) {
      if (out.has_edge(q, p)) continue;
      if (rng.next_bool(params_.cross_noise_probability)) out.add_edge(q, p);
    }
  }
}

std::vector<ProcSet> even_blocks(ProcId n, int m) {
  std::string error;
  kPartitionBlocks.check(n, m, error);
  SSKEL_REQUIRE(error.empty());
  std::vector<ProcSet> blocks;
  const ProcId base = n / static_cast<ProcId>(m);
  const ProcId extra = n % static_cast<ProcId>(m);
  ProcId next = 0;
  for (int b = 0; b < m; ++b) {
    const ProcId size = base + (static_cast<ProcId>(b) < extra ? 1 : 0);
    ProcSet block(n);
    for (ProcId i = 0; i < size; ++i) block.insert(next++);
    blocks.push_back(std::move(block));
  }
  SSKEL_ASSERT(next == n);
  return blocks;
}

void put_field(std::vector<std::uint8_t>& out,
               const std::vector<ProcSet>& blocks) {
  put_field(out, blocks.front().universe());
  put_field(out, blocks.size());
  for (const ProcSet& block : blocks) {
    put_field(out, block.count());
    for (const ProcId p : block) put_field(out, p);
  }
}

}  // namespace sskel
