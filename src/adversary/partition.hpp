// PartitionSource: a partitioned system — the paper's own motivating
// scenario for k > 1 ("partitionable systems that need to reach
// consensus in every partition", Sec. I).
//
// Pi is split into m disjoint blocks. Within a block, communication is
// reliable all-to-all; across blocks, links are down, except for
// optional transient cross-block noise during a finite prefix. The
// stable skeleton is a disjoint union of complete blocks, so it has
// exactly m root components, Psrcs(m) holds (two of any m+1 processes
// share a block, and either one of those two is a 2-source for the
// pair), and Algorithm 1 reaches consensus *within each block* —
// m-set agreement globally.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "rounds/graph_source.hpp"
#include "util/decode.hpp"
#include "util/param_table.hpp"
#include "util/rng.hpp"

namespace sskel {

struct PartitionParams {
  /// Disjoint, covering blocks.
  std::vector<ProcSet> blocks;
  /// Cross-block noise probability during rounds < stabilization_round.
  double cross_noise_probability = 0.0;
  /// First round with *exactly* the block-local graph (>= 1).
  Round stabilization_round = 1;
};

/// A partition's blocks: even_blocks(n, m) from a spec, any partition
/// from code (PartitionSource checks that it is one). Fingerprinted as
/// universe, block count, then each block's count and members.
struct BlocksField {
  ParamField n;
  ParamField m;

  /// If `error` is empty and n or m lies outside its range or m > n,
  /// sets `error` to why.
  void check(std::int64_t processes, std::int64_t blocks,
             std::string& error) const {
    n.check(static_cast<double>(processes), error);
    m.check(static_cast<double>(blocks), error);
    if (error.empty() && blocks > processes) {
      set_error(error, "partition needs m <= n");
    }
  }
  void check(const std::vector<ProcSet>& blocks, std::string& error) const {
    check(blocks.empty() ? 0 : blocks.front().universe(),
          static_cast<std::int64_t>(blocks.size()), error);
  }
};

/// n is capped like the trace decoder, so a recorded run decodes again.
inline constexpr BlocksField kPartitionBlocks{{"n", 1, kMaxDecodeUniverse, 4},
                                              {"m", 1, kMaxInt, 2}};

/// The declared parameter table (util/param_table.hpp).
template <ParamsOf<PartitionParams> P, typename Visit>
void for_each_field(P& params, Visit&& visit) {
  visit(kPartitionBlocks, params.blocks);
  visit(ParamField{"noise", 0, 1, 0.0}, params.cross_noise_probability);
  visit(ParamField{"stabilize", 1, kMaxInt, 1}, params.stabilization_round);
}

void put_field(std::vector<std::uint8_t>& out,
               const std::vector<ProcSet>& blocks);

class PartitionSource final : public GraphSource {
 public:
  PartitionSource(std::uint64_t seed, PartitionParams params);

  [[nodiscard]] ProcId n() const override { return n_; }
  [[nodiscard]] Digraph graph(Round r) override;
  /// Allocation-free round generation over the stable block structure.
  void graph_into(Round r, Digraph& out) override;

  /// Rebinds the source to a new trial seed. Equivalent to
  /// constructing PartitionSource(seed, same params) — the seed only
  /// feeds the per-round noise RNG — but skips re-validating the
  /// partition and rebuilding the stable graph, so per-worker trial
  /// scratches can reuse one source across a whole batch.
  void reseed(std::uint64_t seed) { seed_ = seed; }

  /// The stable skeleton: disjoint complete blocks (self-loops in).
  [[nodiscard]] const Digraph& stable_skeleton() const { return stable_; }

  [[nodiscard]] const std::vector<ProcSet>& blocks() const {
    return params_.blocks;
  }

 private:
  std::uint64_t seed_;
  PartitionParams params_;
  ProcId n_;
  Digraph stable_;
};

/// Splits n processes into m nearly equal contiguous blocks.
[[nodiscard]] std::vector<ProcSet> even_blocks(ProcId n, int m);

}  // namespace sskel
