// Skeleton analysis utilities — the "duality between communication
// predicates and graph-theoretic properties" the paper's future-work
// section points at.
//
// Given a (stable) skeleton these functions answer: what is the
// smallest k for which Psrcs(k) holds? How does that compare to the
// number of root components? The paper shows
//   #root components <= min-k  (Theorem 1)
// and the Theorem 2 construction realizes equality; these helpers make
// the relation measurable on arbitrary skeletons.
#pragma once

#include <optional>

#include "graph/digraph.hpp"

namespace sskel {

/// Smallest k >= 1 such that Psrcs(k) holds on the skeleton, computed
/// exactly (Psrcs is monotone in k, so this is the first passing k).
/// Returns n-1 at worst (any skeleton with self-loops satisfies
/// Psrcs(n-1): among n processes, at most n-1 can be pairwise
/// "sourceless"... not in general — hence nullopt when even k = n-1
/// fails). Exponential in the worst case; intended for n <= ~20.
[[nodiscard]] std::optional<int> min_psrcs_k(const Digraph& skeleton);

/// Size of the largest "sourceless" subset: a set S such that no
/// process has edges to two distinct members of S. Psrcs(k) holds
/// iff this value is <= k. Exact via depth-first search with
/// feasibility pruning; exponential worst case, fine for n <= ~20.
[[nodiscard]] int max_sourceless_subset(const Digraph& skeleton);

/// Theorem 1 gap report for a skeleton: root components vs min-k.
struct PredicateProfile {
  int root_components = 0;
  int min_k = 0;            // smallest k with Psrcs(k), n-1+1 if none
  bool theorem1_consistent = false;  // root_components <= min_k
};

[[nodiscard]] PredicateProfile profile_skeleton(const Digraph& skeleton);

}  // namespace sskel
