#include "predicates/analysis.hpp"

#include <algorithm>
#include <vector>

#include "graph/scc.hpp"
#include "predicates/psrcs.hpp"
#include "util/assert.hpp"

namespace sskel {

namespace {

/// Branch-and-bound search for the largest set S with no 2-source:
/// for every process p, |out(p) ∩ S| <= 1. `counts[p]` tracks
/// |out(p) ∩ S| along the current branch.
void search(const Digraph& skeleton, const std::vector<ProcId>& order,
            std::size_t index, ProcSet& current, std::vector<int>& counts,
            int& best) {
  const int size = current.count();
  best = std::max(best, size);
  // Bound: even taking every remaining candidate cannot beat best.
  if (size + static_cast<int>(order.size() - index) <= best) return;
  if (index == order.size()) return;

  const ProcId v = order[index];

  // Branch 1: include v if no out-row would exceed one member of S.
  bool feasible = true;
  for (ProcId p : skeleton.in_neighbors(v)) {
    if (counts[static_cast<std::size_t>(p)] >= 1) {
      feasible = false;
      break;
    }
  }
  if (feasible) {
    current.insert(v);
    for (ProcId p : skeleton.in_neighbors(v)) {
      ++counts[static_cast<std::size_t>(p)];
    }
    search(skeleton, order, index + 1, current, counts, best);
    for (ProcId p : skeleton.in_neighbors(v)) {
      --counts[static_cast<std::size_t>(p)];
    }
    current.erase(v);
  }

  // Branch 2: exclude v.
  search(skeleton, order, index + 1, current, counts, best);
}

}  // namespace

int max_sourceless_subset(const Digraph& skeleton) {
  const ProcId n = skeleton.n();
  std::vector<ProcId> order;
  for (ProcId p : skeleton.nodes()) order.push_back(p);
  ProcSet current(n);
  std::vector<int> counts(static_cast<std::size_t>(n), 0);
  int best = 0;
  search(skeleton, order, 0, current, counts, best);
  return best;
}

std::optional<int> min_psrcs_k(const Digraph& skeleton) {
  const ProcId n = skeleton.n();
  if (n < 2) return 1;  // vacuous: no subsets of size >= 2
  // Psrcs(k) holds iff the largest sourceless subset has size <= k.
  const int worst = max_sourceless_subset(skeleton);
  const int k = std::max(worst, 1);
  if (k >= n) return std::nullopt;  // even Psrcs(n-1) fails
  // Cross-check against the subset-enumerating checker when cheap.
  SSKEL_ASSERT(n > 20 || check_psrcs_exact(skeleton, k).holds);
  return k;
}

PredicateProfile profile_skeleton(const Digraph& skeleton) {
  PredicateProfile profile;
  profile.root_components = static_cast<int>(root_components(skeleton).size());
  const auto k = min_psrcs_k(skeleton);
  profile.min_k = k.value_or(skeleton.n());
  profile.theorem1_consistent = profile.root_components <= profile.min_k;
  return profile;
}

}  // namespace sskel
