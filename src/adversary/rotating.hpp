// RotatingStarSource: strong per-round synchrony with zero perpetual
// synchrony.
//
// Every round r the graph is a star centered at process
// (r - 1) mod n: the round kernel is nonempty (the center reaches
// everyone) and the round is nonsplit, the strongest per-round
// guarantees of the HO taxonomy. Yet no edge other than the self-loops
// survives n consecutive rounds, so the stable skeleton is bare
// self-loops: PT(p) = {p} and Psrcs(k) fails for every k < n - 1.
//
// Running Algorithm 1 on this source (experiment E12) makes every
// process decide as a *loner* (its approximation collapses to the
// singleton {p}); whatever agreement emerges is a round-1 accident of
// whose value leaked before PT collapsed, not a guarantee — the
// sharpest illustration of why the paper's predicate quantifies over
// *perpetual* timeliness: per-round synchrony that keeps moving is
// invisible to stable skeletons.
#pragma once

#include <memory>

#include "graph/digraph.hpp"
#include "rounds/graph_source.hpp"
#include "util/decode.hpp"
#include "util/param_table.hpp"

namespace sskel {

/// make_rotating_star_source's parameters, bar the first center.
struct RotatingParams {
  ProcId n = 4;
  Round hold = 1;
};

/// The declared parameter table (util/param_table.hpp).
template <ParamsOf<RotatingParams> P, typename Visit>
void for_each_field(P& params, Visit&& visit) {
  visit(ParamField{"n", 1, kMaxDecodeUniverse, 4}, params.n);
  visit(ParamField{"hold", 1, kMaxInt, 1}, params.hold);
}

/// Star centered at (first_center + (r - 1) / hold) mod n, so each
/// center persists for `hold` consecutive rounds (hold = 1 is the pure
/// rotation; a hold >= the run length degenerates to a fixed star at
/// first_center).
[[nodiscard]] std::unique_ptr<GraphSource> make_rotating_star_source(
    ProcId n, Round hold = 1, ProcId first_center = 0);

}  // namespace sskel
