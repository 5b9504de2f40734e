#include "adversary/rotating.hpp"

#include "util/assert.hpp"

namespace sskel {

std::unique_ptr<GraphSource> make_rotating_star_source(ProcId n, Round hold,
                                                       ProcId first_center) {
  SSKEL_REQUIRE(validate(RotatingParams{n, hold}).empty());
  SSKEL_REQUIRE(first_center >= 0 && first_center < n);
  return std::make_unique<FunctionSource>(
      n, [n, hold, first_center](Round r) {
        const ProcId center = static_cast<ProcId>(
            (static_cast<Round>(first_center) + (r - 1) / hold) %
            static_cast<Round>(n));
        Digraph g = Digraph::self_loops_only(n);
        for (ProcId p = 0; p < n; ++p) g.add_edge(center, p);
        return g;
      });
}

}  // namespace sskel
