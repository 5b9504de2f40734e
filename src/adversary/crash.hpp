// CrashSource: the classic synchronous crash-failure model, expressed
// as communication graphs.
//
// Following the paper's treatment (and [4, Sec. 2.2]), a crashed
// process is an "internally correct" process that nobody hears from
// any more: in the round it crashes it may reach an arbitrary subset
// of receivers (the classic partial broadcast), and from the next
// round on its out-edges are gone (except the implicit self-loop).
// Correct processes enjoy reliable all-to-all delivery.
//
// The resulting stable skeleton has exactly one root component — the
// set of processes that never crash (strongly connected all-to-all,
// and crashed processes' outgoing edges died in/after their crash
// round, so the component has no stable in-edges from outside)
// — which is why Algorithm 1 reaches *consensus* in this model (the
// Sec. V remark). The source exists mainly as the common ground for
// the FloodMin comparison (experiment E7).
#pragma once

#include <memory>
#include <vector>

#include "graph/digraph.hpp"
#include "rounds/graph_source.hpp"
#include "util/decode.hpp"
#include "util/param_table.hpp"
#include "util/rng.hpp"

namespace sskel {

struct CrashEvent {
  ProcId victim = -1;
  /// Round in which the victim crashes (>= 1).
  Round round = 1;
  /// Receivers the victim still reaches in its crash round.
  ProcSet partial_receivers;
};

class CrashSource final : public GraphSource {
 public:
  /// Events must name distinct victims.
  CrashSource(ProcId n, std::vector<CrashEvent> events);

  [[nodiscard]] ProcId n() const override { return n_; }
  [[nodiscard]] Digraph graph(Round r) override;

  /// Processes that never crash.
  [[nodiscard]] ProcSet correct_processes() const;

  [[nodiscard]] const std::vector<CrashEvent>& events() const {
    return events_;
  }

 private:
  ProcId n_;
  std::vector<CrashEvent> events_;
};

/// f distinct victims crash at uniformly random rounds in
/// [1, max_crash_round], each reaching a uniformly random subset in
/// its crash round.
/// make_random_crash_source's parameters.
struct CrashParams {
  ProcId n = 5;
  int crashes = 1;
  Round max_crash_round = 3;
};

/// The declared parameter table (util/param_table.hpp).
template <ParamsOf<CrashParams> P, typename Visit>
void for_each_field(P& params, Visit&& visit) {
  visit(ParamField{"n", 1, kMaxDecodeUniverse, 5}, params.n);
  visit(ParamField{"crashes", 0, kMaxInt, 1}, params.crashes);
  visit(ParamField{"maxcrash", 1, kMaxInt, 3}, params.max_crash_round);
  visit(ParamRule{"crash needs crashes < n"}, params.crashes < params.n);
}

[[nodiscard]] std::unique_ptr<CrashSource> make_random_crash_source(
    std::uint64_t seed, ProcId n, int f, Round max_crash_round);

}  // namespace sskel
