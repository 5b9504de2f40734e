// Monte-Carlo aggregation over seeded scenario trials.
//
// The statistical experiments (E2, E4, E5, E7, E11, parts of E8) all
// share one shape: sample many seeded adversaries from a scenario
// factory, run Algorithm 1 on each, and aggregate
// decision/skeleton/traffic metrics. This module is that loop,
// parallelized over trials; results are folded in trial order, so
// every aggregate is bit-identical for every thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "adversary/random_psrcs.hpp"
#include "kset/runner.hpp"
#include "mc/scenario.hpp"
#include "skeleton/intern.hpp"
#include "util/stats.hpp"

namespace sskel {

struct McSummary {
  /// name() of the scenario the trials came from.
  std::string scenario;
  std::int64_t runs = 0;
  /// Runs in which some process failed to decide within max_rounds.
  std::int64_t undecided_runs = 0;
  /// Runs violating k-agreement (must stay 0 under Psrcs(k)).
  std::int64_t agreement_violations = 0;
  /// Runs violating validity.
  std::int64_t validity_violations = 0;
  /// Runs whose last decision exceeded Lemma 11's bound.
  std::int64_t bound_violations = 0;
  /// Runs with lemma-monitor findings (when the monitor is attached).
  std::int64_t lemma_violation_runs = 0;

  Accumulator distinct_values;       // per run
  Accumulator root_components;       // of the final skeleton
  Accumulator last_decision_round;   // over decided runs
  Accumulator stabilization_round;   // observed r_ST
  Accumulator total_messages;
  /// Byte accumulators are fed only when the run config enables
  /// measure_bytes; bytes_measured records which case this was.
  bool bytes_measured = false;
  Accumulator total_bytes;
  Accumulator max_message_bytes;
  IntHistogram distinct_histogram;
  IntHistogram root_histogram;

  /// Network accounting (net-backed scenarios only).
  bool net_backed = false;
  Accumulator late_messages;
  Accumulator lost_messages;
  Accumulator wall_clock_ms;  // simulated milliseconds
  /// Always 0 since the ring plane lost its credits; kept because it
  /// is part of the SSKC summary encoding and bench harnesses read it.
  std::int64_t credit_stalls = 0;

  /// Structure-interning counters, merged over the per-worker shards
  /// (DESIGN.md §10). run_scenario_trials interns by default — it
  /// creates a trial-scoped InternDomain when the run config does not
  /// supply one — so cross-trial structure sharing shows up here.
  InternStats intern;
  std::int64_t intern_shards = 0;

  /// ProcSet heap accounting over the whole batch: the live-bytes
  /// high-water mark reached while the trials ran (peak reset at batch
  /// start) and the bytes still live when they finished (structures
  /// retained by the intern domain and any caller-held state). The
  /// n = 65,536 scale runs are sized by these.
  std::int64_t peak_proc_set_bytes = 0;
  std::int64_t live_proc_set_bytes = 0;
  /// Word-arena state after the batch: bytes parked for reuse in the
  /// per-thread arenas (outside live_proc_set_bytes) and the running
  /// count of dense materializations served from a recycled buffer.
  std::int64_t arena_proc_set_bytes = 0;
  std::int64_t arena_reuses = 0;

  /// Scheduler provenance (DESIGN.md §13): which trial scheduler
  /// produced this summary ("pool" or "tile-plane") and how many
  /// workers/tiles it ran. Excluded from the cross-scheduler
  /// bit-equality tripwire, like the intern/arena fields above.
  /// tile_placement and failed_pins always read "" and 0 (tiles are
  /// never pinned); they stay because the frozen skbench reads them.
  std::string scheduler = "pool";
  std::int64_t tiles = 0;
  std::string tile_placement;
  std::int64_t failed_pins = 0;
};

/// Optional per-trial hook, invoked in trial order after the parallel
/// phase (so it is deterministic too). Receives the trial index and
/// the full trial result; use it for per-trial tables the summary's
/// accumulators don't capture.
using TrialCallback = std::function<void(std::size_t, const ScenarioTrial&)>;

/// Folds per-trial results into `summary` in trial order and fires
/// `per_trial` for each. Shared verbatim by the pool scheduler
/// (run_scenario_trials) and the tile-plane scheduler (McTilePlane),
/// so the trial-derived aggregates are bit-identical across
/// schedulers by construction. `config` supplies the guard for the
/// Lemma-11 bound check and measure_bytes gating; summary.runs etc.
/// accumulate on top of whatever is already in `summary`.
void fold_scenario_trials(McSummary& summary,
                          const std::vector<ScenarioTrial>& results,
                          const KSetRunConfig& config,
                          const TrialCallback& per_trial = {});

/// Folds one trial. fold_scenario_trials is exactly this in a loop, so
/// folding trials one at a time in trial order — the campaign engine's
/// streaming discipline — produces a summary bit-identical to a single
/// batch fold of the same trials: the resume proof (DESIGN.md §15)
/// rests on this left-fold identity. summary.bytes_measured must be
/// set before the first fold (it gates the byte accumulators).
void fold_scenario_trial(McSummary& summary, const ScenarioTrial& trial,
                         const KSetRunConfig& config);

/// Runs `trials` independent trials of `scenario`. Trial t uses the
/// seed mix_seed(master_seed, t). `threads` resolves through
/// resolve_tile_count: 0 = SSKEL_THREADS or hardware concurrency, and
/// SSKEL_THREADS caps an explicit count.
[[nodiscard]] McSummary run_scenario_trials(
    const ScenarioFactory& scenario, std::uint64_t master_seed, int trials,
    const KSetRunConfig& config, unsigned threads = 0,
    const TrialCallback& per_trial = {});

/// The original random-Psrcs entry point, now a RandomPsrcsScenario
/// instantiation of run_scenario_trials (same seeds, same results).
[[nodiscard]] McSummary run_random_psrcs_trials(std::uint64_t master_seed,
                                                int trials,
                                                const RandomPsrcsParams& params,
                                                const KSetRunConfig& config,
                                                unsigned threads = 0);

}  // namespace sskel
