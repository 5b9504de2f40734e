#include "mc/montecarlo.hpp"

#include "mc/parallel_for.hpp"
#include "util/rng.hpp"

namespace sskel {

void fold_scenario_trial(McSummary& summary, const ScenarioTrial& trial,
                         const KSetRunConfig& config) {
  const KSetRunReport& report = trial.kset;
  ++summary.runs;
  if (!report.all_decided) ++summary.undecided_runs;
  if (!report.verdict.k_agreement) ++summary.agreement_violations;
  if (!report.verdict.validity) ++summary.validity_violations;
  if (report.all_decided &&
      report.last_decision_round > report.termination_bound(config.guard)) {
    ++summary.bound_violations;
  }
  if (!report.lemma_violations.empty()) ++summary.lemma_violation_runs;

  summary.distinct_values.add(report.distinct_values);
  summary.distinct_histogram.add(report.distinct_values);
  const int roots = static_cast<int>(report.root_components_final.size());
  summary.root_components.add(roots);
  summary.root_histogram.add(roots);
  if (report.all_decided) {
    summary.last_decision_round.add(report.last_decision_round);
  }
  summary.stabilization_round.add(report.skeleton_last_change);
  summary.total_messages.add(static_cast<double>(report.total_messages));
  if (summary.bytes_measured) {
    summary.total_bytes.add(static_cast<double>(report.total_bytes));
    summary.max_message_bytes.add(
        static_cast<double>(report.max_message_bytes));
  }
  if (trial.net_backed) {
    summary.net_backed = true;
    summary.late_messages.add(static_cast<double>(trial.late_messages));
    summary.lost_messages.add(static_cast<double>(trial.lost_messages));
    summary.wall_clock_ms.add(static_cast<double>(trial.wall_clock) / 1000.0);
    summary.credit_stalls += trial.credit_stalls;
  }
}

void fold_scenario_trials(McSummary& summary,
                          const std::vector<ScenarioTrial>& results,
                          const KSetRunConfig& config,
                          const TrialCallback& per_trial) {
  for (std::size_t t = 0; t < results.size(); ++t) {
    fold_scenario_trial(summary, results[t], config);
    if (per_trial) per_trial(t, results[t]);
  }
}

McSummary run_scenario_trials(const ScenarioFactory& scenario,
                              std::uint64_t master_seed, int trials,
                              const KSetRunConfig& config, unsigned threads,
                              const TrialCallback& per_trial) {
  SSKEL_REQUIRE(trials >= 0);

  // Intern by default: trials on one worker share a table shard, so
  // the distinct structures of a whole seed sweep are analyzed once
  // per worker instead of once per trial. A caller-supplied domain
  // (config.intern) extends the sharing across several sweeps.
  InternDomain trial_domain;
  KSetRunConfig run_config = config;
  if (run_config.intern == nullptr) run_config.intern = &trial_domain;

  // High-water mark for this batch only (sets live before the batch
  // still count toward the level the mark is measured from).
  ProcSet::reset_peak_bytes();

  const std::vector<ScenarioTrial> results = collect_parallel<ScenarioTrial>(
      static_cast<std::size_t>(trials),
      [&](std::size_t t) {
        return scenario.run_trial(mix_seed(master_seed, t), run_config);
      },
      threads);

  McSummary summary;
  summary.scenario = scenario.name();
  summary.intern = run_config.intern->merged_stats();
  summary.intern_shards =
      static_cast<std::int64_t>(run_config.intern->shard_count());
  summary.peak_proc_set_bytes = ProcSet::peak_bytes();
  summary.live_proc_set_bytes = ProcSet::live_bytes();
  summary.arena_proc_set_bytes = ProcSet::arena_bytes();
  summary.arena_reuses = ProcSet::arena_reuses();
  summary.bytes_measured = config.measure_bytes;
  summary.scheduler = "pool";
  summary.tiles = static_cast<std::int64_t>(resolve_tile_count(threads));
  fold_scenario_trials(summary, results, config, per_trial);
  return summary;
}

McSummary run_random_psrcs_trials(std::uint64_t master_seed, int trials,
                                  const RandomPsrcsParams& params,
                                  const KSetRunConfig& config,
                                  unsigned threads) {
  const RandomPsrcsScenario scenario(params);
  return run_scenario_trials(scenario, master_seed, trials, config, threads);
}

}  // namespace sskel
