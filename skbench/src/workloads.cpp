#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/partition.hpp"
#include "adversary/random_psrcs.hpp"
#include "campaign/campaign.hpp"
#include "campaign/checkpoint.hpp"
#include "graph/scc.hpp"
#include "mc/montecarlo.hpp"
#include "predicates/psrcs.hpp"
#include "skeleton/intern.hpp"
#include "skeleton/tracker.hpp"
#include "spans.hpp"
#include "traced.hpp"
#include "util/proc_set.hpp"
#include "util/rng.hpp"

namespace skbench {

namespace {

using namespace sskel;

constexpr double kMiB = 1024.0 * 1024.0;

/// Runs rep() until `seconds` have passed and at least `min_reps` reps
/// ran.
template <typename Fn>
void repeat_for(double seconds, int min_reps, Fn&& rep) {
  const std::int64_t start = now_ns();
  for (int i = 0; i < min_reps || seconds_between(start, now_ns()) < seconds;
       ++i) {
    rep();
  }
}

/// Runs with any k-agreement, validity, termination or Lemma-11 failure
/// (a run may break several; the count is capped at the run count).
std::int64_t violating_runs(const McSummary& s) {
  return std::min(s.runs, s.undecided_runs + s.agreement_violations +
                              s.validity_violations + s.bound_violations);
}

double ratio(std::int64_t part, std::int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

void end_to_end(Result& result, const std::vector<double>& rate,
                const std::vector<double>& track_s,
                const std::vector<double>& setup_s) {
  result.metric("trials_per_sec", median(rate), "1/s");
  result.metric("track_s", median(track_s), "s");
  result.metric("setup_s", median(setup_s), "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

// --- single-thread replays (trace mode) -----------------------------------

/// The graph source of trial `seed`, valid until the next call.
using SourceFor = std::function<GraphSource&(std::uint64_t seed)>;
/// One traced trial of `seed`.
using TracedTrial = std::function<ScenarioTrial(std::uint64_t seed)>;

struct ReplayPlan {
  const ScenarioFactory* scenario = nullptr;
  KSetRunConfig config;  // intern is supplied per replay
  std::uint64_t master = 0;
  int trials = 0;
  /// Encode/decode a checkpoint of the replay fold every N trials
  /// (0 = the workload does not checkpoint).
  std::int64_t checkpoint_every = 0;
  std::uint64_t fingerprint = 0;
  /// Run the workload's check_psrcs_exact(final_skeleton, k) callback
  /// (0 = none).
  int psrcs_k = 0;
};

struct ReplayOutcome {
  double mean_trial_s = 0.0;
  double rounds_per_trial = 0.0;
  double messages_per_trial = 0.0;
};

/// Replays trials 0 .. plan.trials-1 of the workload's seed sequence on
/// this thread, each trial twice in a row: untraced through the
/// scenario's own run_trial (with worker scratch, as a tile runs it),
/// recording one root span, and traced through `traced`; then come the
/// fold, verdict and checkpoint calls the workload makes per trial.
/// Interleaving the two keeps host drift out of their comparison. Each
/// traced report must equal the untraced one. The two passes keep
/// separate intern domains, so they see the same hits and misses;
/// `traced_config` carries the traced pass's domain.
ReplayOutcome replay(const ReplayPlan& plan,
                     const KSetRunConfig& traced_config,
                     const TracedTrial& traced, SpanRecorder& recorder,
                     Result& result) {
  InternDomain untraced_domain;
  KSetRunConfig untraced_config = plan.config;
  untraced_config.intern = &untraced_domain;
  const std::unique_ptr<ScenarioFactory::Scratch> scratch =
      plan.scenario->make_scratch();
  McSummary summary;
  summary.bytes_measured = traced_config.measure_bytes;
  ReplayOutcome outcome;
  double untraced_s = 0.0;
  for (int t = 0; t < plan.trials; ++t) {
    const std::uint64_t seed =
        mix_seed(plan.master, static_cast<std::uint64_t>(t));
    recorder.set_trial(t);
    ScenarioTrial reference;
    ScenarioTrial trial;
    const auto untraced_pass = [&] {
      const std::int64_t start = now_ns();
      reference = plan.scenario->run_trial(seed, untraced_config, scratch.get());
      const std::int64_t end = now_ns();
      recorder.add_root(SpanName::kTrialUntraced, start, end);
      untraced_s += seconds_between(start, end);
    };
    const auto traced_pass = [&] {
      const ScopedSpan span(recorder, SpanName::kTrial);
      trial = traced(seed);
    };
    // The second run of a seed finds its code paths warm, so the order
    // alternates.
    if (t % 2 == 0) {
      untraced_pass();
      traced_pass();
    } else {
      traced_pass();
      untraced_pass();
    }
    result.check(same_trial(trial, reference),
                 "traced replay report differs from run_trial");
    // The per-trial calls take the library's own result, as the
    // workload's fold and callback do: equal reports can still differ
    // in ProcSet layout, which check_psrcs_exact's speed depends on.
    {
      const ScopedSpan span(recorder, SpanName::kFold);
      fold_scenario_trial(summary, reference, traced_config);
    }
    if (plan.psrcs_k > 0) {
      const ScopedSpan span(recorder, SpanName::kPsrcsExact);
      (void)check_psrcs_exact(reference.kset.final_skeleton, plan.psrcs_k);
    }
    if (plan.checkpoint_every > 0 && (t + 1) % plan.checkpoint_every == 0) {
      CampaignCheckpoint checkpoint;
      checkpoint.spec_fingerprint = plan.fingerprint;
      checkpoint.jobs.push_back(JobCheckpoint{summary, t + 1});
      std::vector<std::uint8_t> bytes;
      {
        const ScopedSpan span(recorder, SpanName::kCkptEncode);
        bytes = encode_checkpoint(checkpoint);
      }
      std::optional<DecodeResult<CampaignCheckpoint>> decoded;
      {
        const ScopedSpan span(recorder, SpanName::kCkptDecode);
        decoded.emplace(decode_checkpoint(bytes));
      }
      result.check(
          decoded->ok() && encode_checkpoint(decoded->value()) == bytes,
          "checkpoint encode/decode round trip");
    }
    outcome.rounds_per_trial +=
        static_cast<double>(reference.kset.rounds_executed);
    outcome.messages_per_trial +=
        static_cast<double>(reference.kset.total_messages);
  }
  const auto trials = static_cast<double>(std::max(plan.trials, 1));
  outcome.mean_trial_s = untraced_s / trials;
  outcome.rounds_per_trial /= trials;
  outcome.messages_per_trial /= trials;
  return outcome;
}

void replay_layers(Result& result, const ReplayOutcome& outcome,
                   double trials_per_sec, unsigned workers) {
  result.layer("kset.rounds_per_trial", outcome.rounds_per_trial, "count");
  result.layer("kset.messages_per_trial", outcome.messages_per_trial, "count");
  // Derived: the share of worker time a trial's own single-thread cost
  // explains; the rest is scheduling, dispatch and waiting.
  result.layer("mc.tile_busy_pct",
               100.0 * outcome.mean_trial_s * trials_per_sec /
                   static_cast<double>(std::max(workers, 1u)),
               "pct");
}

/// Traced Simulator replay over the sources `source_for` yields.
ReplayOutcome replay_simulator(const ReplayPlan& plan,
                               const SourceFor& source_for,
                               SpanRecorder& recorder, Result& result) {
  InternDomain traced_domain;
  KSetRunConfig traced_config = plan.config;
  traced_config.intern = &traced_domain;
  SimReplay sim(recorder, plan.scenario->n(), traced_config);
  return replay(
      plan, traced_config,
      [&](std::uint64_t seed) {
        ScenarioTrial trial;
        trial.kset = sim.run(source_for(seed));
        return trial;
      },
      recorder, result);
}

// --- campaign-n4 / campaign-psrcs32 ----------------------------------------

struct CampaignShape {
  std::shared_ptr<const ScenarioFactory> (*make_scenario)();
  int k = 1;
  std::int64_t trials = 0;  // per rep
  std::int64_t checkpoint_every = 0;
  /// Stop the run halfway (stop_after_trials) and finish with resume().
  bool kill_and_resume = false;
  int replay_trials = 0;
  std::int64_t replay_checkpoint_every = 0;
};

PartitionParams n4_params() {
  PartitionParams params;
  params.blocks = even_blocks(4, 2);
  params.cross_noise_probability = 0.0;
  params.stabilization_round = 1;
  return params;
}

RandomPsrcsParams psrcs32_params() {
  RandomPsrcsParams params;
  params.n = 32;
  params.k = 4;
  params.root_components = 3;
  params.max_core_size = 4;
  params.noise_probability = 0.25;
  params.stabilization_round = 4;
  return params;
}

std::shared_ptr<const ScenarioFactory> make_n4() {
  return std::make_shared<PartitionScenario>(n4_params());
}

std::shared_ptr<const ScenarioFactory> make_psrcs32() {
  return std::make_shared<RandomPsrcsScenario>(psrcs32_params());
}

void run_campaign(const Options& options, const CampaignShape& shape,
                  const SourceFor& source_for, Result& result) {
  const std::uint64_t master = mix_seed(options.seed, 0xCA3);
  const std::string state_dir = options.out_dir + "/state-" + options.workload;

  std::vector<double> setup_s, rate, track_s, resume_s, stall_pct,
      checkpoints, checkpoint_bytes, submit_stalls, result_stalls, peak_mb,
      arena_reuses;
  std::vector<std::vector<std::uint8_t>> resumed;
  std::int64_t intern_hits = 0;
  std::int64_t intern_misses = 0;

  const auto make_spec = [&] {
    CampaignSpec spec;
    spec.config.k = shape.k;
    spec.jobs.push_back(CampaignJob{options.workload, shape.make_scenario(),
                                    master, shape.trials});
    return spec;
  };
  CampaignOptions campaign;
  campaign.plane.tiles = options.workers;
  campaign.checkpoint_every = shape.checkpoint_every;
  campaign.state_dir = state_dir;
  CampaignOptions first_options = campaign;
  if (shape.kill_and_resume) first_options.stop_after_trials = shape.trials / 2;

  repeat_for(options.seconds, 3, [&] {
    const std::int64_t t0 = now_ns();
    const CampaignSpec spec = make_spec();
    std::optional<CampaignEngine> engine(std::in_place, spec, first_options);
    const std::int64_t t1 = now_ns();
    setup_s.push_back(seconds_between(t0, t1));

    ProcSet::reset_peak_bytes();
    const std::int64_t arena_before = ProcSet::arena_reuses();
    std::vector<CampaignResult> runs;
    runs.push_back(engine->run());
    // Destroying the engine joins its plane's tiles before the resumed
    // run starts its own, as a restarted process would.
    engine.reset();
    const std::int64_t t2 = now_ns();
    if (shape.kill_and_resume) {
      CampaignEngine resumer(spec, campaign);
      runs.push_back(resumer.resume());
    }
    const std::int64_t t3 = now_ns();

    const CampaignResult& last = runs.back();
    std::int64_t folded = 0;
    double stall_seconds = 0.0;
    double written = 0.0;
    double bytes = 0.0;
    double submit = 0.0;
    double collect = 0.0;
    for (const CampaignResult& run : runs) {
      folded += run.stats.trials_folded;
      stall_seconds += run.stats.checkpoint_stall_seconds;
      written += static_cast<double>(run.stats.checkpoints_written);
      bytes += static_cast<double>(run.stats.checkpoint_bytes);
      submit += static_cast<double>(run.stats.submit_stalls);
      collect += static_cast<double>(run.stats.result_stalls);
      intern_hits += run.summaries[0].intern.hits;
      intern_misses += run.summaries[0].intern.misses;
    }
    std::filesystem::remove_all(state_dir);
    result.check(last.completed && folded == shape.trials &&
                     (!shape.kill_and_resume || !runs.front().completed),
                 "campaign did not fold every trial exactly once");
    const McSummary& summary = last.summaries[0];
    result.count(shape.trials, violating_runs(summary),
                 "summary reports agreement/validity/undecided/bound violations");
    if (shape.kill_and_resume) {
      resumed.push_back(encode_summary_trial_fields(summary));
      resume_s.push_back(seconds_between(t2, t3));
    }
    const double rep_s = seconds_between(t1, t3);
    rate.push_back(static_cast<double>(folded) / rep_s);
    track_s.push_back(rep_s);
    stall_pct.push_back(100.0 * stall_seconds / rep_s);
    checkpoints.push_back(written);
    checkpoint_bytes.push_back(bytes);
    submit_stalls.push_back(submit);
    result_stalls.push_back(collect);
    peak_mb.push_back(static_cast<double>(ProcSet::peak_bytes()) / kMiB);
    arena_reuses.push_back(
        static_cast<double>(ProcSet::arena_reuses() - arena_before));
    result.host.workers = static_cast<unsigned>(summary.tiles);
    result.host.failed_pins = summary.failed_pins;
    if (!summary.tile_placement.empty()) {
      result.host.placement = summary.tile_placement;
    }
  });
  end_to_end(result, rate, track_s, setup_s);
  result.host.writer_threads = 1;

  if (shape.kill_and_resume) {
    // The uninterrupted reference over the same seeds: every resumed
    // summary must match it byte for byte.
    CampaignEngine engine(make_spec(), campaign);
    const std::vector<std::uint8_t> reference =
        encode_summary_trial_fields(engine.run().summaries[0]);
    for (const std::vector<std::uint8_t>& bytes : resumed) {
      result.check(bytes == reference && fnv1a64(bytes) == fnv1a64(reference),
                   "resumed summary differs from the uninterrupted run");
    }
  }
  std::filesystem::remove_all(state_dir);

  result.layer("skeleton.intern_hit_ratio",
               ratio(intern_hits, intern_hits + intern_misses), "ratio");
  result.layer("mc.submit_stalls", median(submit_stalls), "count");
  result.layer("mc.result_stalls", median(result_stalls), "count");
  result.layer("campaign.checkpoint_stall_pct", median(stall_pct), "pct");
  result.layer("campaign.checkpoints_written", median(checkpoints), "count");
  result.layer("campaign.checkpoint_bytes", median(checkpoint_bytes), "bytes");
  if (shape.kill_and_resume) {
    result.layer("campaign.resume_s", median(resume_s), "s");
  }
  result.layer("util.proc_set_peak_mb", median(peak_mb), "MB");
  result.layer("util.arena_reuses", median(arena_reuses), "count");

  if (!options.trace) return;
  const CampaignSpec spec = make_spec();
  ReplayPlan plan;
  plan.scenario = spec.jobs[0].scenario.get();
  plan.config = spec.config;
  plan.master = master;
  plan.trials = shape.replay_trials;
  plan.checkpoint_every = shape.replay_checkpoint_every;
  plan.fingerprint = spec.fingerprint();
  SpanRecorder recorder;
  const ReplayOutcome outcome =
      replay_simulator(plan, source_for, recorder, result);
  replay_layers(result, outcome, median(rate), result.host.workers);
  result.check(recorder.write(result.spans_file), "writing the span file");
}

void campaign_n4(const Options& options, Result& result) {
  CampaignShape shape;
  shape.make_scenario = &make_n4;
  shape.k = 2;
  shape.trials = 40000;
  shape.checkpoint_every = 5000;
  shape.kill_and_resume = true;
  shape.replay_trials = 2000;
  shape.replay_checkpoint_every = 250;
  // The scenario's worker scratch reseeds one persistent source.
  PartitionSource source(0, n4_params());
  run_campaign(
      options, shape,
      [&](std::uint64_t seed) -> GraphSource& {
        source.reseed(seed);
        return source;
      },
      result);
}

void campaign_psrcs32(const Options& options, Result& result) {
  CampaignShape shape;
  shape.make_scenario = &make_psrcs32;
  shape.k = 4;
  shape.trials = 120;
  shape.checkpoint_every = 40;
  shape.replay_trials = 40;
  shape.replay_checkpoint_every = 10;
  std::optional<RandomPsrcsSource> source;
  run_campaign(
      options, shape,
      [&](std::uint64_t seed) -> GraphSource& {
        return source.emplace(seed, psrcs32_params());
      },
      result);
}

// --- net-e11 ---------------------------------------------------------------

/// E11's hub network at n = 16: hubs 0..2 reach every process over
/// timely links (100-700 us), every other link is flaky at 0.35.
LinkMatrix e11_links() {
  constexpr ProcId kN = 16;
  Digraph stable(kN);
  stable.add_self_loops();
  for (ProcId p = 0; p < kN; ++p) stable.add_edge(p % 3, p);
  LinkMatrix links = LinkMatrix::all_flaky(kN, 0.35);
  links.upgrade_to_timely(stable, 100, 700);
  return links;
}

NetConfig e11_net() {
  NetConfig net;
  net.round_duration = 950;
  for (ProcId p = 0; p < 16; ++p) {
    net.skews.push_back((static_cast<SimTime>(p) * 37) % 201);
  }
  return net;
}

void net_e11(const Options& options, Result& result) {
  constexpr int kK = 3;
  constexpr int kTrials = 300;  // per batch call
  const std::uint64_t master = mix_seed(options.seed, 0xE11);
  KSetRunConfig config;
  config.k = kK;

  std::vector<double> setup_s, rate, track_s, peak_mb, arena_reuses,
      credit_stalls;
  std::int64_t intern_hits = 0;
  std::int64_t intern_misses = 0;
  double delivered = 0.0;
  double late = 0.0;
  double lost = 0.0;
  std::int64_t trials = 0;

  repeat_for(options.seconds, 3, [&] {
    const std::int64_t t0 = now_ns();
    const NetScenario scenario(e11_links(), e11_net());
    const std::int64_t t1 = now_ns();
    setup_s.push_back(seconds_between(t0, t1));

    std::int64_t failed = 0;
    const std::int64_t arena_before = ProcSet::arena_reuses();
    const McSummary summary = run_scenario_trials(
        scenario, master, kTrials, config, options.workers,
        [&](std::size_t, const ScenarioTrial& trial) {
          const KSetRunReport& r = trial.kset;
          const bool psrcs = check_psrcs_exact(r.final_skeleton, kK).holds;
          if (!r.all_decided || (psrcs && r.distinct_values > kK)) ++failed;
          delivered += static_cast<double>(trial.delivered_messages);
          late += static_cast<double>(trial.late_messages);
          lost += static_cast<double>(trial.lost_messages);
        });
    const std::int64_t t2 = now_ns();
    result.count(kTrials, failed,
                 "trial undecided, or Psrcs(3) held and more than 3 values");
    const double batch_s = seconds_between(t1, t2);
    rate.push_back(static_cast<double>(summary.runs) / batch_s);
    track_s.push_back(batch_s);
    trials += summary.runs;
    intern_hits += summary.intern.hits;
    intern_misses += summary.intern.misses;
    credit_stalls.push_back(static_cast<double>(summary.credit_stalls));
    peak_mb.push_back(static_cast<double>(summary.peak_proc_set_bytes) / kMiB);
    arena_reuses.push_back(
        static_cast<double>(ProcSet::arena_reuses() - arena_before));
    result.host.workers = static_cast<unsigned>(summary.tiles);
  });
  end_to_end(result, rate, track_s, setup_s);

  const auto per_trial = static_cast<double>(std::max<std::int64_t>(trials, 1));
  result.layer("net.delivered_per_trial", delivered / per_trial, "count");
  result.layer("net.late_per_trial", late / per_trial, "count");
  result.layer("net.lost_per_trial", lost / per_trial, "count");
  result.layer("net.credit_stalls", median(credit_stalls), "count");
  result.layer("skeleton.intern_hit_ratio",
               ratio(intern_hits, intern_hits + intern_misses), "ratio");
  result.layer("util.proc_set_peak_mb", median(peak_mb), "MB");
  result.layer("util.arena_reuses", median(arena_reuses), "count");

  if (!options.trace) return;
  const LinkMatrix links = e11_links();
  const NetConfig net = e11_net();
  const NetScenario scenario(links, net);
  ReplayPlan plan;
  plan.scenario = &scenario;
  plan.config = config;
  plan.master = master;
  plan.trials = 100;
  plan.psrcs_k = kK;
  SpanRecorder recorder;
  InternDomain traced_domain;
  KSetRunConfig traced_config = config;
  traced_config.intern = &traced_domain;
  const ReplayOutcome outcome = replay(
      plan, traced_config,
      [&](std::uint64_t seed) {
        return traced_net_trial(recorder, links, net, seed, traced_config);
      },
      recorder, result);
  replay_layers(result, outcome, median(rate), result.host.workers);
  result.check(recorder.write(result.spans_file), "writing the span file");
}

// --- scale-16k -------------------------------------------------------------

/// bench_scale's Theorem-1 decay schedule at n = 16,384: disjoint
/// complete blocks of 64, a cross-block chain leader(b) -> leader(b+1)
/// that fades out by round 1 + (b mod 6), and two internal edges of
/// every 8th block lost in round 5.
struct ScaleInput {
  static constexpr ProcId kN = 16384;
  static constexpr ProcId kBlock = 64;
  static constexpr Round kFade = 6;
  static constexpr Round kInternalLossRound = 5;
  static constexpr Round kRounds = kFade + 5;

  struct Transient {
    ProcId q;
    ProcId p;
    Round until;  // present in the round graphs 1 .. until
  };

  std::vector<Transient> transients;
  Digraph graph;

  ScaleInput() {
    const ProcId blocks = kN / kBlock;
    for (ProcId b = 0; b + 1 < blocks; ++b) {
      transients.push_back({b * kBlock, (b + 1) * kBlock, 1 + (b % kFade)});
    }
    for (ProcId b = 0; b < blocks; b += 8) {
      const ProcId base = b * kBlock;
      transients.push_back({base + 1, base + 2, kInternalLossRound - 1});
      transients.push_back({base + 3, base + 4, kInternalLossRound - 1});
    }
    graph = Digraph(kN);
    graph.add_self_loops();
    for (ProcId base = 0; base < kN; base += kBlock) {
      for (ProcId q = base; q < base + kBlock; ++q) {
        for (ProcId p = base; p < base + kBlock; ++p) {
          if (q != p) graph.add_edge(q, p);
        }
      }
    }
    for (const Transient& t : transients) graph.add_edge(t.q, t.p);
  }
};

std::vector<ProcSet> sorted_by_first(std::vector<ProcSet> sets) {
  std::sort(sets.begin(), sets.end(), [](const ProcSet& a, const ProcSet& b) {
    return a.first() < b.first();
  });
  return sets;
}

/// Constructs `tracker`, feeds it every round of `input` with the
/// analytics queried each round, and returns the stable skeleton's
/// root components. With a recorder, each library call gets a span.
std::vector<ProcSet> track(ScaleInput& input,
                           std::optional<SkeletonTracker>& tracker,
                           SpanRecorder* recorder) {
  std::optional<ScopedSpan> span;
  if (recorder != nullptr) span.emplace(*recorder, SpanName::kConstruct);
  tracker.emplace(ScaleInput::kN);
  span.reset();
  for (Round r = 1; r <= ScaleInput::kRounds; ++r) {
    for (const ScaleInput::Transient& t : input.transients) {
      if (t.until == r - 1) input.graph.remove_edge(t.q, t.p);
    }
    if (recorder != nullptr) span.emplace(*recorder, SpanName::kObserve);
    tracker->observe(r, input.graph);
    span.reset();
    if (recorder != nullptr) span.emplace(*recorder, SpanName::kCurrentScc);
    (void)tracker->current_scc();
    (void)tracker->current_root_components();
    span.reset();
  }
  return tracker->current_root_components();
}

/// The scale-16k correctness check: the maintained root components
/// equal those of a fresh Tarjan pass over the final skeleton.
bool roots_match(const std::vector<ProcSet>& roots,
                 const SkeletonTracker& tracker) {
  return sorted_by_first(roots) ==
         sorted_by_first(root_components(tracker.skeleton()));
}

void scale_16k(const Options& options, Result& result) {
  std::vector<double> setup_s, rate, track_s, peak_mb, arena_reuses,
      recomputes;
  repeat_for(options.seconds, 3, [&] {
    const std::int64_t t0 = now_ns();
    ScaleInput input;
    const std::int64_t t1 = now_ns();
    ProcSet::reset_peak_bytes();
    const std::int64_t arena_before = ProcSet::arena_reuses();
    std::optional<SkeletonTracker> tracker;
    const std::vector<ProcSet> roots = track(input, tracker, nullptr);
    const std::int64_t t2 = now_ns();
    result.check(roots_match(roots, *tracker),
                 "root components differ from a fresh Tarjan pass");
    setup_s.push_back(seconds_between(t0, t1));
    track_s.push_back(seconds_between(t1, t2));
    rate.push_back(1.0 / track_s.back());
    peak_mb.push_back(static_cast<double>(ProcSet::peak_bytes()) / kMiB);
    arena_reuses.push_back(
        static_cast<double>(ProcSet::arena_reuses() - arena_before));
    recomputes.push_back(static_cast<double>(tracker->analytics_recomputes()));
  });
  end_to_end(result, rate, track_s, setup_s);
  result.host.workers = 0;  // the tracker runs on the dispatching thread
  result.layer("skeleton.analytics_recomputes", median(recomputes), "count");
  result.layer("util.proc_set_peak_mb", median(peak_mb), "MB");
  result.layer("util.arena_reuses", median(arena_reuses), "count");

  if (!options.trace) return;
  constexpr int kReplays = 4;
  SpanRecorder recorder;
  for (int i = 0; i < kReplays; ++i) {
    recorder.set_trial(i);
    for (const bool traced : {i % 2 == 1, i % 2 == 0}) {
      ScaleInput input;
      std::optional<SkeletonTracker> tracker;
      std::vector<ProcSet> roots;
      if (traced) {
        const ScopedSpan span(recorder, SpanName::kTrack);
        roots = track(input, tracker, &recorder);
      } else {
        const std::int64_t start = now_ns();
        roots = track(input, tracker, nullptr);
        recorder.add_root(SpanName::kTrackUntraced, start, now_ns());
      }
      result.check(roots_match(roots, *tracker),
                   "root components differ from a fresh Tarjan pass");
    }
  }
  result.check(recorder.write(result.spans_file), "writing the span file");
}

struct Workload {
  const char* name;
  void (*run)(const Options&, Result&);
};

constexpr Workload kWorkloads[] = {
    {"campaign-n4", &campaign_n4},
    {"campaign-psrcs32", &campaign_psrcs32},
    {"net-e11", &net_e11},
    {"scale-16k", &scale_16k},
};

}  // namespace

bool known_workload(const std::string& name) {
  return std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const Workload& w) { return name == w.name; });
}

void run_workload(const Options& options, Result& result) {
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) w.run(options, result);
  }
}

}  // namespace skbench
