#include "traced.hpp"

#include <algorithm>
#include <utility>

#include "net/driver.hpp"
#include "skeleton/intern.hpp"

namespace skbench {

using sskel::Digraph;
using sskel::KSetRunConfig;
using sskel::KSetRunReport;
using sskel::ProcId;
using sskel::Round;
using sskel::SkeletonKSetProcess;
using sskel::SkeletonMessage;

namespace {

using ProcessVector =
    std::vector<std::unique_ptr<sskel::Algorithm<SkeletonMessage>>>;

sskel::StructureInternTable* intern_table(const KSetRunConfig& config) {
  return config.intern != nullptr ? &config.intern->local() : nullptr;
}

/// make_kset_processes with every process wrapped in a TimedProcess;
/// `views` receives the wrapped Algorithm 1 processes.
ProcessVector make_timed_processes(SpanRecorder& recorder, ProcId n,
                                   const KSetRunConfig& config,
                                   const std::vector<sskel::Value>& proposals,
                                   std::vector<SkeletonKSetProcess*>& views) {
  ProcessVector processes;
  views.clear();
  for (ProcId p = 0; p < n; ++p) {
    auto inner = std::make_unique<SkeletonKSetProcess>(
        n, p, proposals[static_cast<std::size_t>(p)], config.guard);
    inner->set_intern_table(intern_table(config));
    views.push_back(inner.get());
    processes.push_back(
        std::make_unique<TimedProcess>(recorder, std::move(inner)));
  }
  return processes;
}

std::vector<sskel::Value> proposals_for(ProcId n, const KSetRunConfig& config) {
  return config.proposals.empty() ? sskel::default_proposals(n)
                                  : config.proposals;
}

/// The run loop and report build of run_kset_core (kset/runner.cpp),
/// with a span per step and around the final analytics query. The
/// benchmark configs attach no lemma monitor and no byte sizer.
KSetRunReport traced_run(sskel::RoundEngine<SkeletonMessage>& engine,
                         SpanName step_name, const KSetRunConfig& config,
                         sskel::SkeletonTracker& tracker,
                         const std::vector<SkeletonKSetProcess*>& views,
                         SpanRecorder& recorder) {
  SSKEL_REQUIRE(!config.attach_lemma_monitor && !config.measure_bytes);
  const ProcId n = engine.n();
  const Round max_rounds =
      config.max_rounds > 0 ? config.max_rounds : 8 * n + 32;
  const auto all_decided = [&] {
    return std::all_of(views.begin(), views.end(),
                       [](const SkeletonKSetProcess* v) { return v->decided(); });
  };
  const auto step = [&] {
    const ScopedSpan span(recorder, step_name);
    (void)engine.step();
  };

  Round executed = 0;
  bool done = false;
  while (executed < max_rounds) {
    step();
    ++executed;
    if (all_decided()) {
      done = true;
      break;
    }
  }
  for (Round t = 0; t < config.tail_rounds && executed < max_rounds; ++t) {
    step();
    ++executed;
  }

  KSetRunReport report;
  report.n = n;
  report.all_decided = done || all_decided();
  report.rounds_executed = executed;
  for (const SkeletonKSetProcess* v : views) {
    sskel::Outcome o;
    o.proposal = v->proposal();
    o.decided = v->decided();
    if (v->decided()) {
      o.decision = v->decision();
      o.decision_round = v->decision_round();
      report.last_decision_round =
          std::max(report.last_decision_round, v->decision_round());
    }
    report.outcomes.push_back(o);
    report.paths.push_back(v->decision_path());
  }
  report.verdict = sskel::verify_kset(report.outcomes, config.k);
  report.distinct_values = report.verdict.distinct_decisions;
  report.final_skeleton = tracker.skeleton();
  report.skeleton_last_change = tracker.last_change_round();
  {
    const ScopedSpan span(recorder, SpanName::kCurrentScc);
    report.root_components_final = tracker.current_root_components();
  }
  report.total_messages = engine.trace().total_messages();
  report.total_bytes = engine.trace().total_bytes();
  report.max_message_bytes = engine.trace().max_message_bytes();
  return report;
}

void observe_timed(sskel::RoundEngine<SkeletonMessage>& engine,
                   sskel::SkeletonTracker& tracker, SpanRecorder& recorder) {
  engine.add_observer([&tracker, &recorder](Round r, const Digraph& g) {
    const ScopedSpan span(recorder, SpanName::kObserve);
    tracker.observe(r, g);
  });
}

}  // namespace

SimReplay::SimReplay(SpanRecorder& recorder, ProcId n,
                     const KSetRunConfig& config)
    : recorder_(recorder),
      config_(config),
      proposals_(proposals_for(n, config)),
      source_(recorder, n),
      tracker_(n) {
  sim_ = std::make_unique<sskel::Simulator<SkeletonMessage>>(
      source_,
      make_timed_processes(recorder_, n, config_, proposals_, views_));
}

KSetRunReport SimReplay::run(sskel::GraphSource& source) {
  source_.bind(source);
  sim_->reset(source_);
  tracker_.reset();
  // reset() == construction (the library's scheduler tripwire pins
  // this), so every trial starts exactly as a fresh run would.
  for (std::size_t p = 0; p < views_.size(); ++p) {
    views_[p]->reset(proposals_[p]);
    views_[p]->set_intern_table(intern_table(config_));
  }
  if (config_.intern != nullptr) tracker_.attach_intern(intern_table(config_));
  observe_timed(*sim_, tracker_, recorder_);
  return traced_run(*sim_, SpanName::kRoundsStep, config_, tracker_, views_,
                    recorder_);
}

sskel::ScenarioTrial traced_net_trial(SpanRecorder& recorder,
                                      const sskel::LinkMatrix& links,
                                      const sskel::NetConfig& net,
                                      std::uint64_t seed,
                                      const KSetRunConfig& config) {
  const ProcId n = links.n();
  sskel::NetConfig trial_net = net;
  trial_net.seed = seed;
  std::vector<SkeletonKSetProcess*> views;
  sskel::NetRoundDriver<SkeletonMessage> driver(
      trial_net, links,
      make_timed_processes(recorder, n, config, proposals_for(n, config),
                           views));
  sskel::SkeletonTracker tracker(n);
  if (config.intern != nullptr) tracker.attach_intern(intern_table(config));
  observe_timed(driver, tracker, recorder);

  sskel::ScenarioTrial trial;
  trial.kset = traced_run(driver, SpanName::kNetStep, config, tracker, views,
                          recorder);
  trial.net_backed = true;
  trial.delivered_messages = driver.delivered_messages();
  trial.late_messages = driver.late_messages();
  trial.lost_messages = driver.lost_messages();
  trial.credit_stalls = driver.credit_stalls();
  trial.wall_clock = driver.now();
  return trial;
}

bool same_trial(const sskel::ScenarioTrial& a, const sskel::ScenarioTrial& b) {
  const KSetRunReport& x = a.kset;
  const KSetRunReport& y = b.kset;
  if (x.outcomes.size() != y.outcomes.size()) return false;
  for (std::size_t p = 0; p < x.outcomes.size(); ++p) {
    const sskel::Outcome& u = x.outcomes[p];
    const sskel::Outcome& v = y.outcomes[p];
    if (u.proposal != v.proposal || u.decided != v.decided ||
        u.decision != v.decision || u.decision_round != v.decision_round) {
      return false;
    }
  }
  return x.n == y.n && x.paths == y.paths &&
         x.verdict.k_agreement == y.verdict.k_agreement &&
         x.verdict.validity == y.verdict.validity &&
         x.verdict.termination == y.verdict.termination &&
         x.verdict.distinct_decisions == y.verdict.distinct_decisions &&
         x.verdict.last_decision_round == y.verdict.last_decision_round &&
         x.verdict.failures == y.verdict.failures &&
         x.all_decided == y.all_decided &&
         x.rounds_executed == y.rounds_executed &&
         x.last_decision_round == y.last_decision_round &&
         x.distinct_values == y.distinct_values &&
         x.final_skeleton == y.final_skeleton &&
         x.skeleton_last_change == y.skeleton_last_change &&
         x.root_components_final == y.root_components_final &&
         x.total_messages == y.total_messages &&
         x.total_bytes == y.total_bytes &&
         x.max_message_bytes == y.max_message_bytes &&
         x.lemma_violations == y.lemma_violations &&
         a.net_backed == b.net_backed &&
         a.delivered_messages == b.delivered_messages &&
         a.late_messages == b.late_messages &&
         a.lost_messages == b.lost_messages &&
         a.credit_stalls == b.credit_stalls && a.wall_clock == b.wall_clock;
}

}  // namespace skbench
