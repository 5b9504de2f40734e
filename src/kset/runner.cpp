#include "kset/runner.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "graph/scc.hpp"
#include "rounds/simulator.hpp"
#include "rounds/trace.hpp"
#include "skeleton/intern.hpp"
#include "skeleton/tracker.hpp"

namespace sskel {

std::vector<Value> default_proposals(ProcId n) {
  std::vector<Value> v(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    v[static_cast<std::size_t>(p)] = 100 * static_cast<Value>(p) + 7;
  }
  return v;
}

Round KSetRunReport::termination_bound(DecisionGuard guard) const {
  const Round r_st = std::max<Round>(skeleton_last_change, 1);
  const Round slack = guard == DecisionGuard::kAfterRoundN ? 1 : 0;
  return r_st + 2 * n - 1 + slack;
}

std::vector<std::unique_ptr<Algorithm<SkeletonMessage>>> make_kset_processes(
    ProcId n, const KSetRunConfig& config) {
  SSKEL_REQUIRE(n > 0);
  SSKEL_REQUIRE(config.k >= 1);
  const std::vector<Value> proposals =
      config.proposals.empty() ? default_proposals(n) : config.proposals;
  SSKEL_REQUIRE(proposals.size() == static_cast<std::size_t>(n));

  // One shard resolution for the whole vector: processes built here
  // run on the thread that builds them (trials execute start-to-finish
  // on one worker), so the thread-local shard is the right table.
  StructureInternTable* table =
      config.intern != nullptr ? &config.intern->local() : nullptr;

  std::vector<std::unique_ptr<Algorithm<SkeletonMessage>>> procs;
  procs.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    auto proc = std::make_unique<SkeletonKSetProcess>(
        n, p, proposals[static_cast<std::size_t>(p)], config.guard);
    proc->set_intern_table(table);
    procs.push_back(std::move(proc));
  }
  return procs;
}

namespace {

/// Concrete views of the engine's processes, built once per engine
/// (trial scratches cache them across runs).
std::vector<SkeletonKSetProcess*> kset_views(
    RoundEngine<SkeletonMessage>& engine) {
  const ProcId n = engine.n();
  std::vector<SkeletonKSetProcess*> views;
  views.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    auto* view = dynamic_cast<SkeletonKSetProcess*>(&engine.process(p));
    SSKEL_REQUIRE(view != nullptr);
    views.push_back(view);
  }
  return views;
}

/// The run loop and report build behind run_kset_on_engine. The
/// tracker arrives freshly constructed or reset(), interned per the
/// config, with its observer already on the engine's bus; `views` are
/// the engine's processes.
KSetRunReport run_kset_core(RoundEngine<SkeletonMessage>& engine,
                            const KSetRunConfig& config,
                            SkeletonTracker& tracker,
                            const std::vector<SkeletonKSetProcess*>& views) {
  const ProcId n = engine.n();
  SSKEL_REQUIRE(n > 0);
  SSKEL_REQUIRE(config.k >= 1);
  SSKEL_REQUIRE(engine.rounds_completed() == 0);

  if (config.measure_bytes) {
    engine.set_message_sizer(
        [](const SkeletonMessage& m) { return encoded_size(m); });
  }

  std::unique_ptr<LemmaMonitor> monitor;
  if (config.attach_lemma_monitor) {
    monitor = std::make_unique<LemmaMonitor>(n, config.checks);
    if (config.intern != nullptr) {
      // The monitor's per-round SCC checks (Lemma 7 bases, tracker
      // analytics) then share the run-wide canonical entries.
      monitor->attach_intern(&config.intern->local());
    }
  }

  const Round max_rounds =
      config.max_rounds > 0 ? config.max_rounds : 8 * n + 32;

  auto all_decided = [&] {
    return std::all_of(
        views.begin(), views.end(),
        [](const SkeletonKSetProcess* v) { return v->decided(); });
  };

  // Both substrates fire step()/observers at the end-of-round cut, so
  // the monitor's snapshots are consistent with the graph it is fed.
  auto feed_monitor = [&](Round r, const Digraph& g) {
    if (!monitor) return;
    std::vector<ProcessSnapshot> snaps;
    snaps.reserve(static_cast<std::size_t>(n));
    for (const SkeletonKSetProcess* v : views) {
      ProcessSnapshot s;
      s.approx = v->approximation();
      s.pt = v->pt();
      s.estimate = v->estimate();
      s.decided = v->decided();
      s.decided_via_message = v->decision_path() == DecisionPath::kForwarded;
      s.decision_round = v->decision_round();
      snaps.push_back(std::move(s));
    }
    monitor->observe_round(r, g, snaps);
  };

  Round executed = 0;
  bool done = false;
  while (executed < max_rounds) {
    const Digraph& g = engine.step();
    ++executed;
    feed_monitor(executed, g);
    if (all_decided()) {
      done = true;
      break;
    }
  }
  for (Round t = 0; t < config.tail_rounds && executed < max_rounds; ++t) {
    const Digraph& g = engine.step();
    ++executed;
    feed_monitor(executed, g);
  }
  if (monitor) monitor->finalize();

  KSetRunReport report;
  report.n = n;
  report.all_decided = done || all_decided();
  report.rounds_executed = executed;
  for (const SkeletonKSetProcess* v : views) {
    Outcome o;
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
  report.verdict = verify_kset(report.outcomes, config.k);
  report.distinct_values = report.verdict.distinct_decisions;
  report.final_skeleton = tracker.skeleton();
  report.skeleton_last_change = tracker.last_change_round();
  report.root_components_final = tracker.current_root_components();
  report.total_messages = engine.trace().total_messages();
  report.total_bytes = engine.trace().total_bytes();
  report.max_message_bytes = engine.trace().max_message_bytes();
  if (monitor) report.lemma_violations = monitor->violations();
  return report;
}

}  // namespace

KSetRunReport run_kset_on_engine(RoundEngine<SkeletonMessage>& engine,
                                 const KSetRunConfig& config) {
  SkeletonTracker tracker(engine.n());
  if (config.intern != nullptr) {
    tracker.attach_intern(&config.intern->local());
  }
  engine.add_observer(tracker.observer());
  return run_kset_core(engine, config, tracker, kset_views(engine));
}

KSetRunReport run_kset(GraphSource& source, const KSetRunConfig& config) {
  KSetTrialScratch scratch;
  return run_kset(source, config, scratch);
}

struct KSetTrialScratch::Impl {
  std::unique_ptr<Simulator<SkeletonMessage>> sim;
  std::unique_ptr<SkeletonTracker> tracker;
  std::vector<SkeletonKSetProcess*> views;
  /// default_proposals(n), computed once — reused whenever the run
  /// config does not supply proposals.
  std::vector<Value> default_props;
  ProcId n = 0;
  DecisionGuard guard = DecisionGuard::kAfterRoundN;
};

KSetTrialScratch::KSetTrialScratch() = default;
KSetTrialScratch::~KSetTrialScratch() = default;
KSetTrialScratch::KSetTrialScratch(KSetTrialScratch&&) noexcept = default;
KSetTrialScratch& KSetTrialScratch::operator=(KSetTrialScratch&&) noexcept =
    default;

KSetRunReport run_kset(GraphSource& source, const KSetRunConfig& config,
                       KSetTrialScratch& scratch, RunCapture* capture) {
  if (scratch.impl_ == nullptr) {
    scratch.impl_ = std::make_unique<KSetTrialScratch::Impl>();
  }
  KSetTrialScratch::Impl& impl = *scratch.impl_;
  const ProcId n = source.n();

  if (impl.sim == nullptr || impl.n != n || impl.guard != config.guard) {
    // First use or shape change: build once, reuse thereafter. The
    // guard is a constructor-time choice of the processes, so a guard
    // change rebuilds rather than resets.
    impl.sim = std::make_unique<Simulator<SkeletonMessage>>(
        source, make_kset_processes(n, config));
    impl.tracker = std::make_unique<SkeletonTracker>(n);
    impl.views = kset_views(*impl.sim);
    impl.default_props.clear();
    impl.n = n;
    impl.guard = config.guard;
  } else {
    // Reuse: rebind the engine and restore every process and the
    // tracker to the state first use would have constructed —
    // including the per-call intern-shard binding, which must come
    // from the *current* thread and the *current* config.
    impl.sim->reset(source);
    impl.tracker->reset();
    const std::vector<Value>* proposals = &config.proposals;
    if (config.proposals.empty()) {
      if (impl.default_props.empty()) {
        impl.default_props = default_proposals(n);
      }
      proposals = &impl.default_props;
    }
    SSKEL_REQUIRE(proposals->size() == static_cast<std::size_t>(n));
    StructureInternTable* table =
        config.intern != nullptr ? &config.intern->local() : nullptr;
    for (ProcId p = 0; p < n; ++p) {
      SkeletonKSetProcess* proc = impl.views[static_cast<std::size_t>(p)];
      proc->reset((*proposals)[static_cast<std::size_t>(p)]);
      proc->set_intern_table(table);
    }
  }

  std::optional<TraceRecorder> recorder;
  if (capture != nullptr) {
    recorder.emplace(n, TraceSource::kSimulator);
    recorder->attach(*impl.sim);
  }
  if (config.intern != nullptr) {
    impl.tracker->attach_intern(&config.intern->local());
  }
  impl.sim->add_observer(impl.tracker->observer());
  KSetRunReport report =
      run_kset_core(*impl.sim, config, *impl.tracker, impl.views);
  if (recorder) *capture = recorder->finish(impl.sim->trace());
  return report;
}

}  // namespace sskel
