// Timing decorators around libsskel's public layer boundaries, and the
// traced trial replays built from them.
//
// Nothing here changes library code: a TimedSource wraps the scenario's
// real GraphSource, a TimedProcess wraps the real SkeletonKSetProcess,
// and the replays drive RoundEngine::step themselves so every step,
// observe and analytics query gets a span. The replays repeat the run
// loop and report build of run_kset (kset/runner.cpp) because that
// function requires the engine's processes to *be* SkeletonKSetProcess
// objects; the benchmark checks every traced report against the
// scenario's own untraced run_trial for the same seed.
#pragma once

#include <memory>
#include <vector>

#include "kset/runner.hpp"
#include "kset/skeleton_kset.hpp"
#include "mc/scenario.hpp"
#include "rounds/simulator.hpp"
#include "skeleton/tracker.hpp"
#include "spans.hpp"

namespace skbench {

/// GraphSource decorator: times graph_into on the bound source.
class TimedSource final : public sskel::GraphSource {
 public:
  TimedSource(SpanRecorder& recorder, sskel::ProcId n)
      : recorder_(recorder), n_(n) {}

  /// Rebinds the decorator to this trial's source (same n).
  void bind(sskel::GraphSource& inner) { inner_ = &inner; }

  [[nodiscard]] sskel::ProcId n() const override { return n_; }
  [[nodiscard]] sskel::Digraph graph(sskel::Round r) override {
    const ScopedSpan span(recorder_, SpanName::kGraphInto);
    return inner_->graph(r);
  }
  void graph_into(sskel::Round r, sskel::Digraph& out) override {
    const ScopedSpan span(recorder_, SpanName::kGraphInto);
    inner_->graph_into(r, out);
  }

 private:
  SpanRecorder& recorder_;
  sskel::ProcId n_;
  sskel::GraphSource* inner_ = nullptr;
};

/// Algorithm decorator: times send_into / transition on the real
/// Algorithm 1 process it owns.
class TimedProcess final : public sskel::Algorithm<sskel::SkeletonMessage> {
 public:
  TimedProcess(SpanRecorder& recorder,
               std::unique_ptr<sskel::SkeletonKSetProcess> inner)
      : Algorithm(inner->n(), inner->id()),
        recorder_(recorder),
        inner_(std::move(inner)) {}

  [[nodiscard]] sskel::SkeletonMessage send(sskel::Round r) override {
    const ScopedSpan span(recorder_, SpanName::kSendInto);
    return inner_->send(r);
  }
  void send_into(sskel::Round r, sskel::SkeletonMessage& out) override {
    const ScopedSpan span(recorder_, SpanName::kSendInto);
    inner_->send_into(r, out);
  }
  void transition(sskel::Round r,
                  const sskel::Inbox<sskel::SkeletonMessage>& inbox) override {
    const ScopedSpan span(recorder_, SpanName::kTransition);
    inner_->transition(r, inbox);
  }

 private:
  SpanRecorder& recorder_;
  std::unique_ptr<sskel::SkeletonKSetProcess> inner_;
};

/// Replays Simulator-backed trials with the engine, processes and
/// tracker kept across trials and reset per trial, as the tile plane's
/// trial scratch does (run_kset with a KSetTrialScratch).
class SimReplay {
 public:
  SimReplay(SpanRecorder& recorder, sskel::ProcId n,
            const sskel::KSetRunConfig& config);

  /// One trial over `source`; spans land under the caller's open span.
  [[nodiscard]] sskel::KSetRunReport run(sskel::GraphSource& source);

 private:
  SpanRecorder& recorder_;
  sskel::KSetRunConfig config_;
  std::vector<sskel::Value> proposals_;
  std::vector<sskel::SkeletonKSetProcess*> views_;
  TimedSource source_;
  std::unique_ptr<sskel::Simulator<sskel::SkeletonMessage>> sim_;
  sskel::SkeletonTracker tracker_;
};

/// NetScenario::run_trial's work with timed processes and step spans.
[[nodiscard]] sskel::ScenarioTrial traced_net_trial(
    SpanRecorder& recorder, const sskel::LinkMatrix& links,
    const sskel::NetConfig& net, std::uint64_t seed,
    const sskel::KSetRunConfig& config);

/// Field-by-field equality of everything a run reports.
[[nodiscard]] bool same_trial(const sskel::ScenarioTrial& a,
                              const sskel::ScenarioTrial& b);

}  // namespace skbench
