// ScenarioFactory: seeded trial generators for the Monte-Carlo engine.
//
// A scenario is "one way to produce an adversary": random Psrcs(k)
// graphs, crash failures, partitions, rotating stars, or a full
// partially synchronous network. The Monte-Carlo engine
// (run_scenario_trials) only sees the factory interface, so every
// experiment — abstract-model and network-backed alike — aggregates
// through one code path. A trial is a pure function of its seed, so
// results are reproducible and thread-count independent.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "adversary/crash.hpp"
#include "adversary/partition.hpp"
#include "adversary/random_psrcs.hpp"
#include "adversary/rotating.hpp"
#include "kset/runner.hpp"
#include "net/driver.hpp"
#include "net/kset_net.hpp"
#include "net/link.hpp"
#include "rounds/trace.hpp"
#include "util/assert.hpp"
#include "util/param_table.hpp"

namespace sskel {

/// One trial's outcome: the substrate-agnostic report plus network
/// accounting when the scenario is network-backed.
struct ScenarioTrial {
  KSetRunReport kset;
  bool net_backed = false;
  std::int64_t delivered_messages = 0;
  std::int64_t late_messages = 0;
  std::int64_t lost_messages = 0;
  /// Always 0 since the ring plane lost its credits; kept because
  /// bench harnesses still read it.
  std::int64_t credit_stalls = 0;
  SimTime wall_clock = 0;  // simulated microseconds; 0 off-network
};

/// A seeded generator of independent trials. Implementations must make
/// run_trial a pure function of (seed, config) — no mutable state — so
/// the Monte-Carlo engine can run trials on any thread in any order.
class ScenarioFactory {
 public:
  virtual ~ScenarioFactory() = default;
  ScenarioFactory(const ScenarioFactory&) = delete;
  ScenarioFactory& operator=(const ScenarioFactory&) = delete;

  /// Scenario name for reports/tables (e.g. "random-psrcs").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Number of processes in every trial.
  [[nodiscard]] virtual ProcId n() const = 0;

  /// Appends every constructor parameter that shapes trial outcomes
  /// to `out` — an identity byte string, not a wire format. The
  /// campaign fingerprint (CampaignSpec::fingerprint) mixes this in so
  /// a checkpoint refuses a resume under a scenario whose parameters
  /// drifted (same class, different crashes/noise/...). Pure virtual
  /// on purpose: a new scenario cannot silently opt out and reopen
  /// that hole. Two instances producing different trial distributions
  /// must never append identical bytes.
  virtual void append_fingerprint(std::vector<std::uint8_t>& out) const = 0;

  /// Per-worker trial state reused across trials (DESIGN.md §13): the
  /// persistent engine + process objects, and a slot for the graph
  /// source of the last trial, tagged with the scenario that built it.
  /// A scenario reuses the slot only when it built it, so any scratch
  /// may serve any scenario. Purity is preserved: a trial run with
  /// scratch must be bit-identical to one run without (the
  /// scheduler-equivalence tripwire pins this). One scratch must only
  /// serve one trial at a time.
  struct Scratch {
    KSetTrialScratch kset;
    std::unique_ptr<GraphSource> source;
    std::uint64_t source_owner = 0;  // SimulatorScenario id; 0 = none
  };

  /// Creates worker scratch; the engine keeps one per worker/tile and
  /// threads it through run_trial.
  [[nodiscard]] std::unique_ptr<Scratch> make_scratch() const {
    return std::make_unique<Scratch>();
  }

  /// Runs one independent trial with the given seed on fresh scratch.
  [[nodiscard]] ScenarioTrial run_trial(std::uint64_t seed,
                                        const KSetRunConfig& config) const {
    Scratch fresh;
    return run_trial(seed, config, &fresh);
  }

  /// Runs one trial reusing `scratch` (nullptr: fresh scratch).
  [[nodiscard]] virtual ScenarioTrial run_trial(std::uint64_t seed,
                                                const KSetRunConfig& config,
                                                Scratch* scratch) const = 0;

  /// Re-runs trial `seed` with a trace recorder attached and returns
  /// the SSKT-encodable capture — the campaign engine's crash-artifact
  /// path for misbehaving trials. Purity makes this exact: the re-run
  /// is the same run. Returns nullopt when the scenario cannot record
  /// (network-backed trials — the default). Off the hot path; no
  /// scratch reuse.
  [[nodiscard]] virtual std::optional<RunCapture> capture_trial(
      std::uint64_t seed, const KSetRunConfig& config) const {
    (void)seed;
    (void)config;
    return std::nullopt;
  }

 protected:
  ScenarioFactory() = default;
};

/// A scenario whose trials are Algorithm 1 on the Simulator: the run
/// is fully described by its sequence of communication graphs, so the
/// one hook a subclass defines is source() — how trial `seed` builds
/// its GraphSource. Scratch reuse and capture are decided here, once.
class SimulatorScenario : public ScenarioFactory {
 public:
  using ScenarioFactory::run_trial;
  [[nodiscard]] ScenarioTrial run_trial(std::uint64_t seed,
                                        const KSetRunConfig& config,
                                        Scratch* scratch) const final;
  [[nodiscard]] std::optional<RunCapture> capture_trial(
      std::uint64_t seed, const KSetRunConfig& config) const final;

 protected:
  SimulatorScenario();

  /// The graph source of trial `seed`. `slot` is empty or holds the
  /// source this scenario built for an earlier trial; the hook fills
  /// it (reusing what it holds when it can) and returns its source.
  [[nodiscard]] virtual GraphSource& source(
      std::uint64_t seed, std::unique_ptr<GraphSource>& slot) const = 0;

 private:
  /// Tags the scratch source slots this scenario fills. A process-wide
  /// counter rather than `this`: a scenario built at a destroyed one's
  /// address must not inherit its source.
  std::uint64_t id_;
};

/// A Simulator scenario over its graph family's declared parameter
/// table (util/param_table.hpp): bad parameters abort in the
/// constructor, not on a tile thread at the first trial, and the
/// fingerprint is the table's fields in order.
template <typename P>
class TabledScenario : public SimulatorScenario {
 public:
  using Params = P;

  void append_fingerprint(std::vector<std::uint8_t>& out) const final {
    for_each_field(params_, [&out](const auto& field, const auto& value) {
      if constexpr (!std::is_same_v<decltype(field), const ParamRule&>) {
        put_field(out, value);
      }
    });
  }

  [[nodiscard]] const Params& params() const { return params_; }

 protected:
  explicit TabledScenario(Params params) : params_(std::move(params)) {
    SSKEL_REQUIRE(validate(params_).empty());
  }

  Params params_;
};

/// Random graphs satisfying Psrcs(k) by construction (experiments E2,
/// E4, E5, E8). The seed picks cores, hubs and noise.
class RandomPsrcsScenario final : public TabledScenario<RandomPsrcsParams> {
 public:
  explicit RandomPsrcsScenario(RandomPsrcsParams params)
      : TabledScenario(params) {}

  [[nodiscard]] std::string name() const override { return "random-psrcs"; }
  [[nodiscard]] ProcId n() const override { return params_.n; }

 protected:
  [[nodiscard]] GraphSource& source(
      std::uint64_t seed, std::unique_ptr<GraphSource>& slot) const override;
};

/// Classic synchronous crash failures (experiment E7's model): the
/// seed picks victims, crash rounds and partial-broadcast receivers.
class CrashScenario final : public TabledScenario<CrashParams> {
 public:
  explicit CrashScenario(CrashParams params) : TabledScenario(params) {}
  CrashScenario(ProcId n, int crashes, Round max_crash_round)
      : CrashScenario(CrashParams{n, crashes, max_crash_round}) {}

  [[nodiscard]] std::string name() const override { return "crash"; }
  [[nodiscard]] ProcId n() const override { return params_.n; }

 protected:
  [[nodiscard]] GraphSource& source(
      std::uint64_t seed, std::unique_ptr<GraphSource>& slot) const override;
};

/// Partitioned systems (the paper's motivating k > 1 scenario): fixed
/// blocks, seeded transient cross-block noise.
class PartitionScenario final : public TabledScenario<PartitionParams> {
 public:
  explicit PartitionScenario(PartitionParams params)
      : TabledScenario(std::move(params)) {}

  [[nodiscard]] std::string name() const override { return "partition"; }
  [[nodiscard]] ProcId n() const override {
    return params_.blocks.front().universe();
  }

 protected:
  [[nodiscard]] GraphSource& source(
      std::uint64_t seed, std::unique_ptr<GraphSource>& slot) const override;
};

/// Rotating stars (experiment E12): per-round synchrony with zero
/// perpetual synchrony. Deterministic per trial except the initial
/// center, which the seed picks — Psrcs fails by design, so this is
/// the engine's negative control.
class RotatingScenario final : public TabledScenario<RotatingParams> {
 public:
  explicit RotatingScenario(RotatingParams params) : TabledScenario(params) {}
  explicit RotatingScenario(ProcId n, Round hold = 1)
      : RotatingScenario(RotatingParams{n, hold}) {}

  [[nodiscard]] std::string name() const override { return "rotating-star"; }
  [[nodiscard]] ProcId n() const override { return params_.n; }

 protected:
  [[nodiscard]] GraphSource& source(
      std::uint64_t seed, std::unique_ptr<GraphSource>& slot) const override;
};

/// Network-backed trials (experiment E11): Algorithm 1 over the
/// partially synchronous network driver. The trial seed overrides
/// net.seed (delay sampling); links and skews are fixed.
class NetScenario final : public ScenarioFactory {
 public:
  NetScenario(LinkMatrix links, NetConfig net);

  [[nodiscard]] std::string name() const override { return "net"; }
  [[nodiscard]] ProcId n() const override { return links_.n(); }
  void append_fingerprint(std::vector<std::uint8_t>& out) const override;
  using ScenarioFactory::run_trial;
  [[nodiscard]] ScenarioTrial run_trial(std::uint64_t seed,
                                        const KSetRunConfig& config,
                                        Scratch* scratch) const override;

 private:
  LinkMatrix links_;
  NetConfig net_;
};

}  // namespace sskel
