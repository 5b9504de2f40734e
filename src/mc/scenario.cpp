#include "mc/scenario.hpp"

#include <atomic>
#include <memory>
#include <utility>

namespace sskel {

namespace {

ScenarioTrial from_report(KSetRunReport report) {
  ScenarioTrial trial;
  trial.kset = std::move(report);
  return trial;
}

std::atomic<std::uint64_t> next_simulator_scenario_id{1};

}  // namespace

SimulatorScenario::SimulatorScenario()
    : id_(next_simulator_scenario_id.fetch_add(1,
                                               std::memory_order_relaxed)) {}

ScenarioTrial SimulatorScenario::run_trial(std::uint64_t seed,
                                           const KSetRunConfig& config,
                                           Scratch* scratch) const {
  if (scratch == nullptr) return ScenarioFactory::run_trial(seed, config);
  if (scratch->source_owner != id_) {
    scratch->source.reset();
    scratch->source_owner = id_;
  }
  return from_report(
      run_kset(source(seed, scratch->source), config, scratch->kset));
}

std::optional<RunCapture> SimulatorScenario::capture_trial(
    std::uint64_t seed, const KSetRunConfig& config) const {
  Scratch scratch;
  RunCapture capture;
  (void)run_kset(source(seed, scratch.source), config, scratch.kset,
                 &capture);
  capture.header.seed = seed;
  return capture;
}

GraphSource& RandomPsrcsScenario::source(
    std::uint64_t seed, std::unique_ptr<GraphSource>& slot) const {
  slot = std::make_unique<RandomPsrcsSource>(seed, params_);
  return *slot;
}

GraphSource& CrashScenario::source(std::uint64_t seed,
                                   std::unique_ptr<GraphSource>& slot) const {
  slot = make_random_crash_source(seed, params_.n, params_.crashes,
                                  params_.max_crash_round);
  return *slot;
}

GraphSource& PartitionScenario::source(
    std::uint64_t seed, std::unique_ptr<GraphSource>& slot) const {
  // The partition's stable structure is seed-independent, so reseeding
  // the source this scenario built replays exactly what a fresh
  // construction would produce without re-validating the blocks or
  // rebuilding the stable graph.
  if (slot == nullptr) {
    slot = std::make_unique<PartitionSource>(seed, params_);
  } else {
    static_cast<PartitionSource&>(*slot).reseed(seed);
  }
  return *slot;
}

GraphSource& RotatingScenario::source(
    std::uint64_t seed, std::unique_ptr<GraphSource>& slot) const {
  const ProcId first_center =
      static_cast<ProcId>(seed % static_cast<std::uint64_t>(params_.n));
  slot = make_rotating_star_source(params_.n, params_.hold, first_center);
  return *slot;
}

NetScenario::NetScenario(LinkMatrix links, NetConfig net)
    : links_(std::move(links)), net_(std::move(net)) {
  SSKEL_REQUIRE(links_.n() > 0);
}

ScenarioTrial NetScenario::run_trial(std::uint64_t seed,
                                     const KSetRunConfig& config,
                                     Scratch* scratch) const {
  (void)scratch;  // the network driver keeps no cross-trial state
  NetKSetConfig net_config;
  net_config.run = config;
  net_config.net = net_;
  net_config.net.seed = seed;
  const NetKSetReport report = run_kset_over_network(links_, net_config);

  ScenarioTrial trial;
  trial.kset = report.kset;
  trial.net_backed = true;
  trial.delivered_messages = report.delivered_messages;
  trial.late_messages = report.late_messages;
  trial.lost_messages = report.lost_messages;
  trial.wall_clock = report.wall_clock;
  return trial;
}

void NetScenario::append_fingerprint(std::vector<std::uint8_t>& out) const {
  const ProcId n = links_.n();
  put_field(out, n);
  for (ProcId q = 0; q < n; ++q) {
    for (ProcId p = 0; p < n; ++p) {
      const LinkSpec& spec = links_.at(q, p);
      put_field(out, spec.kind);
      put_field(out, spec.min_delay);
      put_field(out, spec.max_delay);
      put_field(out, spec.on_time_probability);
    }
  }
  put_field(out, net_.round_duration);
  put_field(out, net_.skews.size());
  for (const SimTime skew : net_.skews) put_field(out, skew);
  // net_.seed is excluded: the trial seed overrides it per trial.
  put_field(out, net_.plane);
  // Retired ring-depth slot: a constant keeps checkpoint fingerprints
  // stable across the ring layer's removal.
  put_field(out, 0);
}

}  // namespace sskel
