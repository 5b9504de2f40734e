#include "mc/scenario.hpp"

#include <atomic>
#include <bit>
#include <memory>
#include <utility>

#include "adversary/crash.hpp"
#include "adversary/rotating.hpp"
#include "util/assert.hpp"
#include "util/varint.hpp"

namespace sskel {

namespace {

ScenarioTrial from_report(KSetRunReport report) {
  ScenarioTrial trial;
  trial.kset = std::move(report);
  return trial;
}

/// append_fingerprint helpers: integers go through the varint (the
/// fingerprint is hashed, only injectivity per scenario matters),
/// doubles through their exact bit pattern.
void fp_int(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_varint(out, static_cast<std::uint64_t>(v));
}

void fp_double(std::vector<std::uint8_t>& out, double v) {
  put_varint(out, std::bit_cast<std::uint64_t>(v));
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

void RandomPsrcsScenario::append_fingerprint(
    std::vector<std::uint8_t>& out) const {
  fp_int(out, params_.n);
  fp_int(out, params_.k);
  fp_int(out, params_.root_components);
  fp_int(out, params_.max_core_size);
  fp_double(out, params_.noise_probability);
  fp_int(out, params_.stabilization_round);
  fp_int(out, params_.noise_after_stabilization ? 1 : 0);
  fp_double(out, params_.follower_edge_probability);
}

CrashScenario::CrashScenario(ProcId n, int crashes, Round max_crash_round)
    : n_(n), crashes_(crashes), max_crash_round_(max_crash_round) {
  SSKEL_REQUIRE(n_ > 0);
  SSKEL_REQUIRE(crashes_ >= 0 && static_cast<ProcId>(crashes_) < n_);
  SSKEL_REQUIRE(max_crash_round_ >= 1);
}

GraphSource& CrashScenario::source(std::uint64_t seed,
                                   std::unique_ptr<GraphSource>& slot) const {
  slot = make_random_crash_source(seed, n_, crashes_, max_crash_round_);
  return *slot;
}

void CrashScenario::append_fingerprint(std::vector<std::uint8_t>& out) const {
  fp_int(out, n_);
  fp_int(out, crashes_);
  fp_int(out, max_crash_round_);
}

PartitionScenario::PartitionScenario(PartitionParams params)
    : params_(std::move(params)), n_(0) {
  SSKEL_REQUIRE(!params_.blocks.empty());
  n_ = params_.blocks.front().universe();
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

void PartitionScenario::append_fingerprint(
    std::vector<std::uint8_t>& out) const {
  fp_int(out, n_);
  fp_int(out, static_cast<std::int64_t>(params_.blocks.size()));
  for (const ProcSet& block : params_.blocks) {
    fp_int(out, block.count());
    for (ProcId p = 0; p < n_; ++p) {
      if (block.contains(p)) fp_int(out, p);
    }
  }
  fp_double(out, params_.cross_noise_probability);
  fp_int(out, params_.stabilization_round);
}

RotatingScenario::RotatingScenario(ProcId n, Round hold)
    : n_(n), hold_(hold) {
  SSKEL_REQUIRE(n_ > 0);
  SSKEL_REQUIRE(hold_ >= 1);
}

GraphSource& RotatingScenario::source(
    std::uint64_t seed, std::unique_ptr<GraphSource>& slot) const {
  const ProcId first_center =
      static_cast<ProcId>(seed % static_cast<std::uint64_t>(n_));
  slot = make_rotating_star_source(n_, hold_, first_center);
  return *slot;
}

void RotatingScenario::append_fingerprint(
    std::vector<std::uint8_t>& out) const {
  fp_int(out, n_);
  fp_int(out, hold_);
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
  fp_int(out, n);
  for (ProcId q = 0; q < n; ++q) {
    for (ProcId p = 0; p < n; ++p) {
      const LinkSpec& spec = links_.at(q, p);
      fp_int(out, static_cast<std::int64_t>(spec.kind));
      fp_int(out, spec.min_delay);
      fp_int(out, spec.max_delay);
      fp_double(out, spec.on_time_probability);
    }
  }
  fp_int(out, net_.round_duration);
  fp_int(out, static_cast<std::int64_t>(net_.skews.size()));
  for (const SimTime skew : net_.skews) fp_int(out, skew);
  // net_.seed is excluded: the trial seed overrides it per trial.
  fp_int(out, static_cast<std::int64_t>(net_.plane));
  // Retired ring-depth slot: a constant keeps checkpoint fingerprints
  // stable across the ring layer's removal.
  fp_int(out, 0);
}

}  // namespace sskel
