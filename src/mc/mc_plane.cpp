#include "mc/mc_plane.hpp"

#include <chrono>
#include <thread>

#include "mc/parallel_for.hpp"
#include "util/rng.hpp"

namespace sskel {

McTilePlane::McTilePlane(McPlaneOptions options)
    : scratch_(resolve_tile_count(options.tiles)) {
  // scratch_.size() rather than resolving again: SSKEL_THREADS is
  // re-read per resolve and must bind exactly once per plane.
  const auto tiles = static_cast<unsigned>(scratch_.size());
  for (auto& slot : scratch_) {
    slot = std::make_unique<ScenarioFactory::Scratch>();
  }
  workers_.reserve(tiles);
  for (unsigned tile = 0; tile < tiles; ++tile) {
    workers_.emplace_back([this, tile](const std::stop_token& stop) {
      tile_main(tile, stop);
    });
  }
}

McTilePlane::~McTilePlane() = default;

void McTilePlane::tile_main(unsigned tile, const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    std::uint64_t ticket = claimed_.load(std::memory_order_relaxed);
    // Acquire pairs with stream_offer's release: every seed (and the
    // stream state) behind a ticket below `offered` is visible here.
    if (ticket >= offered_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
      continue;
    }
    if (claimed_.compare_exchange_weak(ticket, ticket + 1,
                                       std::memory_order_relaxed)) {
      run_claimed(tile, ticket);
    }
  }
}

void McTilePlane::run_claimed(unsigned tile, std::uint64_t ticket) {
  // Exclusive access: the window bound means no other live trial maps
  // to this slot, and the dispatcher does not touch it until `done`.
  Slot& slot = slot_for(stream_first_ + (ticket - stream_ticket_));
  const auto start = std::chrono::steady_clock::now();
  slot.trial = scenario_->run_trial(slot.seed, stream_config_,
                                    scratch_[tile].get());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  slot.elapsed_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  slot.done.store(true, std::memory_order_release);
}

void McTilePlane::stream_begin(const ScenarioFactory& scenario,
                               const KSetRunConfig& config, std::size_t window,
                               std::uint64_t first_index) {
  SSKEL_REQUIRE(!streaming_);
  SSKEL_REQUIRE(window > 0);

  // The persistent domain is the service's point: tile shards carry
  // interned analytics from batch to batch, so a converged scenario's
  // second batch re-analyzes (almost) nothing. Another scenario's
  // structures would only crowd the shards, so a switch starts afresh.
  // Safe to replace: no tile holds a claim between streams, and each
  // trial rebinds its shard from the stream's config.
  if (scenario_ != &scenario) {
    intern_ = std::make_unique<InternDomain>();
    scenario_ = &scenario;
  }
  stream_config_ = config;
  if (stream_config_.intern == nullptr) stream_config_.intern = intern_.get();

  // Safe to rewrite: the previous stream was fully collected, so no
  // tile holds a claim, and tiles read this state only after claiming.
  slots_ = std::vector<Slot>(window);
  stream_first_ = first_index;
  stream_ticket_ = offered_.load(std::memory_order_relaxed);
  next_offer_ = first_index;
  next_collect_ = first_index;
  submit_stalls_ = 0;
  streaming_ = true;
}

bool McTilePlane::stream_offer(std::uint64_t index, std::uint64_t seed) {
  SSKEL_REQUIRE(streaming_);
  SSKEL_REQUIRE(index == next_offer_);
  if (next_offer_ - next_collect_ >= slots_.size()) {
    ++submit_stalls_;
    return false;
  }
  slot_for(index).seed = seed;
  ++next_offer_;
  // Sole writer: publish the seed (release) to the claiming tile.
  offered_.store(offered_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_release);
  return true;
}

std::size_t McTilePlane::stream_collect(const StreamSink& sink) {
  SSKEL_REQUIRE(streaming_);
  std::size_t delivered = 0;
  while (next_collect_ < next_offer_) {
    Slot& slot = slot_for(next_collect_);
    if (!slot.done.load(std::memory_order_acquire)) break;
    if (sink) sink(next_collect_, slot.trial, slot.elapsed_ns);
    slot.done.store(false, std::memory_order_relaxed);
    ++next_collect_;
    ++delivered;
  }
  trials_executed_ += static_cast<std::int64_t>(delivered);
  return delivered;
}

void McTilePlane::stream_flush(const StreamSink& sink) {
  while (stream_in_flight() > 0) {
    if (stream_collect(sink) == 0) std::this_thread::yield();
  }
}

void McTilePlane::stream_abort() { stream_flush(StreamSink{}); }

void McTilePlane::stream_end() {
  SSKEL_REQUIRE(streaming_);
  SSKEL_REQUIRE(stream_in_flight() == 0);
  streaming_ = false;
}

void McTilePlane::export_service_fields(McSummary& summary) const {
  SSKEL_REQUIRE(scenario_ != nullptr);
  summary.scenario = scenario_->name();
  summary.intern = stream_config_.intern->merged_stats();
  summary.intern_shards =
      static_cast<std::int64_t>(stream_config_.intern->shard_count());
  summary.peak_proc_set_bytes = ProcSet::peak_bytes();
  summary.live_proc_set_bytes = ProcSet::live_bytes();
  summary.arena_proc_set_bytes = ProcSet::arena_bytes();
  summary.arena_reuses = ProcSet::arena_reuses();
  summary.scheduler = "tile-plane";
  summary.tiles = static_cast<std::int64_t>(tiles());
}

McSummary McTilePlane::run(const ScenarioFactory& scenario,
                           std::uint64_t master_seed, int trials,
                           const KSetRunConfig& config,
                           const TrialCallback& per_trial) {
  SSKEL_REQUIRE(trials >= 0);

  ProcSet::reset_peak_bytes();

  McSummary summary;
  summary.bytes_measured = config.measure_bytes;

  // A batch is a stream whose window covers every trial: every offer
  // succeeds, and the fold happens on the dispatcher as completions
  // arrive — in trial order, exactly like a batch-end fold.
  stream_begin(scenario, config, std::max<std::size_t>(static_cast<std::size_t>(trials),
                                             std::size_t{1}));
  const StreamSink sink = [&](std::uint64_t t, const ScenarioTrial& trial,
                              std::int64_t /*elapsed_ns*/) {
    fold_scenario_trial(summary, trial, config);
    if (per_trial) per_trial(static_cast<std::size_t>(t), trial);
  };
  for (int t = 0; t < trials; ++t) {
    const auto index = static_cast<std::uint64_t>(t);
    while (!stream_offer(index, mix_seed(master_seed, index))) {
      if (stream_collect(sink) == 0) std::this_thread::yield();
    }
    stream_collect(sink);
  }
  stream_flush(sink);
  stream_end();

  export_service_fields(summary);
  return summary;
}

}  // namespace sskel
