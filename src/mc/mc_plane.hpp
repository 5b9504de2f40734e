// Monte-Carlo trial scheduling on the tile plane (DESIGN.md §13).
//
// run_scenario_trials (the "pool" scheduler) fans trials over
// parallel_for's per-call threads: correct and bit-deterministic, but
// every call pays batch-scoped fixed costs — a fresh InternDomain
// whose shards re-analyze every structure the previous batch already
// knew, and a fresh engine + n process constructions per trial.
// Campaign-scale runs are many small batches, so those fixed costs
// dominate at small n.
//
// McTilePlane is the same trial loop rebuilt as a persistent
// *service* over a fixed set of worker tiles, bound to no scenario:
// each stream (and so each batch) names the scenario it runs.
//
//   * each tile is one persistent std::jthread; trials are claimed off
//     one atomic cursor — the dispatcher release-stores an `offered`
//     count after writing trial i's seed into slot i % window, and a
//     tile claims the next index with a CAS on `claimed` while
//     claimed < offered. The in-flight window is the only
//     backpressure (DESIGN.md §13);
//   * each tile owns persistent worker state — its InternDomain shard
//     (tile threads live across batches, so InternDomain::local() is
//     stable per tile), its ProcSet word arena, and one reusable
//     ScenarioFactory::Scratch (engine, processes and the graph
//     source slot SimulatorScenario::run_trial manages, which serve
//     any scenario) — so a trial resets hot structures instead of
//     reconstructing them;
//   * the plane's InternDomain stays warm while consecutive streams
//     run the same scenario, and starts fresh when the scenario
//     changes: another graph family's structures would only fill the
//     shards' capacity.
//
// Determinism: trial t always uses seed mix_seed(master, t), results
// land in a trial-indexed window slot whose done flag the tile
// release-stores and the dispatcher acquire-loads in index order, and
// the fold is the shared fold_scenario_trial — so McSummary's
// trial-derived fields are bit-identical across tile counts and vs
// the pool scheduler, which stays callable as the reference.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "mc/montecarlo.hpp"
#include "mc/scenario.hpp"
#include "skeleton/intern.hpp"

namespace sskel {

struct McPlaneOptions {
  /// Worker tiles. 0 = resolve from SSKEL_THREADS / hardware
  /// concurrency; explicit values are still capped by SSKEL_THREADS
  /// (resolve_tile_count — the single concurrency knob).
  unsigned tiles = 0;
};

/// A persistent Monte-Carlo scheduling service: construct once, call
/// run() per batch with any scenario. Tiles, their intern shards, and
/// their engine scratch survive between batches — the second batch of
/// a converged scenario runs almost entirely on interned analytics
/// and reset (not reconstructed) engines. Dispatcher methods (run,
/// the stream calls and the counters) belong to one thread at a time.
class McTilePlane {
 public:
  explicit McTilePlane(McPlaneOptions options = {});
  ~McTilePlane();

  McTilePlane(const McTilePlane&) = delete;
  McTilePlane& operator=(const McTilePlane&) = delete;

  /// Runs one batch of `scenario`: trial t gets seed
  /// mix_seed(master_seed, t); aggregates fold in trial order.
  /// Bit-identical trial fields vs run_scenario_trials with the same
  /// (scenario, seed, trials, config). When config.intern is null the
  /// service's own domain is used (intern stats in the summary are
  /// then cumulative across this plane's batches since the scenario
  /// last changed — service-level counters, like the stall counters
  /// below).
  [[nodiscard]] McSummary run(const ScenarioFactory& scenario,
                              std::uint64_t master_seed, int trials,
                              const KSetRunConfig& config,
                              const TrialCallback& per_trial = {});

  // -------------------------------------------------------------------
  // Streaming feed (DESIGN.md §15). run() is itself built on this: a
  // batch is just a stream whose window spans every trial. The campaign
  // engine drives the stream directly so trials flow to the tiles
  // from a persistent cursor — the plane never tears down between
  // batches, and the dispatcher folds the contiguous completed prefix
  // in trial order, which is what makes checkpoint/resume bit-exact
  // (the folded prefix *is* the state).
  // -------------------------------------------------------------------

  /// Receives trial `index`'s result once every lower-indexed trial in
  /// the stream has been delivered too (contiguous, in index order).
  /// `elapsed_ns` is the tile-side wall time of run_trial — the
  /// campaign's runtime-outlier detector feeds on it; it is the one
  /// nondeterministic output and must not influence folded state.
  using StreamSink = std::function<void(
      std::uint64_t index, const ScenarioTrial& trial, std::int64_t elapsed_ns)>;

  /// Opens a stream of sequentially indexed trials of `scenario`
  /// starting at `first_index`, with at most `window` trials in
  /// flight. Binds the scenario and the run config for every trial of
  /// the stream (a null config.intern is replaced by the service's
  /// domain, which starts fresh when `scenario` is not the previous
  /// stream's). `scenario` must outlive the stream. No stream or batch
  /// may already be active.
  void stream_begin(const ScenarioFactory& scenario,
                    const KSetRunConfig& config, std::size_t window,
                    std::uint64_t first_index = 0);

  /// Offers trial `index` (must be the next sequential index) with its
  /// seed. Non-blocking: returns false — and consumes nothing — when
  /// the in-flight window is full (counted in submit_stalls); the
  /// caller should collect and retry. Never spins.
  [[nodiscard]] bool stream_offer(std::uint64_t index, std::uint64_t seed);

  /// Drains completed trials and invokes `sink` for each contiguous
  /// next-in-order trial. Returns how many trials reached the sink.
  std::size_t stream_collect(const StreamSink& sink);

  /// Blocks (yielding) until every in-flight trial has reached `sink`.
  void stream_flush(const StreamSink& sink);

  /// Waits for in-flight trials but discards their results — the
  /// "kill" path: a campaign stopping at a checkpoint boundary drops
  /// everything past the folded prefix, exactly what a crash would.
  void stream_abort();

  /// Closes the stream. All offered trials must have been collected
  /// (or aborted).
  void stream_end();

  /// Trials offered but not yet collected.
  [[nodiscard]] std::int64_t stream_in_flight() const {
    return static_cast<std::int64_t>(next_offer_ - next_collect_);
  }

  /// Writes the service-level fields (intern stats, ProcSet memory
  /// marks, scheduler provenance) into `summary` — the fields run()
  /// sets after folding, exported so streaming callers can finish a
  /// summary the same way.
  void export_service_fields(McSummary& summary) const;

  [[nodiscard]] unsigned tiles() const {
    return static_cast<unsigned>(scratch_.size());
  }
  /// Offers refused because the in-flight window was full, in the
  /// current (or last) stream.
  [[nodiscard]] std::int64_t submit_stalls() const { return submit_stalls_; }
  /// Trials executed by this service since construction (counted as
  /// they are collected or aborted).
  [[nodiscard]] std::int64_t trials_executed() const {
    return trials_executed_;
  }

 private:
  /// One in-flight window entry. The dispatcher writes `seed` before
  /// publishing the trial through `offered_`; the claiming tile writes
  /// `trial` and `elapsed_ns`, then release-stores `done`, which the
  /// dispatcher acquire-loads before reading them.
  struct Slot {
    std::uint64_t seed = 0;
    ScenarioTrial trial;
    std::int64_t elapsed_ns = 0;
    std::atomic<bool> done{false};
  };

  void tile_main(unsigned tile, const std::stop_token& stop);
  /// Runs the trial behind claim `ticket` on `tile` into its slot.
  void run_claimed(unsigned tile, std::uint64_t ticket);
  [[nodiscard]] Slot& slot_for(std::uint64_t index) {
    return slots_[static_cast<std::size_t>(index % slots_.size())];
  }

  /// Cross-batch intern domain of scenario_; tile threads are stable
  /// so each tile keeps one shard per domain. Replaced when a stream
  /// names another scenario. Comparing addresses is enough: a scenario
  /// rebuilt at a dead one's address only inherits a warm cache, which
  /// changes no trial result.
  std::unique_ptr<InternDomain> intern_;
  /// Per-tile trial scratch (index = tile).
  std::vector<std::unique_ptr<ScenarioFactory::Scratch>> scratch_;
  /// Streaming state, written by the dispatcher only between streams
  /// (stream_begin) and published to tiles by the first offer's
  /// release: the scenario and config copy bound for the stream's
  /// lifetime, the circular window (trial i in slot i % window —
  /// unique while in flight, the window bound guarantees no two live
  /// trials share a slot), and the ticket that the stream's first
  /// index maps to.
  const ScenarioFactory* scenario_ = nullptr;
  KSetRunConfig stream_config_;
  std::vector<Slot> slots_;
  std::uint64_t stream_first_ = 0;
  std::uint64_t stream_ticket_ = 0;
  /// Claim tickets, monotone over the plane's lifetime (never reset
  /// between streams, so a tile's stale CAS can never succeed on a
  /// recycled value): tickets below offered_ carry a seed; tickets
  /// below claimed_ belong to a tile.
  alignas(64) std::atomic<std::uint64_t> offered_{0};
  alignas(64) std::atomic<std::uint64_t> claimed_{0};
  /// Dispatcher-side cursors: [next_collect_, next_offer_) is in
  /// flight.
  std::uint64_t next_offer_ = 0;
  std::uint64_t next_collect_ = 0;
  bool streaming_ = false;
  std::int64_t submit_stalls_ = 0;
  std::int64_t trials_executed_ = 0;
  std::vector<std::jthread> workers_;  // last: joins tiles before the rest dies
};

}  // namespace sskel
