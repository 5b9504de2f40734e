// The scheduler-equivalence tripwire for Monte-Carlo on the tile
// plane (DESIGN.md §13), extending the PR 7 plane-equivalence
// pattern: the same (scenario, master seed, trials, config) must
// produce bit-identical trial-derived McSummary fields on the
// fork-join pool scheduler and on the tile-plane scheduler, across
// tile counts {1, 2, 4}, and under tiny-window backpressure. Only
// service-level fields — intern/arena/peak counters and scheduler
// provenance — may differ. Also covers the engine-scratch reuse
// contract (run_trial with scratch == without), one plane streaming
// several scenarios in turn, per-stream stall counting, and the
// SSKEL_THREADS tile-count cap.
#include "mc/mc_plane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "mc/montecarlo.hpp"
#include "mc/parallel_for.hpp"
#include "util/rng.hpp"

namespace sskel {
namespace {

/// Bit-equality over every trial-derived field, through the SSKC
/// projection (encode_summary_trial_fields) the campaign's resume
/// gate uses. Service-level fields (intern stats, shard counts,
/// ProcSet peak/live/arena accounting, scheduler/tiles) are outside
/// it: they describe the machinery, not the trials.
void expect_summaries_equal(const McSummary& a, const McSummary& b) {
  const std::vector<std::uint8_t> x = encode_summary_trial_fields(a);
  const std::vector<std::uint8_t> y = encode_summary_trial_fields(b);
  if (x == y) return;
  const auto diff = std::mismatch(x.begin(), x.end(), y.begin(), y.end());
  ADD_FAILURE() << "trial-field projections differ (" << x.size() << " vs "
                << y.size() << " bytes), first at byte "
                << (diff.first - x.begin());
}

PartitionScenario make_partition_scenario(ProcId n) {
  PartitionParams params;
  params.blocks = even_blocks(n, 2);
  params.cross_noise_probability = 0.15;
  params.stabilization_round = 4;
  return PartitionScenario(params);
}

KSetRunConfig base_config() {
  KSetRunConfig config;
  config.k = 2;
  config.tail_rounds = 2;
  return config;
}

constexpr std::uint64_t kSeed = 0xC0FFEE5EED;

TEST(McTilePlane, PoolVsTilePlaneBitIdentical) {
  const PartitionScenario scenario = make_partition_scenario(10);
  const KSetRunConfig config = base_config();
  const int trials = 24;

  const McSummary pool =
      run_scenario_trials(scenario, kSeed, trials, config, /*threads=*/2);
  McPlaneOptions options;
  options.tiles = 2;
  McTilePlane plane(options);
  const McSummary tiled = plane.run(scenario, kSeed, trials, config);

  expect_summaries_equal(pool, tiled);
  EXPECT_EQ(pool.scheduler, "pool");
  EXPECT_EQ(tiled.scheduler, "tile-plane");
  EXPECT_EQ(tiled.tiles, static_cast<std::int64_t>(plane.tiles()));
  EXPECT_EQ(plane.trials_executed(), trials);
}

TEST(McTilePlane, BitIdenticalAcrossTileCounts) {
  const PartitionScenario scenario = make_partition_scenario(8);
  const KSetRunConfig config = base_config();
  const int trials = 20;

  std::vector<McSummary> runs;
  for (unsigned tiles : {1u, 2u, 4u}) {
    McPlaneOptions options;
    options.tiles = tiles;
    McTilePlane plane(options);
    runs.push_back(plane.run(scenario, kSeed, trials, config));
    // SSKEL_THREADS may cap the request; the summary reports the plane.
    EXPECT_LE(plane.tiles(), tiles);
    EXPECT_EQ(runs.back().tiles, static_cast<std::int64_t>(plane.tiles()));
  }
  expect_summaries_equal(runs[0], runs[1]);
  expect_summaries_equal(runs[0], runs[2]);
}

TEST(McTilePlane, TinyWindowBackpressureBitIdentical) {
  // Windows of 1 and 2 against 48 trials on 3 tiles: the dispatcher
  // must be refused (the window is the only backpressure) and ride it
  // without reordering or dropping a trial. Results stay equal to the
  // reference scheduler.
  const PartitionScenario scenario = make_partition_scenario(8);
  const KSetRunConfig config = base_config();
  const int trials = 48;

  const McSummary pool =
      run_scenario_trials(scenario, kSeed, trials, config, /*threads=*/1);
  for (std::size_t window : {std::size_t{1}, std::size_t{2}}) {
    McPlaneOptions options;
    options.tiles = 3;
    McTilePlane plane(options);
    McSummary streamed;
    streamed.scenario = scenario.name();
    streamed.bytes_measured = config.measure_bytes;
    const McTilePlane::StreamSink sink =
        [&](std::uint64_t, const ScenarioTrial& trial, std::int64_t) {
          fold_scenario_trial(streamed, trial, config);
        };
    plane.stream_begin(scenario, config, window);
    for (std::uint64_t t = 0; t < static_cast<std::uint64_t>(trials);) {
      if (plane.stream_offer(t, mix_seed(kSeed, t))) {
        ++t;
      } else {
        EXPECT_LE(plane.stream_in_flight(),
                  static_cast<std::int64_t>(window));
        (void)plane.stream_collect(sink);
      }
    }
    plane.stream_flush(sink);
    plane.stream_end();
    expect_summaries_equal(pool, streamed);
    EXPECT_GT(plane.submit_stalls(), 0) << "window " << window;
    EXPECT_EQ(plane.trials_executed(), trials);
  }
}

TEST(McTilePlane, PersistentServiceReusesInternAcrossBatches) {
  // The point of the persistent service: batch 2 of the same scenario
  // resolves structures against the shard batch 1 populated — entry
  // count stops growing while hits keep climbing. Trial-derived
  // fields stay bit-identical (same seeds). One tile, so every trial
  // of batch 2 lands on the shard that ran it in batch 1.
  const PartitionScenario scenario = make_partition_scenario(10);
  const KSetRunConfig config = base_config();
  McPlaneOptions options;
  options.tiles = 1;
  McTilePlane plane(options);

  const McSummary first = plane.run(scenario, kSeed, 16, config);
  const McSummary second = plane.run(scenario, kSeed, 16, config);
  expect_summaries_equal(first, second);
  // Cumulative service-level counters: no new structures in batch 2...
  EXPECT_EQ(second.intern.entries, first.intern.entries);
  // ...while resolutions kept landing as hits.
  EXPECT_GT(second.intern.hits, first.intern.hits);
  EXPECT_EQ(plane.trials_executed(), 32);

  // Once another scenario has run, the plane starts a fresh domain:
  // the same batch replays the first batch's intern stats exactly
  // instead of adding to them.
  const RotatingScenario rotating(6);
  (void)plane.run(rotating, kSeed, 16, config);
  const McSummary switched_back = plane.run(scenario, kSeed, 16, config);
  expect_summaries_equal(first, switched_back);
  EXPECT_EQ(switched_back.intern.entries, first.intern.entries);
  EXPECT_EQ(switched_back.intern.hits, first.intern.hits);
  EXPECT_EQ(switched_back.intern.misses, first.intern.misses);
}

TEST(McTilePlane, PersistentServiceReusesInternAcrossBatchesOnManyTiles) {
  // With several tiles, trials are claimed dynamically, so a batch-2
  // trial may land on a shard that has not seen its structures yet
  // (DESIGN.md §13). What still holds: each shard only ever holds the
  // workload's structures, so entries stay within tiles x the 1-tile
  // count; and a repeated trial on a shard that already ran it adds
  // nothing, so at most tiles x trials batches can grow the entry
  // count — within that many batches plus one, some batch adds none.
  const PartitionScenario scenario = make_partition_scenario(10);
  const KSetRunConfig config = base_config();
  const int trials = 8;
  McPlaneOptions one_tile;
  one_tile.tiles = 1;
  McTilePlane reference(one_tile);
  const McSummary baseline = reference.run(scenario, kSeed, trials, config);

  McPlaneOptions options;
  options.tiles = 2;
  McTilePlane plane(options);
  const std::int64_t bound =
      static_cast<std::int64_t>(plane.tiles()) * baseline.intern.entries;
  McSummary previous = plane.run(scenario, kSeed, trials, config);
  expect_summaries_equal(baseline, previous);
  EXPECT_LE(previous.intern.entries, bound);
  const int max_batches = static_cast<int>(plane.tiles()) * trials + 1;
  bool settled = false;
  for (int batch = 0; batch < max_batches && !settled; ++batch) {
    const McSummary next = plane.run(scenario, kSeed, trials, config);
    expect_summaries_equal(baseline, next);
    EXPECT_GE(next.intern.entries, previous.intern.entries);
    EXPECT_LE(next.intern.entries, bound);
    EXPECT_GT(next.intern.hits, previous.intern.hits);
    settled = next.intern.entries == previous.intern.entries;
    previous = next;
  }
  EXPECT_TRUE(settled) << "entries still growing after " << max_batches
                       << " batches";
}

TEST(McTilePlane, ScratchReuseMatchesScratchFreeTrials) {
  // The ScenarioFactory scratch contract, scenario by scenario: a
  // reused engine must replay a trial bit-identically to a fresh one.
  // All scenarios share one scratch, so each also inherits the previous
  // scenario's state — including a partition source with other blocks.
  const KSetRunConfig config = base_config();
  const PartitionScenario partition = make_partition_scenario(8);
  const CrashScenario crash(9, 2, 4);
  const RotatingScenario rotating(7);
  RandomPsrcsParams params;
  params.n = 9;
  params.k = 3;
  const RandomPsrcsScenario random_psrcs(params);
  PartitionParams four_blocks;
  four_blocks.blocks = even_blocks(8, 4);
  const PartitionScenario partition4(four_blocks);

  const ScenarioFactory* scenarios[] = {&partition, &crash, &rotating,
                                        &random_psrcs, &partition4};
  const std::unique_ptr<ScenarioFactory::Scratch> scratch =
      partition.make_scratch();
  ASSERT_NE(scratch, nullptr);
  for (const ScenarioFactory* scenario : scenarios) {
    for (std::uint64_t seed : {7u, 19u, 7u, 23u}) {  // includes a repeat
      const ScenarioTrial fresh = scenario->run_trial(seed, config);
      const ScenarioTrial reused =
          scenario->run_trial(seed, config, scratch.get());
      const KSetRunReport& a = fresh.kset;
      const KSetRunReport& b = reused.kset;
      EXPECT_EQ(a.n, b.n) << scenario->name();
      ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << scenario->name();
      for (std::size_t p = 0; p < a.outcomes.size(); ++p) {
        EXPECT_EQ(a.outcomes[p].decided, b.outcomes[p].decided)
            << scenario->name() << " p=" << p;
        EXPECT_EQ(a.outcomes[p].decision, b.outcomes[p].decision)
            << scenario->name() << " p=" << p;
        EXPECT_EQ(a.outcomes[p].decision_round, b.outcomes[p].decision_round)
            << scenario->name() << " p=" << p;
      }
      EXPECT_EQ(a.paths, b.paths) << scenario->name();
      EXPECT_EQ(a.rounds_executed, b.rounds_executed) << scenario->name();
      EXPECT_EQ(a.final_skeleton, b.final_skeleton) << scenario->name();
      EXPECT_EQ(a.skeleton_last_change, b.skeleton_last_change)
          << scenario->name();
      EXPECT_EQ(a.root_components_final, b.root_components_final)
          << scenario->name();
      EXPECT_EQ(a.total_messages, b.total_messages) << scenario->name();
    }
  }
}

TEST(McTilePlane, RunScenarioTrialsOnDispatchesBothSchedulers) {
  const PartitionScenario scenario = make_partition_scenario(8);
  const KSetRunConfig config = base_config();
  McPlaneOptions options;
  options.tiles = 2;
  const McSummary pool =
      run_scenario_trials(scenario, kSeed, 12, config, options.tiles);
  McTilePlane plane(options);
  const McSummary tiled = plane.run(scenario, kSeed, 12, config);
  EXPECT_EQ(pool.scheduler, "pool");
  EXPECT_EQ(tiled.scheduler, "tile-plane");
  expect_summaries_equal(pool, tiled);
}

TEST(McTilePlaneStream, ManualStreamFoldMatchesBatchRun) {
  // The streaming API is the batch API unrolled: offering the same
  // seeds through stream_begin/offer/flush and left-folding in the
  // sink must reproduce run()'s trial-derived fields bit-for-bit,
  // even with a window far smaller than the trial count.
  const PartitionScenario scenario = make_partition_scenario(8);
  const KSetRunConfig config = base_config();
  const int trials = 30;

  McTilePlane batch_plane;
  const McSummary batch = batch_plane.run(scenario, kSeed, trials, config);

  McTilePlane plane;
  McSummary streamed;
  streamed.scenario = scenario.name();
  streamed.bytes_measured = config.measure_bytes;
  std::uint64_t delivered = 0;
  const McTilePlane::StreamSink sink =
      [&](std::uint64_t index, const ScenarioTrial& trial,
          std::int64_t elapsed_ns) {
        EXPECT_EQ(index, delivered);  // contiguous, in trial order
        EXPECT_GE(elapsed_ns, 0);
        fold_scenario_trial(streamed, trial, config);
        ++delivered;
      };
  plane.stream_begin(scenario, config, /*window=*/4);
  for (std::uint64_t t = 0; t < static_cast<std::uint64_t>(trials);) {
    if (plane.stream_offer(t, mix_seed(kSeed, t))) {
      ++t;
    } else {
      EXPECT_LE(plane.stream_in_flight(), 4);  // window bounds in-flight
      (void)plane.stream_collect(sink);
    }
  }
  plane.stream_flush(sink);
  EXPECT_EQ(plane.stream_in_flight(), 0);
  plane.stream_end();

  EXPECT_EQ(delivered, static_cast<std::uint64_t>(trials));
  expect_summaries_equal(batch, streamed);
}

TEST(McTilePlaneStream, AbortDiscardsInFlightAndPlaneStaysUsable) {
  const PartitionScenario scenario = make_partition_scenario(8);
  const KSetRunConfig config = base_config();

  McTilePlane plane;
  plane.stream_begin(scenario, config, /*window=*/8);
  std::uint64_t offered = 0;
  while (offered < 6 && plane.stream_offer(offered, mix_seed(kSeed, offered))) {
    ++offered;
  }
  EXPECT_GT(offered, 0u);
  plane.stream_abort();  // the crash path: drain, deliver nothing
  EXPECT_EQ(plane.stream_in_flight(), 0);
  plane.stream_end();

  // The aborted stream leaves no residue: a batch run on the same
  // plane still matches a fresh plane bit-for-bit.
  const McSummary after = plane.run(scenario, kSeed, 12, config);
  McTilePlane fresh;
  expect_summaries_equal(fresh.run(scenario, kSeed, 12, config), after);
}

TEST(McTilePlaneStream, FirstIndexOffsetResumesMidSequence) {
  // Resume semantics: a stream opened at first_index folds the same
  // trials [first, total) that the tail of a full batch folds.
  const PartitionScenario scenario = make_partition_scenario(8);
  const KSetRunConfig config = base_config();
  const std::uint64_t first = 7;
  const std::uint64_t total = 19;

  McTilePlane plane;
  McSummary tail;
  tail.scenario = scenario.name();
  tail.bytes_measured = config.measure_bytes;
  const McTilePlane::StreamSink sink =
      [&](std::uint64_t, const ScenarioTrial& trial, std::int64_t) {
        fold_scenario_trial(tail, trial, config);
      };
  plane.stream_begin(scenario, config, /*window=*/4, first);
  for (std::uint64_t t = first; t < total;) {
    if (plane.stream_offer(t, mix_seed(kSeed, t))) {
      ++t;
    } else {
      (void)plane.stream_collect(sink);
    }
  }
  plane.stream_flush(sink);
  plane.stream_end();

  McSummary expected;
  expected.scenario = scenario.name();
  expected.bytes_measured = config.measure_bytes;
  for (std::uint64_t t = first; t < total; ++t) {
    fold_scenario_trial(expected, scenario.run_trial(mix_seed(kSeed, t), config),
                        config);
  }
  expect_summaries_equal(expected, tail);
}

TEST(McTilePlane, OnePlaneStreamsScenariosInTurn) {
  // The plane is bound to no scenario: each batch names its own, the
  // per-tile scratch serves whichever scenario claims it (n changes
  // from 4 to 6 and back), and every batch still equals the pool.
  const PartitionScenario partition = make_partition_scenario(4);
  RandomPsrcsParams params;
  params.n = 6;
  params.k = 2;
  const RandomPsrcsScenario random_psrcs(params);
  const KSetRunConfig config = base_config();
  const int trials = 20;

  McPlaneOptions options;
  options.tiles = 2;
  McTilePlane plane(options);
  const ScenarioFactory* order[] = {&partition, &random_psrcs, &partition};
  for (const ScenarioFactory* scenario : order) {
    const McSummary pool =
        run_scenario_trials(*scenario, kSeed, trials, config, /*threads=*/2);
    const McSummary tiled = plane.run(*scenario, kSeed, trials, config);
    expect_summaries_equal(pool, tiled);
    EXPECT_EQ(tiled.scenario, scenario->name());
  }
  EXPECT_EQ(plane.trials_executed(), 3 * trials);
}

TEST(McTilePlaneStream, SubmitStallsCountTheCurrentStreamOnly) {
  const PartitionScenario scenario = make_partition_scenario(8);
  const KSetRunConfig config = base_config();
  McTilePlane plane;

  plane.stream_begin(scenario, config, /*window=*/1);
  ASSERT_TRUE(plane.stream_offer(0, mix_seed(kSeed, 0)));
  // Trial 0 is not collected, so it still holds the only slot.
  EXPECT_FALSE(plane.stream_offer(1, mix_seed(kSeed, 1)));
  EXPECT_EQ(plane.submit_stalls(), 1);
  plane.stream_abort();
  plane.stream_end();

  // A batch's window covers every trial, so none of its offers is
  // refused, and the previous stream's refusal is not carried over.
  const McSummary batch = plane.run(scenario, kSeed, 8, config);
  EXPECT_EQ(batch.runs, 8);
  EXPECT_EQ(plane.submit_stalls(), 0);
}

TEST(McTilePlaneEnv, TilesFromEnvValuePureCases) {
  // requested == 0: the env value clamped to [1, hardware] (the full
  // parsing table is ParallelForTest.ThreadsFromEnvValueParsesAndClamps).
  EXPECT_EQ(tiles_from_env_value(0, nullptr, 8), 8u);
  EXPECT_EQ(tiles_from_env_value(0, "3", 8), 3u);
  EXPECT_EQ(tiles_from_env_value(0, "12", 8), 8u);  // clamped to hw
  // Explicit request: capped by the env, never hardware-clamped.
  EXPECT_EQ(tiles_from_env_value(4, nullptr, 1), 4u);
  EXPECT_EQ(tiles_from_env_value(4, "", 1), 4u);
  EXPECT_EQ(tiles_from_env_value(4, "2", 1), 2u);
  EXPECT_EQ(tiles_from_env_value(4, "99", 1), 4u);
  EXPECT_EQ(tiles_from_env_value(4, "4", 1), 4u);
  // Garbage / non-positive env values leave the request alone.
  EXPECT_EQ(tiles_from_env_value(4, "abc", 1), 4u);
  EXPECT_EQ(tiles_from_env_value(4, "2x", 1), 4u);
  EXPECT_EQ(tiles_from_env_value(4, "0", 1), 4u);
  EXPECT_EQ(tiles_from_env_value(4, "-3", 1), 4u);
  EXPECT_EQ(tiles_from_env_value(4, "2 ", 1), 2u);  // trailing space ok
}

TEST(McTilePlaneEnv, SskelThreadsCapsTileCount) {
  // The live-env path: SSKEL_THREADS=1 must cap an explicit 4-tile
  // request down to 1 (single concurrency knob).
  ASSERT_EQ(setenv("SSKEL_THREADS", "1", 1), 0);
  EXPECT_EQ(resolve_tile_count(4), 1u);
  const PartitionScenario scenario = make_partition_scenario(8);
  McPlaneOptions options;
  options.tiles = 4;
  McTilePlane plane(options);
  EXPECT_EQ(plane.tiles(), 1u);
  ASSERT_EQ(unsetenv("SSKEL_THREADS"), 0);
  EXPECT_EQ(resolve_tile_count(4), 4u);
}

}  // namespace
}  // namespace sskel
