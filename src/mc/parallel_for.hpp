// Thread-parallel fan-out for Monte-Carlo experiments.
//
// Simulation runs are embarrassingly parallel: each trial has its own
// seed, its own GraphSource, and its own simulator, sharing nothing.
// parallel_for spawns its helper threads per call; they and the caller
// claim indices one at a time off a shared atomic counter (trial costs
// vary wildly with the sampled topology, so static blocks would
// straggle), and every helper is joined before the call returns.
// Determinism: results are keyed by trial index, never by completion
// order; with the seed-per-trial discipline (mix_seed(master, index))
// any thread count produces bit-identical aggregates.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace sskel {

/// SSKEL_THREADS as the single concurrency knob, applied to a worker
/// or tile count: requested == 0 resolves to a parsed-positive
/// `value` clamped to [1, hardware], or to max(1, hardware) when the
/// value is unset or unparsable; an explicit nonzero request is
/// *capped* by a parsed-positive value but is NOT hardware-clamped —
/// oversubscribed counts are a deliberate testing configuration (4
/// tiles on a 1-core host must stay 4 unless the env says less).
/// Unparsable, empty, zero, or negative values leave the request (or
/// the hardware default) alone; trailing whitespace is accepted.
/// Pure; exposed for unit tests.
[[nodiscard]] unsigned tiles_from_env_value(unsigned requested,
                                            const char* value,
                                            unsigned hardware);

/// tiles_from_env_value against the live SSKEL_THREADS (re-read per
/// call) and hardware concurrency.
[[nodiscard]] unsigned resolve_tile_count(unsigned requested);

/// Invokes fn(i) for every i in [0, count) on
/// min(resolve_tile_count(threads), count) threads: the caller plus
/// helpers spawned for this call. Runs inline, in index order, when
/// that is one thread. fn must not throw.
template <typename Fn>
void parallel_for(std::size_t count, Fn&& fn, unsigned threads = 0) {
  const std::size_t workers =
      std::min<std::size_t>(resolve_tile_count(threads), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < count; i = next++) fn(i);
  };
  std::vector<std::jthread> helpers;
  helpers.reserve(workers - 1);
  for (std::size_t h = 1; h < workers; ++h) helpers.emplace_back(work);
  work();
}  // helpers join here

/// Maps fn over [0, count) into an index-ordered vector.
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> collect_parallel(std::size_t count, Fn&& fn,
                                              unsigned threads = 0) {
  std::vector<T> results(count);
  parallel_for(
      count, [&](std::size_t i) { results[i] = fn(i); }, threads);
  return results;
}

}  // namespace sskel
