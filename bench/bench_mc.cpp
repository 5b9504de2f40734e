// E15 — Monte-Carlo trial scheduling: fork-join pool vs the
// persistent tile-plane service (DESIGN.md §13).
//
// The fleet workload is many small trial batches against a scenario
// whose structure space has *converged*: after the first sweep the
// intern domain already holds every skeleton structure the adversary
// can produce, so a trial is mostly round execution plus fixed costs.
// The two schedulers split exactly on those fixed costs:
//
//   * fork-join pool (run_scenario_trials) — per batch: build a fresh
//     InternDomain (all analytics recompute), and per trial construct
//     a RoundEngine plus n process objects. A one-trial batch runs
//     inline on the calling thread; no worker is spawned.
//   * tile-plane service (McTilePlane) — persistent tiles, a domain
//     that survives from batch to batch (analytics converge once,
//     globally), and per-tile trial scratch that resets engine and
//     processes in place instead of reconstructing them.
//
// Both fold results trial-index-keyed from identical per-trial seeds,
// so the summaries are bit-identical (the McTilePlane tripwire tests
// pin the full struct; the bench asserts a cheap digest projection).
//
// Gates: the service sustains >= 3x the pool's batch throughput on the
// converged workload, and every digest matches. A tile-count sweep
// reports scaling and asserts the digest is the same at every tile
// count (the host may be single-core; the sweep is about correctness
// of oversubscription, the gate about fixed-cost elimination).
//
// SSKEL_SMOKE=1 shrinks the sweeps for CI; SSKEL_BENCH_JSON overrides
// the BENCH_mc.json path. Rate fields end in _per_sec so
// tools/bench_diff.py treats them as higher-is-better.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "adversary/partition.hpp"
#include "mc/mc_plane.hpp"
#include "mc/montecarlo.hpp"
#include "util/bench_json.hpp"
#include "util/table.hpp"

namespace {

using namespace sskel;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Trial-derived projection of a summary: any scheduler divergence in
/// any trial perturbs at least one of these. Service-level fields
/// (intern stats, scheduler provenance, memory marks) are deliberately
/// excluded — they legitimately differ between schedulers.
[[nodiscard]] std::string summary_digest(const McSummary& s) {
  std::string d;
  d += std::to_string(s.runs) + "|" + std::to_string(s.undecided_runs);
  d += "|" + std::to_string(s.agreement_violations);
  d += "|" + std::to_string(s.bound_violations);
  d += "|" + s.distinct_histogram.to_string();
  d += "|" + s.root_histogram.to_string();
  d += "|" + std::to_string(s.last_decision_round.sum());
  d += "|" + std::to_string(s.stabilization_round.sum());
  d += "|" + std::to_string(s.total_messages.sum());
  return d;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("SSKEL_SMOKE") != nullptr;
  bool all_ok = true;
  BenchJson json("mc");

  // The converged workload: a 2-block partition of n = 4 that is
  // stable from round 1, so the structure space is tiny and converges
  // within the first batch. Small n keeps per-trial execution short,
  // which is exactly the fleet regime where the schedulers' fixed
  // costs (engine/process construction, fresh-domain analytics)
  // dominate the batch — the cost class the tile plane eliminates.
  const ProcId n = 4;
  PartitionParams params;
  params.blocks = even_blocks(n, 2);
  params.cross_noise_probability = 0.0;
  params.stabilization_round = 1;
  const PartitionScenario scenario(params);

  KSetRunConfig config;
  config.k = 2;

  std::cout << "========================================================\n"
            << " E15: Monte-Carlo scheduling — pool vs tile-plane\n"
            << " (partition n=4, m=2, converged structure space)\n"
            << "========================================================\n\n";

  {
    const int batches = smoke ? 12 : 96;
    // One trial per request: the fleet's smallest batch, where the
    // schedulers' per-batch and per-trial fixed costs are least
    // amortized and the split between them is sharpest.
    const int trials_per_batch = 1;
    const int warm_batches = smoke ? 4 : 16;
    const int reps = smoke ? 2 : 3;
    const std::uint64_t master = 0xE15BA5E;

    // Fork-join pool baseline: one run_scenario_trials call per batch,
    // the pre-§13 shape (fresh domain + fresh engines every time).
    // Both schedulers get an untimed warm-up (allocator, code, worker
    // threads, intern-domain convergence) and then `reps` identically
    // seeded timed repetitions; the minimum elapsed is the score. The
    // seeds repeat across reps on purpose — batch b is always
    // master + b — so every rep must reproduce the same digests, and
    // min-of-reps measures steady-state batch cost, not scheduler
    // noise on a busy host.
    std::vector<std::string> pool_digests;
    pool_digests.reserve(static_cast<std::size_t>(batches));
    auto pool_batch = [&](int b) {
      return summary_digest(run_scenario_trials(
          scenario, master + static_cast<std::uint64_t>(b), trials_per_batch,
          config, /*threads=*/0));
    };
    for (int b = 0; b < warm_batches; ++b) (void)pool_batch(b % batches);
    double pool_s = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const Clock::time_point start = Clock::now();
      for (int b = 0; b < batches; ++b) {
        std::string digest = pool_batch(b);
        if (rep == 0) {
          pool_digests.push_back(std::move(digest));
        } else {
          SSKEL_ASSERT(digest == pool_digests[static_cast<std::size_t>(b)]);
        }
      }
      const double elapsed = seconds_since(start);
      pool_s = rep == 0 ? elapsed : std::min(pool_s, elapsed);
    }

    // Tile-plane service: one plane reused across every batch — the
    // per-trial state (engines, trackers, intern shards) persists, the
    // pool rebuilds it per trial. Warm-up also converges the intern
    // domain, so the timed reps see the service's steady state; the
    // convergence cost itself is reported below (batch-1 misses).
    McTilePlane plane;
    McSummary last_plane_summary;
    std::int64_t first_batch_misses = 0;
    auto plane_batch = [&](int b) {
      last_plane_summary =
          plane.run(scenario, master + static_cast<std::uint64_t>(b),
                    trials_per_batch, config);
      return summary_digest(last_plane_summary);
    };
    for (int b = 0; b < warm_batches; ++b) {
      const std::string digest = plane_batch(b % batches);
      if (b == 0) first_batch_misses = last_plane_summary.intern.misses;
      SSKEL_ASSERT(digest == pool_digests[static_cast<std::size_t>(b % batches)]);
    }
    double plane_s = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const Clock::time_point start = Clock::now();
      for (int b = 0; b < batches; ++b) {
        SSKEL_ASSERT(plane_batch(b) ==
                     pool_digests[static_cast<std::size_t>(b)]);
      }
      const double elapsed = seconds_since(start);
      plane_s = rep == 0 ? elapsed : std::min(plane_s, elapsed);
    }

    const double total_trials =
        static_cast<double>(batches) * static_cast<double>(trials_per_batch);
    const double pool_rate = total_trials / (pool_s > 0.0 ? pool_s : 1e-9);
    const double plane_rate = total_trials / (plane_s > 0.0 ? plane_s : 1e-9);
    const double speedup = plane_rate / (pool_rate > 0.0 ? pool_rate : 1e-9);
    const bool speedup_ok = speedup >= 3.0;
    all_ok = all_ok && speedup_ok;

    Table table("batched service throughput (" + std::to_string(batches) +
                    " batches x " + std::to_string(trials_per_batch) +
                    " trials, best of " + std::to_string(reps) + " reps)",
                {"scheduler", "trials/s", "elapsed (ms)", "intern misses",
                 "intern hits"});
    table.add_row({"fork-join pool", cell(pool_rate, 0),
                   cell(pool_s * 1000.0, 1), "per batch", "-"});
    table.add_row({"tile-plane service", cell(plane_rate, 0),
                   cell(plane_s * 1000.0, 1),
                   cell(last_plane_summary.intern.misses),
                   cell(last_plane_summary.intern.hits)});
    table.print(std::cout);
    std::cout << "service speedup: " << speedup
              << "x (gate >= 3x: " << (speedup_ok ? "PASS" : "FAIL")
              << "); digests bit-identical across every batch of every rep\n"
              << "domain convergence: " << first_batch_misses
              << " misses in batch 1 vs "
              << last_plane_summary.intern.misses << " total after "
              << warm_batches + reps * batches << " batches\n\n";

    json.add("service_speedup")
        .set("batches", batches)
        .set("trials_per_batch", trials_per_batch)
        .set("timing_reps", reps)
        .set("pool_trials_per_sec", pool_rate)
        .set("plane_trials_per_sec", plane_rate)
        .set("speedup_vs_pool", speedup)
        .set("first_batch_intern_misses", first_batch_misses)
        .set("final_intern_misses", last_plane_summary.intern.misses)
        .set("final_intern_hits", last_plane_summary.intern.hits)
        .set("trials_executed", plane.trials_executed())
        .set("speedup_gate_pass", static_cast<std::int64_t>(speedup_ok));
  }

  std::cout << "========================================================\n"
            << " E15b: tile-count sweep\n"
            << "========================================================\n\n";

  {
    const int trials = smoke ? 24 : 96;
    const std::uint64_t master = 0xE15B;
    std::string reference_digest;

    Table table("tile sweep (" + std::to_string(trials) + " trials per row)",
                {"tiles", "trials/s"});
    for (unsigned tiles : {1u, 2u, 4u}) {
      McTilePlane plane(McPlaneOptions{tiles});
      const Clock::time_point start = Clock::now();
      const McSummary summary = plane.run(scenario, master, trials, config);
      const double elapsed = seconds_since(start);
      const double rate =
          static_cast<double>(trials) / (elapsed > 0.0 ? elapsed : 1e-9);

      const std::string digest = summary_digest(summary);
      if (reference_digest.empty()) reference_digest = digest;
      SSKEL_ASSERT(digest == reference_digest);

      table.add_row({cell(static_cast<std::int64_t>(tiles)), cell(rate, 0)});
      json.add("tile_sweep")
          .set("tiles", static_cast<std::int64_t>(tiles))
          .set("trials", trials)
          .set("trials_per_sec", rate);
    }
    table.print(std::cout);
    std::cout << "summaries bit-identical across tile counts "
              << "(trial-index-keyed fold)\n\n";
  }

  const char* path_env = std::getenv("SSKEL_BENCH_JSON");
  const std::string path = path_env != nullptr ? path_env : "BENCH_mc.json";
  if (json.write_file(path)) {
    std::cout << "wrote " << path << '\n';
  } else {
    std::cerr << "warning: could not write " << path << '\n';
  }
  std::cout << (all_ok ? "RESULT: all Monte-Carlo scheduling gates held.\n"
                       : "RESULT: GATE FAILURES (see above).\n");
  return all_ok ? 0 : 1;
}
