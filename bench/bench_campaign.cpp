// E17 — checkpointed campaign throughput (DESIGN.md §15).
//
// The campaign engine's promise is "crash safety for free": streaming
// trials through a hot McTilePlane with periodic checkpoint snapshots
// must sustain the throughput of back-to-back plane batches, because
// the only dispatcher-side checkpoint cost is a state copy handed to
// the off-thread writer. This bench measures both sides of that
// promise on the converged partition workload (the E15 fleet regime)
// and exit-code-gates:
//
//   * sustained_trials_per_sec >= 0.95x the back-to-back batch rate,
//     with checkpointing every checkpoint_every trials;
//   * checkpoint_stall_pct < 1% of wall time;
//   * the campaign's folded summary is byte-identical (SSKC trial
//     fields) to one uninterrupted McTilePlane batch over the same
//     seeds — streaming and checkpoint copies change nothing the fold
//     can see;
//   * a campaign killed mid-run and resumed from its checkpoint
//     reproduces that same byte-identical summary.
//
// SSKEL_SMOKE=1 shrinks the trial counts for CI; SSKEL_BENCH_JSON
// overrides the BENCH_campaign.json path. Rate fields end in _per_sec
// (higher is better) and stall fields in _pct (lower is better) so
// tools/bench_diff.py applies the right direction to each.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "adversary/partition.hpp"
#include "campaign/campaign.hpp"
#include "mc/mc_plane.hpp"
#include "util/assert.hpp"
#include "util/bench_json.hpp"
#include "util/table.hpp"

namespace {

using namespace sskel;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] std::filesystem::path fresh_state_dir(const char* name) {
  const std::filesystem::path dir = std::filesystem::path(".") / name;
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("SSKEL_SMOKE") != nullptr;
  bool all_ok = true;
  BenchJson json("campaign");

  // The E15 converged workload: tiny stable partition, so per-trial
  // cost is small and scheduling overhead (the thing a campaign could
  // regress) is the biggest visible term.
  const ProcId n = 4;
  PartitionParams params;
  params.blocks = even_blocks(n, 2);
  params.cross_noise_probability = 0.0;
  params.stabilization_round = 1;
  const auto scenario = std::make_shared<PartitionScenario>(params);
  KSetRunConfig config;
  config.k = 2;

  const std::int64_t total_trials = smoke ? 4000 : 100000;
  const std::int64_t checkpoint_every = smoke ? 1000 : 10000;
  const int reps = smoke ? 2 : 3;
  const std::uint64_t master = 0xE17CA3;

  std::cout << "========================================================\n"
            << " E17: checkpointed campaign vs back-to-back batches\n"
            << " (partition n=4, m=2, " << total_trials << " trials, "
            << "checkpoint every " << checkpoint_every << ")\n"
            << "========================================================\n\n";

  // Reference fold: one uninterrupted plane batch over the campaign's
  // exact seed sequence. Its SSKC trial-field bytes are the
  // bit-equality currency every other run is compared against.
  //
  // Back-to-back batch baseline: the same hot plane, run() per batch
  // of checkpoint_every trials — the pre-campaign way to sweep, with
  // no checkpointing and no crash safety. Best-of-reps batch rate.
  //
  // The plane is destroyed before the campaign's reps: its idle tiles
  // spin, and alive they would share the cores with the engine's.
  std::vector<std::uint8_t> reference_bytes;
  double batch_s = 0.0;
  {
    McTilePlane reference_plane;
    reference_bytes = encode_summary_trial_fields(reference_plane.run(
        *scenario, master, static_cast<int>(total_trials), config));
    const auto batches =
        static_cast<int>(total_trials / checkpoint_every);
    for (int rep = 0; rep < reps; ++rep) {
      const Clock::time_point start = Clock::now();
      for (int b = 0; b < batches; ++b) {
        (void)reference_plane.run(*scenario,
                                  master + static_cast<std::uint64_t>(b),
                                  static_cast<int>(checkpoint_every), config);
      }
      const double elapsed = seconds_since(start);
      batch_s = rep == 0 ? elapsed : std::min(batch_s, elapsed);
    }
  }
  const double batch_rate =
      static_cast<double>(total_trials) / (batch_s > 0.0 ? batch_s : 1e-9);

  // The campaign: same seeds, one job, checkpointing on. The engine
  // is constructed once so its plane stays hot across reps, exactly
  // like the baseline's.
  CampaignSpec spec;
  spec.config = config;
  spec.jobs.push_back(CampaignJob{"partition-sweep", scenario, master,
                                  total_trials});
  CampaignOptions options;
  options.checkpoint_every = checkpoint_every;
  options.state_dir = fresh_state_dir("bench_campaign.state").string();
  CampaignEngine engine(spec, options);

  CampaignStats best_stats;
  bool campaign_bytes_ok = true;
  for (int rep = 0; rep < reps; ++rep) {
    const CampaignResult result = engine.run();
    SSKEL_ASSERT(result.completed);
    campaign_bytes_ok =
        campaign_bytes_ok &&
        encode_summary_trial_fields(result.summaries[0]) == reference_bytes;
    if (rep == 0 || result.stats.sustained_trials_per_sec >
                        best_stats.sustained_trials_per_sec) {
      best_stats = result.stats;
    }
  }

  const double ratio =
      best_stats.sustained_trials_per_sec / (batch_rate > 0.0 ? batch_rate
                                                              : 1e-9);
  const bool throughput_ok = ratio >= 0.95;
  const bool stall_ok = best_stats.checkpoint_stall_pct < 1.0;
  all_ok = all_ok && throughput_ok && stall_ok && campaign_bytes_ok;

  Table table("campaign vs batches (best of " + std::to_string(reps) +
                  " reps)",
              {"mode", "trials/s", "checkpoints", "stall %", "ckpt bytes"});
  table.add_row({"back-to-back batches", cell(batch_rate, 0), "-", "-", "-"});
  table.add_row({"campaign (ckpt on)",
                 cell(best_stats.sustained_trials_per_sec, 0),
                 cell(best_stats.checkpoints_written),
                 cell(best_stats.checkpoint_stall_pct, 3),
                 cell(best_stats.checkpoint_bytes)});
  table.print(std::cout);
  std::cout << "throughput ratio: " << ratio
            << "x (gate >= 0.95x: " << (throughput_ok ? "PASS" : "FAIL")
            << ")\ncheckpoint stall: " << best_stats.checkpoint_stall_pct
            << "% (gate < 1%: " << (stall_ok ? "PASS" : "FAIL")
            << ")\nsummary bytes vs uninterrupted batch: "
            << (campaign_bytes_ok ? "IDENTICAL" : "MISMATCH") << "\n\n";

  json.add("campaign_throughput")
      .set("total_trials", total_trials)
      .set("checkpoint_every", checkpoint_every)
      .set("timing_reps", reps)
      .set("batch_trials_per_sec", batch_rate)
      .set("sustained_trials_per_sec", best_stats.sustained_trials_per_sec)
      .set("throughput_ratio", ratio)
      .set("checkpoint_stall_pct", best_stats.checkpoint_stall_pct)
      .set("checkpoints_written", best_stats.checkpoints_written)
      .set("checkpoint_bytes", best_stats.checkpoint_bytes)
      .set("throughput_gate_pass", static_cast<std::int64_t>(throughput_ok))
      .set("stall_gate_pass", static_cast<std::int64_t>(stall_ok))
      .set("summary_match_pass",
           static_cast<std::int64_t>(campaign_bytes_ok));

  std::cout << "========================================================\n"
            << " E17b: kill + resume bit-exactness\n"
            << "========================================================\n\n";

  {
    const std::int64_t stop_after = total_trials / 2;
    CampaignOptions killed_options;
    killed_options.checkpoint_every = checkpoint_every;
    killed_options.state_dir =
        fresh_state_dir("bench_campaign.killed").string();
    killed_options.stop_after_trials = stop_after;

    CampaignEngine killed(spec, killed_options);
    const CampaignResult interrupted = killed.run();
    SSKEL_ASSERT(!interrupted.completed);

    CampaignOptions resume_options = killed_options;
    resume_options.stop_after_trials = -1;
    CampaignEngine resumer(spec, resume_options);
    const CampaignResult resumed = resumer.resume();
    SSKEL_ASSERT(resumed.completed);

    const bool resume_ok =
        encode_summary_trial_fields(resumed.summaries[0]) == reference_bytes;
    all_ok = all_ok && resume_ok;
    std::cout << "killed at " << interrupted.stats.trials_folded
              << " folded trials, resumed "
              << resumed.stats.trials_folded
              << " more; summary vs uninterrupted: "
              << (resume_ok ? "BIT-IDENTICAL" : "MISMATCH") << "\n\n";

    json.add("campaign_resume")
        .set("stop_after", stop_after)
        .set("interrupted_folded", interrupted.stats.trials_folded)
        .set("resumed_folded", resumed.stats.trials_folded)
        .set("resume_match_pass", static_cast<std::int64_t>(resume_ok));

    std::filesystem::remove_all(killed_options.state_dir);
  }
  std::filesystem::remove_all(options.state_dir);

  const char* path_env = std::getenv("SSKEL_BENCH_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_campaign.json";
  if (json.write_file(path)) {
    std::cout << "wrote " << path << '\n';
  } else {
    std::cerr << "warning: could not write " << path << '\n';
  }
  std::cout << (all_ok ? "RESULT: all campaign gates held.\n"
                       : "RESULT: GATE FAILURES (see above).\n");
  return all_ok ? 0 : 1;
}
