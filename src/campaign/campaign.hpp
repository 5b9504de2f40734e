// Checkpointed Monte-Carlo campaigns over a hot tile plane
// (DESIGN.md §15, experiment E17).
//
// A *campaign* is a sweep: a list of jobs, each (scenario, master
// seed, trial count), folded under one run config. Where the batch
// API (McTilePlane::run) pays its ramp — window allocation, intern
// re-analysis — once per call, the campaign engine keeps one
// McTilePlane hot for its lifetime and streams every job's trials
// through the plane's in-flight window from a persistent cursor, so
// sustained trials/sec over a long sweep matches back-to-back batches
// (bench_campaign gates ≥ 0.95x with checkpointing on). Each job's
// stream names its scenario, so a campaign runs on exactly `tiles`
// workers however many jobs and scenarios it sweeps.
//
// Crash safety costs (almost) nothing on the hot path: the folded
// state at any instant is a *prefix* of the deterministic trial
// sequence (trial t = seed mix_seed(master, t), left-folded in trial
// order — fold_scenario_trial), so a checkpoint is just {cursor,
// partial summary} per job. At a boundary the dispatcher copies that
// state (microseconds) and hands it to the CheckpointWriter thread;
// encoding and file I/O never touch the dispatcher. Resuming decodes
// the newest checkpoint and folds trial trials_folded onward —
// bit-identical to the uninterrupted run, across any tile count, by
// the left-fold identity. In-flight trials past the fold point at the
// crash are simply re-run.
//
// Misbehaving trials self-archive: a folded trial that violates
// agreement/validity/the Lemma-11 bound (or whose tile-side runtime
// is a > sigma outlier) triggers a re-run of the same seed with a
// TraceRecorder attached (purity makes the re-run the same run), and
// the SSKT capture lands in the artifact directory for offline
// replay. Runtime outliers never influence folded state — wall time
// is the one nondeterministic observation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/writer.hpp"
#include "mc/mc_plane.hpp"
#include "mc/scenario.hpp"

namespace sskel {

/// One sweep entry: `trials` seeded trials of `scenario`, trial t
/// using mix_seed(master_seed, t).
struct CampaignJob {
  std::string name;
  std::shared_ptr<const ScenarioFactory> scenario;
  std::uint64_t master_seed = 0;
  std::int64_t trials = 0;
};

struct CampaignSpec {
  std::vector<CampaignJob> jobs;
  /// One run config for every trial of every job.
  KSetRunConfig config;

  /// Identity hash over everything that shapes the trial sequence:
  /// job names/seeds/trial counts, scenario identities (name plus
  /// every constructor parameter, via
  /// ScenarioFactory::append_fingerprint), and the config fields that
  /// alter per-trial results. A checkpoint carries this; resume
  /// refuses a mismatch.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Streaming observability record, emitted every progress_every
/// folded trials (and once at the end of a run). Field names match
/// BENCH_campaign.json so a progress stream and the bench artifact
/// diff with the same tooling.
struct CampaignProgress {
  std::string job;
  std::int64_t job_index = 0;
  std::int64_t trials_done = 0;   // folded within the current job
  std::int64_t trials_total = 0;  // the current job's target
  std::int64_t campaign_trials_done = 0;  // folded this run, all jobs
  double elapsed_seconds = 0.0;
  double sustained_trials_per_sec = 0.0;
  std::int64_t checkpoints_written = 0;
  double checkpoint_stall_pct = 0.0;
};

struct CampaignOptions {
  McPlaneOptions plane;
  /// In-flight trial window: the dispatcher offers until the window is
  /// full, then collects.
  std::size_t window = 256;
  /// Checkpoint every N folded trials (per job); <= 0 disables the
  /// cadence (a final checkpoint is still written on stop).
  std::int64_t checkpoint_every = 10000;
  /// Checkpoint directory; empty = no checkpointing at all.
  std::string state_dir;
  /// Deterministic kill switch for tests and CI: stop folding after
  /// exactly N trials (campaign-wide, this run), discard in-flight
  /// work, persist a final checkpoint, and return completed = false.
  /// < 0 = run to completion. This models a crash at a precise point
  /// — resume from the written checkpoint must land bit-identically
  /// on the uninterrupted run.
  std::int64_t stop_after_trials = -1;
  /// Emit a CampaignProgress every N folded trials (0 = off).
  std::int64_t progress_every = 0;
  std::function<void(const CampaignProgress&)> on_progress;
  /// When set, each progress record is also appended to this file as
  /// one JSON object per line.
  std::string progress_path;
  /// Crash-artifact directory for misbehaving-trial captures; empty
  /// disables capture.
  std::string artifact_dir;
  /// Runtime-outlier threshold: a trial is an outlier when its
  /// tile-side wall time exceeds mean + outlier_sigma * stddev of the
  /// job's prior trials, once outlier_min_samples have accumulated.
  double outlier_sigma = 8.0;
  std::int64_t outlier_min_samples = 64;
  /// Cap on captured artifacts per run (a pathological sweep must not
  /// fill the disk with traces).
  std::int64_t max_artifacts = 16;
};

/// Runtime counters for one engine run (service-level — never part of
/// the folded state or the checkpoint).
struct CampaignStats {
  std::int64_t trials_folded = 0;  // this run (excludes resumed prefix)
  double wall_seconds = 0.0;
  double sustained_trials_per_sec = 0.0;
  std::int64_t checkpoints_written = 0;
  std::int64_t checkpoints_coalesced = 0;
  std::int64_t checkpoint_bytes = 0;
  /// Dispatcher-side time lost to checkpointing (snapshot copy +
  /// handoff; the write itself is off-thread).
  double checkpoint_stall_seconds = 0.0;
  double checkpoint_stall_pct = 0.0;
  /// Offers the full window refused this run, summed over the jobs'
  /// streams (McTilePlane::submit_stalls).
  std::int64_t submit_stalls = 0;
  /// Always 0: results land in the window, so tiles never wait on the
  /// dispatcher. Kept for bench harnesses.
  std::int64_t result_stalls = 0;
  std::int64_t artifacts_captured = 0;
  std::int64_t outliers_detected = 0;
  std::int64_t violations_detected = 0;
};

struct CampaignResult {
  /// Per-job summaries: complete for finished jobs, the folded
  /// partial for the job interrupted by stop_after_trials, zero-run
  /// for jobs never reached.
  std::vector<McSummary> summaries;
  std::vector<std::int64_t> trials_folded;
  /// True iff every job folded every trial.
  bool completed = false;
  CampaignStats stats;
};

class CampaignEngine {
 public:
  CampaignEngine(CampaignSpec spec, CampaignOptions options);
  ~CampaignEngine();

  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  /// Runs the campaign from trial zero (any existing checkpoint in
  /// state_dir is ignored and will be overwritten).
  [[nodiscard]] CampaignResult run();

  /// Continues from the newest decodable checkpoint in state_dir
  /// (fresh run when none exists). The checkpoint's fingerprint must
  /// match this spec.
  [[nodiscard]] CampaignResult resume();

  [[nodiscard]] const CampaignSpec& spec() const { return spec_; }

 private:
  [[nodiscard]] CampaignResult execute(CampaignCheckpoint state);

  CampaignSpec spec_;
  CampaignOptions options_;
  /// The engine's one plane, built by the first run() or resume() (so
  /// constructing an engine spawns no threads) and kept hot after it.
  /// Consecutive jobs of one scenario share its warmed intern shards.
  std::unique_ptr<McTilePlane> plane_;
};

}  // namespace sskel
