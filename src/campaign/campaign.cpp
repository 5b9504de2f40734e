#include "campaign/campaign.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <thread>

#include "rounds/trace.hpp"
#include "util/bench_json.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"
#include "util/wire.hpp"

namespace sskel {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A trial misbehaved when any checked property failed — the same
/// predicates fold_scenario_trial counts, read off the single trial.
[[nodiscard]] const char* violation_reason(const ScenarioTrial& trial,
                                           const KSetRunConfig& config) {
  const KSetRunReport& report = trial.kset;
  if (!report.verdict.k_agreement) return "agreement";
  if (!report.verdict.validity) return "validity";
  if (!report.lemma_violations.empty()) return "lemma";
  if (report.all_decided &&
      report.last_decision_round > report.termination_bound(config.guard)) {
    return "bound";
  }
  return nullptr;
}

}  // namespace

std::uint64_t CampaignSpec::fingerprint() const {
  std::vector<std::uint8_t> bytes;
  put_varint(bytes, jobs.size());
  for (const CampaignJob& job : jobs) {
    put_string(bytes, job.name);
    put_string(bytes, job.scenario->name());
    // name() only separates scenario classes; append_fingerprint
    // covers every constructor parameter (crash counts, noise, ...)
    // so a resume under a same-class-different-distribution spec is
    // refused instead of silently folded onto the old prefix.
    job.scenario->append_fingerprint(bytes);
    put_varint(bytes, job.master_seed);
    put_varint(bytes, static_cast<std::uint64_t>(job.trials));
  }
  put_varint(bytes, static_cast<std::uint64_t>(config.k));
  put_varint(bytes, static_cast<std::uint64_t>(config.guard));
  put_varint(bytes, static_cast<std::uint64_t>(config.max_rounds));
  put_varint(bytes, static_cast<std::uint64_t>(config.tail_rounds));
  put_varint(bytes, config.attach_lemma_monitor ? 1 : 0);
  put_varint(bytes, config.measure_bytes ? 1 : 0);
  put_varint(bytes, config.proposals.size());
  for (const Value v : config.proposals) {
    put_varint(bytes, static_cast<std::uint64_t>(v));
  }
  return fnv1a64(bytes);
}

CampaignEngine::CampaignEngine(CampaignSpec spec, CampaignOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {
  SSKEL_REQUIRE(!spec_.jobs.empty());
  SSKEL_REQUIRE(options_.window > 0);
  for (const CampaignJob& job : spec_.jobs) {
    SSKEL_REQUIRE(job.scenario != nullptr);
    SSKEL_REQUIRE(job.trials >= 0);
  }
}

CampaignEngine::~CampaignEngine() = default;

CampaignResult CampaignEngine::run() {
  if (!options_.state_dir.empty()) {
    // run() ignores any existing checkpoint — delete both generations
    // up front so a stale file from a previous spec can never shadow
    // (or outlive) the ones this run writes.
    std::error_code ec;
    const std::filesystem::path dir(options_.state_dir);
    std::filesystem::remove(dir / CheckpointWriter::kFileA, ec);
    std::filesystem::remove(dir / CheckpointWriter::kFileB, ec);
  }
  CampaignCheckpoint fresh;
  fresh.spec_fingerprint = spec_.fingerprint();
  return execute(std::move(fresh));
}

CampaignResult CampaignEngine::resume() {
  std::optional<CampaignCheckpoint> loaded;
  if (!options_.state_dir.empty()) {
    loaded =
        CheckpointWriter::load_latest(options_.state_dir, spec_.fingerprint());
  }
  if (!loaded.has_value()) return run();
  SSKEL_REQUIRE(loaded->spec_fingerprint == spec_.fingerprint());
  SSKEL_REQUIRE(loaded->jobs.size() <= spec_.jobs.size());
  for (std::size_t j = 0; j < loaded->jobs.size(); ++j) {
    SSKEL_REQUIRE(loaded->jobs[j].trials_folded <= spec_.jobs[j].trials);
  }
  return execute(std::move(*loaded));
}

CampaignResult CampaignEngine::execute(CampaignCheckpoint state) {
  const std::size_t job_count = spec_.jobs.size();
  state.jobs.resize(job_count);

  CampaignResult result;
  result.summaries.resize(job_count);
  result.trials_folded.assign(job_count, 0);
  CampaignStats& stats = result.stats;

  if (plane_ == nullptr) {
    plane_ = std::make_unique<McTilePlane>(options_.plane);
  }
  McTilePlane& plane = *plane_;

  std::unique_ptr<CheckpointWriter> writer;
  if (!options_.state_dir.empty()) {
    writer = std::make_unique<CheckpointWriter>(options_.state_dir);
  }

  ProcSet::reset_peak_bytes();
  const Clock::time_point start_time = Clock::now();
  double stall_seconds = 0.0;
  std::int64_t folded_this_run = 0;
  // stop_after == 0 means "killed before folding anything".
  bool stopped = options_.stop_after_trials == 0;

  // Snapshot = copy the folded state and hand it off; the encode and
  // the file write happen on the writer thread. This copy is the
  // entire dispatcher-side checkpoint cost (checkpoint_stall_*).
  const auto snapshot = [&] {
    if (writer == nullptr) return;
    const Clock::time_point t0 = Clock::now();
    writer->offer(state);
    stall_seconds += seconds_since(t0);
  };

  std::ofstream progress_out;
  if (!options_.progress_path.empty()) {
    progress_out.open(options_.progress_path, std::ios::app);
  }
  const auto emit_progress = [&](std::size_t j, const JobCheckpoint& job) {
    CampaignProgress p;
    p.job = spec_.jobs[j].name;
    p.job_index = static_cast<std::int64_t>(j);
    p.trials_done = job.trials_folded;
    p.trials_total = spec_.jobs[j].trials;
    p.campaign_trials_done = folded_this_run;
    p.elapsed_seconds = seconds_since(start_time);
    p.sustained_trials_per_sec =
        p.elapsed_seconds > 0.0
            ? static_cast<double>(folded_this_run) / p.elapsed_seconds
            : 0.0;
    p.checkpoints_written =
        writer != nullptr ? writer->checkpoints_written() : 0;
    p.checkpoint_stall_pct =
        p.elapsed_seconds > 0.0 ? 100.0 * stall_seconds / p.elapsed_seconds
                                : 0.0;
    if (options_.on_progress) options_.on_progress(p);
    if (progress_out.is_open()) {
      BenchRecord record;
      record.set("op", std::string("progress"))
          .set("job", p.job)
          .set("trials_done", p.trials_done)
          .set("trials_total", p.trials_total)
          .set("campaign_trials_done", p.campaign_trials_done)
          .set("elapsed_seconds", p.elapsed_seconds)
          .set("sustained_trials_per_sec", p.sustained_trials_per_sec)
          .set("checkpoints_written", p.checkpoints_written)
          .set("checkpoint_stall_pct", p.checkpoint_stall_pct);
      record.write(progress_out);
      progress_out << "\n" << std::flush;
    }
  };

  const auto maybe_capture = [&](const CampaignJob& job, std::uint64_t index,
                                 const char* reason) {
    if (options_.artifact_dir.empty()) return;
    if (stats.artifacts_captured >= options_.max_artifacts) return;
    const std::optional<RunCapture> capture = job.scenario->capture_trial(
        mix_seed(job.master_seed, index), spec_.config);
    if (!capture.has_value()) return;
    // Artifacts are best-effort: an unwritable directory or a failed
    // write skips the artifact, never the campaign.
    std::error_code ec;
    std::filesystem::create_directories(options_.artifact_dir, ec);
    if (ec) return;
    const std::filesystem::path path =
        std::filesystem::path(options_.artifact_dir) /
        (job.name + "-trial-" + std::to_string(index) + "-" + reason +
         ".sskt");
    const std::vector<std::uint8_t> bytes = encode_trace(*capture);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (out.fail()) {
      std::filesystem::remove(path, ec);  // no torn artifacts
      return;
    }
    ++stats.artifacts_captured;
  };

  // The job the terminal progress record describes: the furthest one
  // the loop reached (== the interrupted job when stop_after_trials
  // halts the run early).
  std::size_t last_job = 0;
  for (std::size_t j = 0; j < job_count && !stopped; ++j) {
    const CampaignJob& job = spec_.jobs[j];
    JobCheckpoint& job_state = state.jobs[j];
    last_job = j;
    SSKEL_REQUIRE(job_state.trials_folded <= job.trials);
    if (job_state.trials_folded == 0) {
      // Fresh job: initialize exactly like McTilePlane::run does
      // before its first fold, so the final summary is bit-identical
      // to one uninterrupted batch.
      job_state.summary = McSummary{};
      job_state.summary.scenario = job.scenario->name();
      job_state.summary.bytes_measured = spec_.config.measure_bytes;
    }
    if (job_state.trials_folded == job.trials) continue;

    plane.stream_begin(*job.scenario, spec_.config, options_.window,
                       static_cast<std::uint64_t>(job_state.trials_folded));

    /// Tile-side wall times of this job's prior trials (runtime-only:
    /// resets every run, never serialized).
    Accumulator runtime;

    const McTilePlane::StreamSink sink =
        [&](std::uint64_t index, const ScenarioTrial& trial,
            std::int64_t elapsed_ns) {
          if (stopped) return;  // kill point passed: discard
          fold_scenario_trial(job_state.summary, trial, spec_.config);
          ++job_state.trials_folded;
          ++folded_this_run;

          if (const char* reason = violation_reason(trial, spec_.config)) {
            ++stats.violations_detected;
            maybe_capture(job, index, reason);
          } else if (runtime.count() >= options_.outlier_min_samples &&
                     static_cast<double>(elapsed_ns) >
                         runtime.mean() +
                             options_.outlier_sigma * runtime.stddev()) {
            ++stats.outliers_detected;
            maybe_capture(job, index, "outlier");
          }
          runtime.add(static_cast<double>(elapsed_ns));

          if (writer != nullptr && options_.checkpoint_every > 0 &&
              job_state.trials_folded % options_.checkpoint_every == 0) {
            snapshot();
          }
          if (options_.progress_every > 0 &&
              folded_this_run % options_.progress_every == 0) {
            emit_progress(j, job_state);
          }
          if (options_.stop_after_trials >= 0 &&
              folded_this_run >= options_.stop_after_trials) {
            stopped = true;
          }
        };

    // Offer until the window refuses, then collect: the window is the
    // only backpressure, and a refusal simply means every slot is in
    // flight.
    auto next = static_cast<std::uint64_t>(job_state.trials_folded);
    const auto total = static_cast<std::uint64_t>(job.trials);
    while (!stopped && job_state.trials_folded < job.trials) {
      bool offered = false;
      while (next < total &&
             plane.stream_offer(next, mix_seed(job.master_seed, next))) {
        ++next;
        offered = true;
      }
      // Nothing collected and nothing offered (every trial of the
      // window is in flight): only tile completions can make
      // progress, so don't busy-spin the dispatcher core.
      if (plane.stream_collect(sink) == 0 && !offered) {
        std::this_thread::yield();
      }
    }

    if (stopped) {
      // The kill point: everything past the folded prefix is
      // discarded, exactly as a crash would lose it.
      plane.stream_abort();
    } else {
      plane.stream_flush(sink);
      // flush() folds the in-flight tail; a kill landing inside that
      // tail still aborts the rest.
      if (stopped) plane.stream_abort();
    }
    plane.stream_end();
    plane.export_service_fields(job_state.summary);
    stats.submit_stalls += plane.submit_stalls();
    // Job boundary (or kill): persist, so a resume skips finished
    // jobs entirely.
    snapshot();
  }

  if (writer != nullptr) writer->flush();

  stats.wall_seconds = seconds_since(start_time);
  stats.trials_folded = folded_this_run;
  stats.sustained_trials_per_sec =
      stats.wall_seconds > 0.0
          ? static_cast<double>(folded_this_run) / stats.wall_seconds
          : 0.0;
  stats.checkpoint_stall_seconds = stall_seconds;
  stats.checkpoint_stall_pct =
      stats.wall_seconds > 0.0 ? 100.0 * stall_seconds / stats.wall_seconds
                               : 0.0;
  if (writer != nullptr) {
    stats.checkpoints_written = writer->checkpoints_written();
    stats.checkpoints_coalesced = writer->checkpoints_coalesced();
    stats.checkpoint_bytes = writer->bytes_written();
  }

  result.completed = true;
  for (std::size_t j = 0; j < job_count; ++j) {
    result.summaries[j] = state.jobs[j].summary;
    result.trials_folded[j] = state.jobs[j].trials_folded;
    if (state.jobs[j].trials_folded != spec_.jobs[j].trials) {
      result.completed = false;
    }
  }
  if (options_.progress_every > 0) {
    // Final record so a consumer always sees the terminal state.
    emit_progress(last_job, state.jobs[last_job]);
  }
  return result;
}

}  // namespace sskel
