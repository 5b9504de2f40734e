// sskel_campaign — run, resume and inspect checkpointed campaigns.
//
//   sskel_campaign run    --spec=F --state=DIR [flags]  fresh run
//   sskel_campaign resume --spec=F --state=DIR [flags]  continue from
//                                                       the newest
//                                                       checkpoint
//   sskel_campaign status --state=DIR                   inspect a
//                                                       checkpoint
//   sskel_campaign make-seed --out=DIR                  SSKC fuzz seeds
//
// Shared run/resume flags (a value outside its bounds exits 2):
//   --artifacts=DIR   capture misbehaving trials as .sskt files
//   --stop-after=N    deterministic kill after N >= 0 folded trials
//                     (default -1 = run to completion)
//   --progress=N      emit a progress record every N >= 0 trials
//                     (0 = off)
//   --progress-path=F append progress records to F (JSON lines)
//   --checkpoint-every=N  checkpoint cadence, N >= 0 (default 10000;
//                     0 = only at job boundaries and on stop)
//   --window=N        in-flight trial window, 1..65536 (default 256)
//   --tiles=N         worker tiles, 0..1024 (0 = resolve from
//                     environment)
//   --quiet           suppress per-job digest lines
//
// run/resume print one line per job:
//
//   job <name> trials=<folded>/<total> digest=<hex16>
//
// where the digest is FNV-1a 64 over encode_summary_trial_fields — two
// runs folded the same trials iff the digests match, which is how the
// CI kill+resume job compares an interrupted+resumed campaign against
// an uninterrupted one.
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/spec.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace sskel;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: sskel_campaign <run|resume|status|make-seed> [flags]\n"
               "  run    --spec=FILE --state=DIR [--artifacts=DIR]\n"
               "         [--stop-after=N>=-1] [--progress=N>=0] "
               "[--progress-path=FILE]\n"
               "         [--checkpoint-every=N>=0] [--window=1..65536]\n"
               "         [--tiles=0..1024] [--quiet]\n"
               "  resume (same flags as run)\n"
               "  status --state=DIR\n"
               "  make-seed --out=DIR\n");
  std::exit(2);
}

CampaignSpec load_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "sskel_campaign: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream text;
  text << in.rdbuf();
  SpecParseResult parsed = parse_campaign_spec(text.str());
  if (!parsed.spec.has_value()) {
    std::fprintf(stderr, "sskel_campaign: %s:%d: %s\n", path.c_str(),
                 parsed.line, parsed.error.c_str());
    std::exit(1);
  }
  return std::move(*parsed.spec);
}

void print_result(const CampaignSpec& spec, const CampaignResult& result,
                  bool quiet) {
  if (!quiet) {
    for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
      const std::uint64_t digest =
          fnv1a64(encode_summary_trial_fields(result.summaries[j]));
      std::printf("job %s trials=%" PRId64 "/%" PRId64 " digest=%016" PRIx64
                  "\n",
                  spec.jobs[j].name.c_str(), result.trials_folded[j],
                  spec.jobs[j].trials, digest);
    }
  }
  const CampaignStats& stats = result.stats;
  std::printf("campaign %s: folded=%" PRId64 " wall=%.3fs "
              "sustained=%.0f trials/s checkpoints=%" PRId64
              " stall=%.3f%% artifacts=%" PRId64 "\n",
              result.completed ? "completed" : "interrupted",
              stats.trials_folded, stats.wall_seconds,
              stats.sustained_trials_per_sec, stats.checkpoints_written,
              stats.checkpoint_stall_pct, stats.artifacts_captured);
}

/// An integer flag within [lo, hi]; anything else exits 2 with usage.
std::int64_t bounded_flag(const CliArgs& args, const char* name,
                          std::int64_t fallback, std::int64_t lo,
                          std::int64_t hi) {
  const std::optional<std::int64_t> value =
      args.get_int_in(name, fallback, lo, hi);
  if (!value.has_value()) {
    std::fprintf(stderr,
                 "sskel_campaign: --%s must be an integer in [%" PRId64
                 ", %" PRId64 "]\n",
                 name, lo, hi);
    usage();
  }
  return *value;
}

int cmd_run(const CliArgs& args, bool resume) {
  const std::string spec_path = args.get_string("spec", "");
  if (spec_path.empty()) usage();
  CampaignSpec spec = load_spec(spec_path);

  CampaignOptions options;
  options.state_dir = args.get_string("state", "");
  options.artifact_dir = args.get_string("artifacts", "");
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  options.stop_after_trials = bounded_flag(args, "stop-after", -1, -1, kMax);
  options.progress_every = bounded_flag(args, "progress", 0, 0, kMax);
  options.progress_path = args.get_string("progress-path", "");
  options.checkpoint_every =
      bounded_flag(args, "checkpoint-every", 10000, 0, kMax);
  options.window =
      static_cast<std::size_t>(bounded_flag(args, "window", 256, 1, 65536));
  options.plane.tiles =
      static_cast<unsigned>(bounded_flag(args, "tiles", 0, 0, 1024));

  if (resume && !options.state_dir.empty()) {
    // Friendly fingerprint check before the engine REQUIREs it. The
    // expected fingerprint makes load_latest prefer a matching
    // generation, so this only trips when *no* generation matches.
    if (const auto loaded =
            CheckpointWriter::load_latest(options.state_dir,
                                          spec.fingerprint());
        loaded.has_value() &&
        loaded->spec_fingerprint != spec.fingerprint()) {
      std::fprintf(stderr,
                   "sskel_campaign: checkpoint in %s was written by a "
                   "different spec (fingerprint %016" PRIx64
                   " != %016" PRIx64 ")\n",
                   options.state_dir.c_str(), loaded->spec_fingerprint,
                   spec.fingerprint());
      return 1;
    }
  }

  CampaignEngine engine(std::move(spec), std::move(options));
  const CampaignResult result = resume ? engine.resume() : engine.run();
  print_result(engine.spec(), result, args.get_bool("quiet", false));
  return 0;
}

int cmd_status(const CliArgs& args) {
  const std::string state_dir = args.get_string("state", "");
  if (state_dir.empty()) usage();
  const auto loaded = CheckpointWriter::load_latest(state_dir);
  if (!loaded.has_value()) {
    std::printf("no decodable checkpoint in %s\n", state_dir.c_str());
    return 1;
  }
  std::printf("checkpoint fingerprint=%016" PRIx64 " jobs=%zu\n",
              loaded->spec_fingerprint, loaded->jobs.size());
  for (std::size_t j = 0; j < loaded->jobs.size(); ++j) {
    const JobCheckpoint& job = loaded->jobs[j];
    const std::uint64_t digest =
        fnv1a64(encode_summary_trial_fields(job.summary));
    std::printf("  job %zu scenario=%s trials_folded=%" PRId64
                " digest=%016" PRIx64 "\n",
                j, job.summary.scenario.c_str(), job.trials_folded, digest);
  }
  return 0;
}

/// Writes structurally valid SSKC files for the fuzz corpus: the
/// decoder's happy path plus an interesting partial (mid-sweep state
/// with histograms and a resumed accumulator).
int cmd_make_seed(const CliArgs& args) {
  const std::string out_dir = args.get_string("out", "");
  if (out_dir.empty()) usage();
  std::filesystem::create_directories(out_dir);

  const auto save = [&](const char* name,
                        const std::vector<std::uint8_t>& bytes) {
    const std::filesystem::path path = std::filesystem::path(out_dir) / name;
    std::ofstream os(path, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "sskel_campaign: cannot write %s\n",
                   path.string().c_str());
      std::exit(1);
    }
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  };

  CampaignCheckpoint empty;
  empty.spec_fingerprint = 0x5353'4b43;
  save("ckpt_empty.sskc", encode_checkpoint(empty));

  // A realistic mid-sweep checkpoint: fold actual trials so every
  // field class (accumulators, histograms, strings) is populated.
  PartitionParams params;
  params.blocks = even_blocks(4, 2);
  const PartitionScenario scenario(std::move(params));
  KSetRunConfig config;
  config.k = 2;
  CampaignCheckpoint partial;
  partial.spec_fingerprint = 0xdead'beef;
  JobCheckpoint job;
  job.summary.scenario = scenario.name();
  job.summary.bytes_measured = config.measure_bytes;
  for (std::uint64_t t = 0; t < 5; ++t) {
    const ScenarioTrial trial = scenario.run_trial(mix_seed(7, t), config);
    fold_scenario_trial(job.summary, trial, config);
    ++job.trials_folded;
  }
  partial.jobs.push_back(std::move(job));
  save("ckpt_partial.sskc", encode_checkpoint(partial));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  const CliArgs args(argc - 1, argv + 1,
                     {"spec", "state", "artifacts", "stop-after", "progress",
                      "progress-path", "checkpoint-every", "window", "tiles",
                      "quiet", "out"});
  if (command == "run") return cmd_run(args, /*resume=*/false);
  if (command == "resume") return cmd_run(args, /*resume=*/true);
  if (command == "status") return cmd_status(args);
  if (command == "make-seed") return cmd_make_seed(args);
  usage();
}
