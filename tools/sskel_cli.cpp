// sskel — the command-line face of libsskel.
//
//   sskel run      run Algorithm 1 on a chosen adversary, optionally
//                  recording the run to an SSKT trace file
//   sskel replay   re-run a recorded trace's graphs bit-exactly
//   sskel analyze  profile a trace's skeleton: root components,
//                  minimal k with Psrcs(k), Theorem 1 consistency
//
// Examples:
//   sskel run --adversary=random --n=10 --k=3 --seed=4 --record=run.sskt
//   sskel replay --file=run.sskt --k=3
//   sskel analyze --file=run.sskt
//   sskel run --adversary=impossibility --n=8 --k=4
//
// Flags out of range for the chosen adversary exit 2 with the usage
// text; an unreadable file or a trace without graphs exits 1.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "adversary/eventual.hpp"
#include "adversary/figure1.hpp"
#include "adversary/impossibility.hpp"
#include "adversary/partition.hpp"
#include "adversary/random_psrcs.hpp"
#include "graph/scc.hpp"
#include "kset/runner.hpp"
#include "predicates/analysis.hpp"
#include "predicates/psrcs.hpp"
#include "rounds/record.hpp"
#include "rounds/trace.hpp"
#include "skeleton/tracker.hpp"
#include "util/cli.hpp"
#include "util/decode.hpp"

namespace {

using namespace sskel;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: sskel <run|replay|analyze> [flags]\n"
               "  run     --adversary=random|figure1|impossibility|eventual|"
               "partition\n"
               "          [--n=N] [--k=K] [--roots=J] [--seed=S] "
               "[--noise=P]\n"
               "          [--record=FILE] [--quiet]\n"
               "  replay  --file=FILE [--k=K] [--quiet]\n"
               "  analyze --file=FILE\n");
  std::exit(2);
}

/// Rejects a flag value the run could not honour (instead of letting a
/// library precondition abort on it).
void require_flag(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "sskel: %s\n", what.c_str());
  usage();
}

/// --k, shared by run and replay. Capped like --n so the cast to int
/// cannot wrap.
int k_flag(const CliArgs& args) {
  const std::int64_t k = args.get_int("k", 2);
  require_flag(k >= 1 && static_cast<std::uint64_t>(k) <= kMaxDecodeUniverse,
               "--k must be in [1, " + std::to_string(kMaxDecodeUniverse) +
                   "]");
  return static_cast<int>(k);
}

void save_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "sskel: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  os.write(reinterpret_cast<const char*>(b.data()),
           static_cast<std::streamsize>(b.size()));
}

std::vector<std::uint8_t> load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::fprintf(stderr, "sskel: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>());
}

/// The graph sequence of an SSKT trace; exits 1 on a malformed trace
/// or one without graph frames (nothing to replay or analyze).
std::vector<Digraph> load_graphs(const std::string& path) {
  DecodeResult<RunCapture> trace = decode_trace(load_file(path));
  if (!trace.ok()) {
    std::fprintf(stderr, "sskel: %s is not a valid trace: %s\n",
                 path.c_str(), trace.error().to_string().c_str());
    std::exit(1);
  }
  if (trace.value().graphs.empty()) {
    std::fprintf(stderr, "sskel: %s has no graphs\n", path.c_str());
    std::exit(1);
  }
  return std::move(trace.value().graphs);
}

void print_report(const KSetRunReport& report, int k, bool quiet) {
  if (!quiet) {
    for (ProcId p = 0; p < report.n; ++p) {
      const Outcome& o = report.outcomes[static_cast<std::size_t>(p)];
      std::cout << "  p" << p << ": proposed " << o.proposal << " -> ";
      if (o.decided) {
        std::cout << "decided " << o.decision << " (round "
                  << o.decision_round << ")\n";
      } else {
        std::cout << "UNDECIDED\n";
      }
    }
  }
  std::cout << "rounds executed: " << report.rounds_executed
            << ", r_ST: " << report.skeleton_last_change
            << ", root components: " << report.root_components_final.size()
            << "\n";
  std::cout << "distinct values: " << report.distinct_values << " (k = " << k
            << ")\n";
  std::cout << "k-agreement " << (report.verdict.k_agreement ? "ok" : "VIOLATED")
            << ", validity " << (report.verdict.validity ? "ok" : "VIOLATED")
            << ", termination "
            << (report.verdict.termination ? "ok" : "VIOLATED") << "\n";
}

std::unique_ptr<GraphSource> build_adversary(const CliArgs& args, int k,
                                             std::uint64_t seed) {
  const std::string kind = args.get_string("adversary", "random");
  const std::int64_t n_flag = args.get_int("n", 10);
  // A recorded run must decode again, so n is capped like the decoder.
  require_flag(n_flag >= 1 &&
                   static_cast<std::uint64_t>(n_flag) <= kMaxDecodeUniverse,
               "--n must be in [1, " + std::to_string(kMaxDecodeUniverse) +
                   "]");
  const ProcId n = static_cast<ProcId>(n_flag);
  // The random and partition adversaries check their flags against
  // their declared parameter tables, like a spec file.
  if (kind == "random") {
    RandomPsrcsParams params;
    params.n = n;
    params.k = k;
    params.stabilization_round = 3;
    // set_field checks the range before narrowing to the member's type.
    std::string error = set_field(
        params, "roots", static_cast<double>(args.get_int("roots", k)));
    if (error.empty()) {
      error = set_field(params, "noise", args.get_double("noise", 0.25));
    }
    if (error.empty()) error = validate(params);
    require_flag(error.empty(), error);
    return std::make_unique<RandomPsrcsSource>(seed, params);
  }
  if (kind == "figure1") return make_figure1_source();
  if (kind == "impossibility") {
    require_flag(k > 1 && k < n, "--adversary=impossibility needs 1 < k < n");
    return make_impossibility_source(n, k);
  }
  if (kind == "eventual") return make_eventual_source(n, 2 * n);
  if (kind == "partition") {
    PartitionParams params;
    params.cross_noise_probability = args.get_double("noise", 0.0);
    params.stabilization_round = 3;
    std::string error;
    kPartitionBlocks.check(n, k, error);
    if (error.empty()) params.blocks = even_blocks(n, k);
    if (error.empty()) error = validate(params);
    require_flag(error.empty(), error);
    return std::make_unique<PartitionSource>(seed, params);
  }
  std::fprintf(stderr, "sskel: unknown adversary '%s'\n", kind.c_str());
  std::exit(2);
}

int cmd_run(const CliArgs& args) {
  const int k = k_flag(args);
  // A negative seed would wrap into the trace header's unsigned seed.
  const std::optional<std::int64_t> seed_flag = args.get_int_in(
      "seed", 1, 0, std::numeric_limits<std::int64_t>::max());
  require_flag(seed_flag.has_value(), "--seed must be an integer >= 0");
  const auto seed = static_cast<std::uint64_t>(*seed_flag);
  auto source = build_adversary(args, k, seed);
  const std::string record_path = args.get_string("record", "");

  KSetRunConfig config;
  config.k = k;
  KSetTrialScratch scratch;
  RunCapture capture;
  const KSetRunReport report = run_kset(
      *source, config, scratch, record_path.empty() ? nullptr : &capture);
  print_report(report, k, args.get_bool("quiet", false));

  if (!record_path.empty()) {
    capture.header.seed = seed;
    save_file(record_path, encode_trace(capture));
    std::cout << "recorded " << capture.graphs.size() << " rounds to "
              << record_path << "\n";
  }
  return report.verdict.all_hold() ? 0 : 1;
}

int cmd_replay(const CliArgs& args) {
  const std::string path = args.get_string("file", "");
  if (path.empty()) usage();
  const int k = k_flag(args);
  ReplaySource replay(load_graphs(path));
  KSetRunConfig config;
  config.k = k;
  const KSetRunReport report = run_kset(replay, config);
  print_report(report, k, args.get_bool("quiet", false));
  return report.verdict.all_hold() ? 0 : 1;
}

int cmd_analyze(const CliArgs& args) {
  const std::string path = args.get_string("file", "");
  if (path.empty()) usage();
  const std::vector<Digraph> run = load_graphs(path);

  SkeletonTracker tracker(run.front().n());
  for (std::size_t i = 0; i < run.size(); ++i) {
    Digraph g = run[i];
    g.add_self_loops();
    tracker.observe(static_cast<Round>(i + 1), g);
  }
  const Digraph& skeleton = tracker.skeleton();

  std::cout << "capture: " << run.size() << " rounds, n = " << skeleton.n()
            << "\n";
  std::cout << "skeleton: " << skeleton.edge_count()
            << " edges, last change at round " << tracker.last_change_round()
            << "\n";
  const auto roots = root_components(skeleton);
  std::cout << "root components (" << roots.size() << "):\n";
  for (const ProcSet& root : roots) {
    std::cout << "  " << root.to_string() << "\n";
  }
  if (skeleton.n() <= 20) {
    const PredicateProfile profile = profile_skeleton(skeleton);
    if (profile.min_k < skeleton.n()) {
      std::cout << "smallest k with Psrcs(k): " << profile.min_k << "\n";
    } else {
      std::cout << "Psrcs(k) fails for every k < n\n";
    }
    std::cout << "Theorem 1 (roots <= min k): "
              << (profile.theorem1_consistent ? "consistent" : "VIOLATED")
              << "\n";
  } else {
    std::cout << "(skipping exact predicate analysis for n > 20)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  const CliArgs args(argc - 1, argv + 1,
                     {"adversary", "n", "k", "roots", "seed", "noise",
                      "record", "file", "quiet"});
  if (command == "run") return cmd_run(args);
  if (command == "replay") return cmd_replay(args);
  if (command == "analyze") return cmd_analyze(args);
  usage();
}
