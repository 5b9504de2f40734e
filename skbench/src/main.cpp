// sskel_perfbench: runs one benchmark workload and prints its result as
// one JSON line. skbench/run.py builds this binary, runs it and turns
// the line (plus the span file of a traced run) into the benchmark's
// result record.
//
//   sskel_perfbench --workload campaign-n4 --seed 1 --seconds 30
//                   --trace 0 [--out DIR]
//
// Trial workers are the CPUs this process may use, minus one for the
// dispatcher. Exit status: 0 when every checked operation passed, 1
// when some failed, 2 on bad arguments or when workers + dispatcher
// would exceed those CPUs.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "result.hpp"
#include "workloads.hpp"

namespace {

bool parse_args(int argc, char** argv, skbench::Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (key == "--out") {
      options.out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && skbench::known_workload(options.workload) &&
         options.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  skbench::Options options;
  if (!parse_args(argc, argv, options)) {
    std::cerr << "usage: sskel_perfbench --workload campaign-n4|campaign-"
                 "psrcs32|net-e11|scale-16k --seed N --seconds S --trace 0|1"
                 " [--out DIR]\n";
    return 2;
  }
  const unsigned nproc = skbench::available_cpus();
  options.workers = nproc > 1 ? nproc - 1 : 1;
  // One dispatcher thread feeds the workers; together they must fit
  // the CPUs, or the run measures oversubscription instead of the code.
  if (options.workers + 1 > nproc) {
    std::cerr << "refusing to run: " << options.workers
              << " workers + 1 dispatcher exceed nproc = " << nproc << '\n';
    return 2;
  }

  skbench::Result result;
  result.host.nproc = nproc;
  result.host.workers = options.workers;
  try {
    std::filesystem::create_directories(options.out_dir);
    if (options.trace) {
      result.spans_file = options.out_dir + "/spans-" + options.workload +
                          "-" + std::to_string(options.seed) + ".bin";
    }
    skbench::run_workload(options, result);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 2;
  }
  std::cout << result.to_json(options) << std::endl;
  return result.failed() == 0 ? 0 : 1;
}
