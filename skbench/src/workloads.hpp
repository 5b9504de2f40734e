// The benchmark's four workloads (README.md records why each exists
// and what it generates from the seed).
#pragma once

#include <string>

#include "result.hpp"

namespace skbench {

[[nodiscard]] bool known_workload(const std::string& name);

/// Runs one workload: set-up, the timed phase for options.seconds, the
/// correctness checks, and with options.trace the single-thread
/// untraced and traced replays, whose spans go to result.spans_file.
void run_workload(const Options& options, Result& result);

}  // namespace skbench
