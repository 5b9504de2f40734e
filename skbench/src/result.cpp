#include "result.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <thread>

#include "util/word_kernels.hpp"

namespace skbench {

namespace {

constexpr std::size_t kKeptFailures = 8;

void append_string(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_number(std::string& out, double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, ec == std::errc() ? end : buffer);
}

void append_metrics(std::string& out, const std::vector<Metric>& metrics) {
  out += '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ',';
    append_string(out, metrics[i].name);
    out += ":{\"value\":";
    append_number(out, metrics[i].value);
    out += ",\"unit\":";
    append_string(out, metrics[i].unit);
    out += '}';
  }
  out += '}';
}

}  // namespace

void Result::check(bool ok, const char* what) {
  count(1, ok ? 0 : 1, what);
}

void Result::count(std::int64_t count, std::int64_t failed,
                   const char* what) {
  attempted_ += count;
  failed_ += failed;
  if (failed > 0 && failures_.size() < kKeptFailures) {
    failures_.push_back(std::string(what) + " (" + std::to_string(failed) +
                        ")");
  }
}

std::string Result::to_json(const Options& options) const {
  std::string out = "{\"workload\":";
  append_string(out, options.workload);
  out += ",\"seed\":" + std::to_string(options.seed);
  out += ",\"trace\":" + std::to_string(options.trace ? 1 : 0);
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i != 0) out += ',';
    append_string(out, failures_[i]);
  }
  out += "],\"host\":{\"nproc\":" + std::to_string(host.nproc);
  out += ",\"workers\":" + std::to_string(host.workers);
  out += ",\"dispatcher_threads\":1";
  out += ",\"writer_threads\":" + std::to_string(host.writer_threads);
  out += ",\"placement\":";
  append_string(out, host.placement);
  out += ",\"failed_pins\":" + std::to_string(host.failed_pins);
  const char* threads_env = std::getenv("SSKEL_THREADS");
  out += ",\"SSKEL_THREADS\":";
  if (threads_env != nullptr) {
    append_string(out, threads_env);
  } else {
    out += "null";
  }
  out += ",\"simd\":";
  append_string(out, sskel::wk::name(sskel::wk::active()));
  out += ",\"build_type\":";
  append_string(out, SKBENCH_BUILD_TYPE);
  out += ",\"compiler\":";
  append_string(out, __VERSION__);
  out += "},\"metrics\":";
  append_metrics(out, metrics_);
  out += ",\"layers\":";
  append_metrics(out, layers_);
  out += ",\"spans_file\":";
  append_string(out, spans_file);
  out += '}';
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

}  // namespace skbench
