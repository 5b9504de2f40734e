// What one benchmark run reports: operations attempted and failed,
// end-to-end metrics, per-layer counters, and the host record.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace skbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Trial workers (plane tiles / pool threads).
  unsigned workers = 1;
  /// Directory for the span file and campaign state.
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Where the run executed. threads = workers + dispatcher + writer.
struct Host {
  unsigned nproc = 0;
  unsigned workers = 0;
  unsigned writer_threads = 0;
  std::string placement = "unpinned";
  std::int64_t failed_pins = 0;
};

class Result {
 public:
  /// Counts one operation; a false `ok` counts it as failed and keeps
  /// `what` (the first few) for the report.
  void check(bool ok, const char* what);
  /// Counts `count` operations, `failed` of them failed.
  void count(std::int64_t count, std::int64_t failed, const char* what);

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers_.push_back(Metric{name, value, unit});
  }

  [[nodiscard]] std::int64_t failed() const { return failed_; }

  Host host;
  std::string spans_file;

  /// One-line JSON object consumed by skbench/run.py.
  [[nodiscard]] std::string to_json(const Options& options) const;

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
  std::vector<Metric> layers_;
};

[[nodiscard]] double median(std::vector<double> values);
/// CPUs this process may run on (the affinity mask, as nproc counts).
[[nodiscard]] unsigned available_cpus();
/// getrusage max resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double seconds_between(std::int64_t start_ns, std::int64_t end_ns);

}  // namespace skbench
