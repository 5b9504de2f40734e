// In-memory span recording for the traced replay.
//
// A span is one call across a layer boundary: its name, start and end
// (steady_clock nanoseconds), the span that was open when it began
// (its parent), and the id of the trial it belongs to. Spans stay in a
// vector while the replay runs and are written to one binary file at
// the end; skbench/analysis.py derives self times (span minus the part
// its children cover) and the tracing overhead from that file. The
// recorder is single-threaded: replays run on one thread.
//
// File layout (little-endian):
//   "SKSP" | u32 name count | per name: u16 length, bytes
//   u64 span count | per span: u32 name, i32 parent (-1 = root),
//   i64 trial, i64 start_ns, i64 end_ns
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace skbench {

/// Span names. The order is the name table written to the file.
enum class SpanName : std::uint32_t {
  kTrial,           // one traced trial (root)
  kTrialUntraced,   // one untraced trial of the same seed (root, no children)
  kTrack,           // one traced scale-16k tracking run (root)
  kTrackUntraced,   // one untraced tracking run (root, no children)
  kGraphInto,       // GraphSource::graph_into
  kRoundsStep,      // RoundEngine::step on the Simulator
  kNetStep,         // RoundEngine::step on the NetRoundDriver
  kSendInto,        // Algorithm<SkeletonMessage>::send_into
  kTransition,      // Algorithm<SkeletonMessage>::transition
  kObserve,         // SkeletonTracker::observe
  kCurrentScc,      // SkeletonTracker::current_scc + current_root_components
  kConstruct,       // SkeletonTracker construction
  kFold,            // fold_scenario_trial
  kCkptEncode,      // encode_checkpoint
  kCkptDecode,      // decode_checkpoint
  kPsrcsExact,      // check_psrcs_exact
  kCount
};

[[nodiscard]] const char* span_name(SpanName name);

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::int64_t trial = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() { spans_.reserve(1 << 18); }

  /// Trial id stamped on every span begun from now on.
  void set_trial(std::int64_t trial) { trial_ = trial; }

  [[nodiscard]] std::int32_t begin(SpanName name) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(SpanRecord{static_cast<std::uint32_t>(name), open_,
                                trial_, now_ns(), 0});
    open_ = index;
    return index;
  }

  void end(std::int32_t index) {
    SpanRecord& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = now_ns();
    open_ = span.parent;
  }

  /// Records a finished root span measured by the caller.
  void add_root(SpanName name, std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back(SpanRecord{static_cast<std::uint32_t>(name), -1, trial_,
                                start_ns, end_ns});
  }

  /// Writes every span to `path`; false on any I/O error.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::int32_t open_ = -1;
  std::int64_t trial_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, SpanName name)
      : recorder_(recorder), index_(recorder.begin(name)) {}
  ~ScopedSpan() { recorder_.end(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int32_t index_;
};

}  // namespace skbench
