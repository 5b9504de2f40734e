// The SSKC checkpoint format (DESIGN.md §15), framed by the container
// of util/wire.hpp.
#include "campaign/checkpoint.hpp"

#include <bit>
#include <limits>

#include "util/varint.hpp"
#include "util/wire.hpp"

namespace sskel {

namespace {

enum class CkptFrame : std::uint8_t {
  kHeader = 1,
  kJob = 2,
  kEnd = 3,
};

constexpr FrameFormat kFormat{"SSKC", 1,
                              static_cast<std::uint8_t>(CkptFrame::kHeader),
                              static_cast<std::uint8_t>(CkptFrame::kEnd)};

constexpr std::uint64_t kMaxCount =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
/// Jobs are hand-written spec entries, not bulk data.
constexpr std::uint64_t kMaxJobs = 1u << 16;
constexpr std::uint64_t kMaxScenarioName = 256;

/// McSummary's trial-derived fields in wire order: the one list the
/// projection's encoder and the kJob decoder walk. `visit(field,
/// member)` sees each field's name and member.
template <typename Summary, typename Visit>
void for_each_trial_field(Summary& s, Visit&& visit) {
  visit("scenario", s.scenario);
  visit("runs", s.runs);
  visit("undecided runs", s.undecided_runs);
  visit("agreement violations", s.agreement_violations);
  visit("validity violations", s.validity_violations);
  visit("bound violations", s.bound_violations);
  visit("lemma violation runs", s.lemma_violation_runs);
  visit("distinct values", s.distinct_values);
  visit("root components", s.root_components);
  visit("last decision round", s.last_decision_round);
  visit("stabilization round", s.stabilization_round);
  visit("total messages", s.total_messages);
  visit("bytes measured", s.bytes_measured);
  visit("total bytes", s.total_bytes);
  visit("max message bytes", s.max_message_bytes);
  visit("distinct histogram", s.distinct_histogram);
  visit("root histogram", s.root_histogram);
  visit("net backed", s.net_backed);
  visit("late messages", s.late_messages);
  visit("lost messages", s.lost_messages);
  visit("wall clock ms", s.wall_clock_ms);
  visit("credit stalls", s.credit_stalls);
}

// --- encode side (trusted input) -----------------------------------

void put_value(std::vector<std::uint8_t>& out, std::int64_t value) {
  SSKEL_REQUIRE(value >= 0);
  put_varint(out, static_cast<std::uint64_t>(value));
}

/// Doubles travel as their exact 8-byte little-endian bit pattern:
/// canonical by construction, and every pattern (±inf in an empty
/// accumulator's extrema, NaN if one ever arose) round-trips bit-for-
/// bit — which is the whole point of a bit-exact resume.
void put_double(std::vector<std::uint8_t>& out, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

void put_value(std::vector<std::uint8_t>& out, bool value) {
  out.push_back(value ? 1 : 0);
}

/// Zigzag for histogram bucket values (int64, sign possible in
/// principle even though today's histograms count nonnegatives).
[[nodiscard]] std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] std::int64_t unzigzag(std::uint64_t z) {
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

void put_value(std::vector<std::uint8_t>& out, const Accumulator& acc) {
  const Accumulator::State s = acc.state();
  put_value(out, s.count);
  put_double(out, s.mean);
  put_double(out, s.m2);
  put_double(out, s.sum);
  put_double(out, s.min);
  put_double(out, s.max);
}

void put_value(std::vector<std::uint8_t>& out, const IntHistogram& hist) {
  const auto& buckets = hist.buckets();
  put_varint(out, buckets.size());
  for (const auto& [value, count] : buckets) {
    put_varint(out, zigzag(value));
    put_value(out, count);
  }
}

void put_value(std::vector<std::uint8_t>& out, const std::string& s) {
  SSKEL_REQUIRE(s.size() <= kMaxScenarioName);
  put_string(out, s);
}

// --- decode side (untrusted input) ---------------------------------

[[nodiscard]] bool read_value(ByteReader& r, std::int64_t& out,
                              const char* field) {
  std::uint64_t v = 0;
  if (!r.read_varint_max(v, kMaxCount, field)) return false;
  out = static_cast<std::int64_t>(v);
  return true;
}

[[nodiscard]] bool read_double(ByteReader& r, double& out, const char* field) {
  if (!r.require_bytes(8, field)) return false;
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(r.cursor()[i]) << (8 * i);
  }
  r.skip(8);
  out = std::bit_cast<double>(bits);
  return true;
}

[[nodiscard]] bool read_value(ByteReader& r, bool& out, const char* field) {
  if (!r.require_bytes(1, field)) return false;
  // Accepting 2..255 would break canonicality (many encodings, one
  // value).
  if (r.cursor()[0] > 1) return r.fail(DecodeStatus::kValueOutOfRange, field);
  out = r.cursor()[0] != 0;
  r.skip(1);
  return true;
}

[[nodiscard]] bool read_value(ByteReader& r, Accumulator& out,
                              const char* field) {
  Accumulator::State s;
  if (!read_value(r, s.count, field)) return false;
  if (!read_double(r, s.mean, field) || !read_double(r, s.m2, field) ||
      !read_double(r, s.sum, field) || !read_double(r, s.min, field) ||
      !read_double(r, s.max, field)) {
    return false;
  }
  out = Accumulator::from_state(s);
  return true;
}

[[nodiscard]] bool read_value(ByteReader& r, IntHistogram& out,
                              const char* field) {
  // Each bucket needs at least 2 bytes, so remaining() over-bounds the
  // count without letting a hostile header demand a giant reserve.
  std::uint64_t buckets = 0;
  if (!r.read_varint_max(buckets, r.remaining(), field)) return false;
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  pairs.reserve(static_cast<std::size_t>(buckets));
  std::int64_t prev = 0;
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < buckets; ++i) {
    // A rejected value or count is reported at its first byte.
    const ByteReader value_start = r;
    std::uint64_t z = 0;
    if (!r.read_varint(z, field)) return false;
    const std::int64_t value = unzigzag(z);
    // Strictly ascending values: the canonical (and only) bucket order
    // add() maintains.
    if (i > 0 && value <= prev) {
      r = value_start;
      return r.fail(DecodeStatus::kValueOutOfRange, field);
    }
    prev = value;
    const ByteReader count_start = r;
    std::int64_t count = 0;
    if (!read_value(r, count, field)) return false;
    total += static_cast<std::uint64_t>(count);
    // from_buckets recomputes the total with int64 arithmetic; reject
    // inputs that would overflow it.
    if (count <= 0 || total > kMaxCount) {
      r = count_start;
      return r.fail(DecodeStatus::kValueOutOfRange, field);
    }
    pairs.emplace_back(value, count);
  }
  out = IntHistogram::from_buckets(std::move(pairs));
  return true;
}

[[nodiscard]] bool read_value(ByteReader& r, std::string& out,
                              const char* field) {
  return read_string(r, kMaxScenarioName, out, field);
}

/// Reads one frame into `c`. Jobs come in order, exactly as many as
/// the header's count, each with runs == trials folded.
[[nodiscard]] bool read_frame(Frame& frame, std::uint64_t& job_count,
                              CampaignCheckpoint& c) {
  ByteReader& r = frame.payload;
  switch (static_cast<CkptFrame>(frame.type)) {
    case CkptFrame::kHeader:
      // jobs is not reserved by job_count: a few header bytes would
      // claim room for kMaxJobs summaries before any job frame came.
      return r.read_varint(c.spec_fingerprint, "spec fingerprint") &&
             r.read_varint_max(job_count, kMaxJobs, "job count");
    case CkptFrame::kJob: {
      if (c.jobs.size() >= job_count) {
        return frame.reject(DecodeStatus::kBadFrame, "excess job frame");
      }
      JobCheckpoint& job = c.jobs.emplace_back();
      if (!read_value(r, job.trials_folded, "trials folded")) return false;
      bool ok = true;
      for_each_trial_field(job.summary, [&](const char* field, auto& value) {
        ok = ok && read_value(r, value, field);
      });
      if (!ok) return false;
      // A folded prefix has runs == trials_folded by construction;
      // anything else is not a checkpoint this engine wrote.
      if (job.summary.runs != job.trials_folded) {
        return frame.reject(DecodeStatus::kValueOutOfRange, "trials folded");
      }
      return true;
    }
    case CkptFrame::kEnd:
      if (c.jobs.size() != job_count) {
        return frame.reject(DecodeStatus::kBadFrame, "missing job frame");
      }
      return true;
  }
  return true;  // read_frames passes no other type
}

}  // namespace

std::vector<std::uint8_t> encode_summary_trial_fields(
    const McSummary& summary) {
  std::vector<std::uint8_t> out;
  for_each_trial_field(summary, [&out](const char*, const auto& value) {
    put_value(out, value);
  });
  return out;
}

std::vector<std::uint8_t> encode_checkpoint(
    const CampaignCheckpoint& checkpoint) {
  SSKEL_REQUIRE(checkpoint.jobs.size() <= kMaxJobs);
  FrameWriter out(kFormat);

  std::vector<std::uint8_t> payload;
  put_varint(payload, checkpoint.spec_fingerprint);
  put_varint(payload, checkpoint.jobs.size());
  out.put(CkptFrame::kHeader, payload);

  for (const JobCheckpoint& job : checkpoint.jobs) {
    SSKEL_REQUIRE(job.summary.runs == job.trials_folded);
    payload.clear();
    put_value(payload, job.trials_folded);
    const std::vector<std::uint8_t> body =
        encode_summary_trial_fields(job.summary);
    payload.insert(payload.end(), body.begin(), body.end());
    out.put(CkptFrame::kJob, payload);
  }
  return out.finish();
}

DecodeResult<CampaignCheckpoint> decode_checkpoint(
    const std::vector<std::uint8_t>& bytes) {
  CampaignCheckpoint c;
  std::uint64_t job_count = 0;
  const auto on_frame = [&](Frame& frame) {
    return read_frame(frame, job_count, c);
  };
  if (const auto error = read_frames(bytes, kFormat, on_frame)) return *error;
  return c;
}

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace sskel
