// The SSKC campaign-checkpoint container (DESIGN.md §15): canonical
// round-trips over empty and real folded state, plus the hostile-input
// sweeps every codec in this repo gets — truncation at every byte
// boundary, single-bit flips over the whole encoding, structural
// corruption of the magic/version/frame scaffolding — all of which
// must end in a DecodeError, never an abort, OOM or OOB access. SSKC
// is held to the strong canonicality law: any accepted byte string
// re-encodes to itself.
#include "campaign/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "adversary/partition.hpp"
#include "mc/scenario.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"

namespace sskel {
namespace {

/// A checkpoint with real folded state, so accumulators, histograms,
/// the scenario string and the runs == trials_folded invariant are
/// all live (jobs fold different trial counts to keep them distinct).
CampaignCheckpoint sample_checkpoint(std::size_t jobs,
                                     std::int64_t base_trials) {
  PartitionParams params;
  params.blocks = even_blocks(4, 2);
  const PartitionScenario scenario(std::move(params));
  KSetRunConfig config;
  config.k = 2;

  CampaignCheckpoint checkpoint;
  checkpoint.spec_fingerprint = 0x5353'4b43'0000'0001ull;
  for (std::size_t j = 0; j < jobs; ++j) {
    JobCheckpoint job;
    job.summary.scenario = scenario.name();
    job.summary.bytes_measured = config.measure_bytes;
    const std::int64_t trials = base_trials + static_cast<std::int64_t>(j);
    for (std::int64_t t = 0; t < trials; ++t) {
      const ScenarioTrial trial = scenario.run_trial(
          mix_seed(0xFEED + j, static_cast<std::uint64_t>(t)), config);
      fold_scenario_trial(job.summary, trial, config);
      ++job.trials_folded;
    }
    checkpoint.jobs.push_back(std::move(job));
  }
  return checkpoint;
}

/// Walks the frame sequence and returns the byte offset of frame
/// `index`'s payload (after its type byte and length varint). Used to
/// tamper with specific fields without hardcoding offsets.
std::size_t frame_payload_offset(const std::vector<std::uint8_t>& bytes,
                                 std::size_t index) {
  auto read_varint_at = [&](std::size_t& pos) {
    std::uint64_t value = 0;
    int shift = 0;
    while (true) {
      const std::uint8_t byte = bytes.at(pos++);
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
    }
  };
  std::size_t pos = 4;           // magic
  (void)read_varint_at(pos);     // version
  for (std::size_t f = 0;; ++f) {
    ++pos;                       // frame type
    const std::uint64_t len = read_varint_at(pos);
    if (f == index) return pos;
    pos += len;
  }
}

/// An encoding cut into its magic-and-version prefix and its whole
/// frames (type byte, length varint, payload), so a test can splice
/// frames into a hostile order.
struct Frames {
  std::vector<std::uint8_t> prefix;
  std::vector<std::vector<std::uint8_t>> frames;

  /// The prefix, then the frames at `order`'s indices.
  std::vector<std::uint8_t> join(const std::vector<std::size_t>& order) const {
    std::vector<std::uint8_t> out = prefix;
    for (const std::size_t f : order) {
      out.insert(out.end(), frames.at(f).begin(), frames.at(f).end());
    }
    return out;
  }
};

Frames split_frames(const std::vector<std::uint8_t>& bytes) {
  Frames split;
  split.prefix.assign(bytes.begin(), bytes.begin() + 5);
  std::size_t start = 5;
  while (start < bytes.size()) {
    std::size_t pos = start + 1;  // past the type byte
    const auto length = static_cast<std::size_t>(get_varint(bytes, pos));
    const auto first = bytes.begin() + static_cast<std::ptrdiff_t>(start);
    split.frames.emplace_back(first, first + static_cast<std::ptrdiff_t>(
                                                 pos - start + length));
    start = pos + length;
  }
  return split;
}

void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     DecodeStatus status, std::size_t offset,
                     const std::string& field) {
  DecodeResult<CampaignCheckpoint> result = decode_checkpoint(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().status, status) << result.error().to_string();
  EXPECT_EQ(result.error().offset, offset) << result.error().to_string();
  EXPECT_EQ(result.error().field, field);
}

TEST(CheckpointCodecTest, EmptyRoundTripIsCanonical) {
  CampaignCheckpoint empty;
  empty.spec_fingerprint = 0xABCDEF;
  const std::vector<std::uint8_t> bytes = encode_checkpoint(empty);
  DecodeResult<CampaignCheckpoint> back = decode_checkpoint(bytes);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value().spec_fingerprint, 0xABCDEFu);
  EXPECT_TRUE(back.value().jobs.empty());
  EXPECT_EQ(encode_checkpoint(back.value()), bytes);
}

TEST(CheckpointCodecTest, FoldedStateRoundTripsBitExactly) {
  const CampaignCheckpoint checkpoint = sample_checkpoint(2, 5);
  const std::vector<std::uint8_t> bytes = encode_checkpoint(checkpoint);
  DecodeResult<CampaignCheckpoint> back = decode_checkpoint(bytes);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  ASSERT_EQ(back.value().jobs.size(), checkpoint.jobs.size());
  EXPECT_EQ(back.value().spec_fingerprint, checkpoint.spec_fingerprint);
  for (std::size_t j = 0; j < checkpoint.jobs.size(); ++j) {
    EXPECT_EQ(back.value().jobs[j].trials_folded,
              checkpoint.jobs[j].trials_folded);
    // Bit-equality of every trial-derived summary field, through the
    // same projection the campaign's resume gate uses.
    EXPECT_EQ(encode_summary_trial_fields(back.value().jobs[j].summary),
              encode_summary_trial_fields(checkpoint.jobs[j].summary));
  }
  EXPECT_EQ(encode_checkpoint(back.value()), bytes);
}

TEST(CheckpointCodecTest, ExtremeFingerprintRoundTrips) {
  CampaignCheckpoint checkpoint;
  checkpoint.spec_fingerprint = ~0ull;
  const std::vector<std::uint8_t> bytes = encode_checkpoint(checkpoint);
  DecodeResult<CampaignCheckpoint> back = decode_checkpoint(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().spec_fingerprint, ~0ull);
}

TEST(CheckpointCodecTest, TruncationAtEveryPrefixRejected) {
  // A checkpoint is only complete at its kEnd frame, so every proper
  // prefix must be rejected (and must not crash while being rejected).
  const std::vector<std::uint8_t> bytes =
      encode_checkpoint(sample_checkpoint(2, 4));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
    DecodeResult<CampaignCheckpoint> result = decode_checkpoint(prefix);
    EXPECT_FALSE(result.ok()) << "prefix length " << len;
  }
}

TEST(CheckpointCodecTest, SingleBitFlipsRejectedOrCanonical) {
  // Flipping any single bit either produces a rejected byte string or
  // another valid checkpoint — and in the latter case the canonicality
  // law still holds: the mutant re-encodes to exactly itself.
  const std::vector<std::uint8_t> bytes =
      encode_checkpoint(sample_checkpoint(1, 6));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutant = bytes;
      mutant[i] = static_cast<std::uint8_t>(mutant[i] ^ (1u << bit));
      DecodeResult<CampaignCheckpoint> result = decode_checkpoint(mutant);
      if (result.ok()) {
        EXPECT_EQ(encode_checkpoint(result.value()), mutant)
            << "byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(CheckpointCodecTest, BadMagicRejected) {
  const std::vector<std::uint8_t> bytes =
      encode_checkpoint(CampaignCheckpoint{});
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<std::uint8_t> mutant = bytes;
    mutant[i] = static_cast<std::uint8_t>(mutant[i] + 1);
    EXPECT_FALSE(decode_checkpoint(mutant).ok()) << "magic byte " << i;
    expect_rejected(mutant, DecodeStatus::kBadMagic, i, "magic");
  }
}

TEST(CheckpointCodecTest, WrongVersionRejected) {
  std::vector<std::uint8_t> bytes = encode_checkpoint(CampaignCheckpoint{});
  ASSERT_EQ(bytes[4], 1);  // version varint, single byte
  for (const std::uint8_t version : {std::uint8_t{0}, std::uint8_t{2}}) {
    std::vector<std::uint8_t> mutant = bytes;
    mutant[4] = version;
    EXPECT_FALSE(decode_checkpoint(mutant).ok())
        << "version " << int(version);
    expect_rejected(mutant, DecodeStatus::kBadVersion, 5, "version");
  }
}

TEST(CheckpointCodecTest, TrailingBytesRejected) {
  std::vector<std::uint8_t> bytes =
      encode_checkpoint(sample_checkpoint(1, 3));
  bytes.push_back(0x00);
  EXPECT_FALSE(decode_checkpoint(bytes).ok());
  expect_rejected(bytes, DecodeStatus::kTrailingBytes, bytes.size() - 1,
                  "frame");
}

TEST(CheckpointCodecTest, RunsTrialsFoldedMismatchRejected) {
  // The kJob invariant: the folded-trials count in the frame must
  // equal summary.runs in the body. Bump the count varint (frame 1 is
  // the first kJob; its payload starts with trials_folded) and the
  // decoder must refuse — a checkpoint claiming more folded trials
  // than its summary absorbed would resume into silent corruption.
  const std::vector<std::uint8_t> bytes =
      encode_checkpoint(sample_checkpoint(1, 3));
  const std::size_t job_payload = frame_payload_offset(bytes, 1);
  ASSERT_EQ(bytes[job_payload], 3);  // trials_folded = 3, one varint byte
  std::vector<std::uint8_t> mutant = bytes;
  mutant[job_payload] = 4;
  EXPECT_FALSE(decode_checkpoint(mutant).ok());
  // A frame-level rule: reported at the job frame's type byte.
  const std::size_t job_start = 5 + split_frames(bytes).frames[0].size();
  expect_rejected(mutant, DecodeStatus::kValueOutOfRange, job_start,
                  "trials folded");
}

TEST(CheckpointCodecTest, FieldErrorOffsetPointsAtRejectedByte) {
  // A field error inside a frame names the rejected byte's offset in
  // the whole input: payload start plus the offset in the payload.
  // Locate bytes_measured as the one byte two encodings differing only
  // in it disagree on.
  CampaignCheckpoint checkpoint = sample_checkpoint(1, 3);
  const std::vector<std::uint8_t> bytes = encode_checkpoint(checkpoint);
  bool& measured = checkpoint.jobs[0].summary.bytes_measured;
  measured = !measured;
  const std::vector<std::uint8_t> flipped = encode_checkpoint(checkpoint);
  ASSERT_EQ(bytes.size(), flipped.size());
  const auto at = static_cast<std::size_t>(
      std::mismatch(bytes.begin(), bytes.end(), flipped.begin()).first -
      bytes.begin());
  ASSERT_EQ(at, 242u);
  std::vector<std::uint8_t> mutant = bytes;
  mutant[at] = 2;  // a bool is 0 or 1
  expect_rejected(mutant, DecodeStatus::kValueOutOfRange, at,
                  "bytes measured");

  // Likewise a histogram bucket's count, which must be positive.
  measured = !measured;
  IntHistogram& hist = checkpoint.jobs[0].summary.distinct_histogram;
  auto buckets = hist.buckets();
  ASSERT_FALSE(buckets.empty());
  ++buckets.front().second;
  hist = IntHistogram::from_buckets(buckets);
  const std::vector<std::uint8_t> recounted = encode_checkpoint(checkpoint);
  ASSERT_EQ(bytes.size(), recounted.size());
  const auto count_at = static_cast<std::size_t>(
      std::mismatch(bytes.begin(), bytes.end(), recounted.begin()).first -
      bytes.begin());
  mutant = bytes;
  mutant[count_at] = 0;
  expect_rejected(mutant, DecodeStatus::kValueOutOfRange, count_at,
                  "distinct histogram");
}

TEST(CheckpointCodecTest, StructuralErrorsReportStatusAndOffset) {
  // The container rules, each with its status, offset and field.
  const Frames split = split_frames(encode_checkpoint(sample_checkpoint(1, 3)));
  ASSERT_EQ(split.frames.size(), 3u);  // header, one job, end
  const std::size_t header = 5 + split.frames[0].size();
  const std::size_t job_end = header + split.frames[1].size();

  expect_rejected(split.join({}), DecodeStatus::kBadFrame, 5,
                  "missing header");
  expect_rejected(split.join({1, 0, 2}), DecodeStatus::kBadFrame, 5,
                  "frame order");
  expect_rejected(split.join({0, 0, 1, 2}), DecodeStatus::kBadFrame, header,
                  "duplicate header");
  expect_rejected(split.join({0, 1, 1, 2}), DecodeStatus::kBadFrame, job_end,
                  "excess job frame");
  expect_rejected(split.join({0, 2}), DecodeStatus::kBadFrame, header,
                  "missing job frame");
  // Cut on a frame boundary: only the missing end frame tells.
  expect_rejected(split.join({0, 1}), DecodeStatus::kTruncated, job_end,
                  "missing end frame");

  // An end frame carrying a payload byte.
  std::vector<std::uint8_t> bytes = split.join({0, 1});
  bytes.insert(bytes.end(), {3, 1, 0});
  expect_rejected(bytes, DecodeStatus::kTrailingBytes, job_end + 2,
                  "frame payload");

  // A frame type past kEnd.
  bytes = split.join({0});
  bytes.insert(bytes.end(), {4, 0});
  expect_rejected(bytes, DecodeStatus::kBadFrame, header, "frame type");

  // A header whose payload holds one byte more than its fields.
  const std::vector<std::uint8_t>& frame = split.frames[0];
  ASSERT_LT(frame[1], 0x7f);  // one-byte length varint
  std::vector<std::uint8_t> padded = frame;
  padded[1] = static_cast<std::uint8_t>(padded[1] + 1);
  padded.push_back(0);
  bytes = split.prefix;
  bytes.insert(bytes.end(), padded.begin(), padded.end());
  expect_rejected(bytes, DecodeStatus::kTrailingBytes, header,
                  "frame payload");
}

TEST(CheckpointCodecTest, Fnv1a64KnownVectors) {
  EXPECT_EQ(fnv1a64({}), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64({'a'}), 0xaf63dc4c8601ec8cull);
  // Digest inequality is the CLI's "different fold" signal.
  EXPECT_NE(fnv1a64({1, 2, 3}), fnv1a64({1, 2, 4}));
}

TEST(CheckpointCodecTest, TrialFieldProjectionSeparatesFolds) {
  // Summaries that folded different trials must project to different
  // bytes; the same fold must project identically.
  const CampaignCheckpoint a = sample_checkpoint(1, 4);
  const CampaignCheckpoint b = sample_checkpoint(1, 4);
  const CampaignCheckpoint c = sample_checkpoint(1, 5);
  EXPECT_EQ(encode_summary_trial_fields(a.jobs[0].summary),
            encode_summary_trial_fields(b.jobs[0].summary));
  EXPECT_NE(encode_summary_trial_fields(a.jobs[0].summary),
            encode_summary_trial_fields(c.jobs[0].summary));
}

}  // namespace
}  // namespace sskel
