// The framed trace container: canonical round-trips over every ProcSet
// representation tier, plus hostile-input sweeps (truncation at every
// byte boundary, single-bit flips, structural frame corruption) that
// must end in a DecodeError — never an abort, OOM or OOB access.
#include "rounds/trace.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "adversary/random_psrcs.hpp"
#include "util/proc_set.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"

namespace sskel {
namespace {

/// A capture exercising every frame type and both payload branches
/// (with/without message bytes).
RunCapture sample_capture(ProcId n, std::uint64_t seed) {
  Rng rng(seed);
  RunCapture c;
  c.header = TraceHeader{n, TraceSource::kNetRing, seed, 1000};
  for (Round r = 1; r <= 4; ++r) {
    Digraph g(n);
    for (ProcId p = 0; p < n; ++p) g.add_edge(p, p);
    for (int e = 0; e < 3 * n; ++e) {
      const auto q = static_cast<ProcId>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      const auto p = static_cast<ProcId>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      g.add_edge(q, p);
    }
    c.graphs.push_back(g);
    c.stats.push_back(RoundStats{r, static_cast<std::int64_t>(n) * n,
                                 1234 + r, 200 + r});
    for (ProcId p = 0; p < n; ++p) {
      c.messages.push_back(MessageRecord{
          r, p, {static_cast<std::uint8_t>(p), 0xff, 0x00}});
      c.deliveries.push_back(DeliveryRecord{
          r, p, static_cast<ProcId>((p + 1) % n),
          static_cast<DeliveryKind>(p % 4), 1000 * r + p});
      c.closes.push_back(CloseRecord{r, p, 1000 * r + 900 + p});
    }
  }
  // An empty-payload message and an in-flight round past the graphs.
  c.messages.push_back(MessageRecord{5, 0, {}});
  c.deliveries.push_back(
      DeliveryRecord{5, 0, 1, DeliveryKind::kDropped, 5000});
  return c;
}

TEST(TraceCodecTest, RoundTripAllFrameTypes) {
  const RunCapture c = sample_capture(7, 0xABCD);
  const std::vector<std::uint8_t> bytes = encode_trace(c);
  DecodeResult<RunCapture> back = decode_trace(bytes);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value(), c);
  // The container is canonical for captures in schedule order.
  EXPECT_EQ(encode_trace(back.value()), bytes);
}

TEST(TraceCodecTest, RoundTripAcrossProcSetTiers) {
  // The graph bitmaps must encode identically whatever representation
  // the ProcSets currently use: dense-only, and tiered with a
  // threshold low enough that n = 40 rows adopt the sparse form.
  const std::size_t saved = ProcSet::tier_threshold_words();
  std::vector<std::uint8_t> dense_bytes;
  {
    ScopedTierPolicy scope(ProcSet::TierPolicy::kDenseOnly);
    dense_bytes = encode_trace(sample_capture(40, 77));
  }
  ProcSet::set_tier_threshold_words(1);
  const std::vector<std::uint8_t> tiered_bytes =
      encode_trace(sample_capture(40, 77));
  DecodeResult<RunCapture> tiered_back = decode_trace(tiered_bytes);
  ProcSet::set_tier_threshold_words(saved);

  EXPECT_EQ(dense_bytes, tiered_bytes);
  ASSERT_TRUE(tiered_back.ok());
  EXPECT_EQ(tiered_back.value(), sample_capture(40, 77));
}

TEST(TraceCodecTest, MinimalCapture) {
  RunCapture c;
  c.header = TraceHeader{1, TraceSource::kSimulator, 0, 0};
  DecodeResult<RunCapture> back = decode_trace(encode_trace(c));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), c);
}

TEST(TraceCodecTest, PreservesNodeAbsence) {
  RunCapture c;
  c.header = TraceHeader{5, TraceSource::kSimulator, 0, 0};
  Digraph g(5);
  g.add_edge(0, 1);
  g.remove_node(4);
  c.graphs = {g};
  DecodeResult<RunCapture> back = decode_trace(encode_trace(c));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().graphs.size(), 1u);
  EXPECT_EQ(back.value().graphs[0], g);
  EXPECT_FALSE(back.value().graphs[0].has_node(4));
}

TEST(TraceCodecTest, RandomRunRoundTrip) {
  // A graph-only capture of a noisy random run, the shape `sskel run
  // --record` writes.
  RandomPsrcsParams params;
  params.n = 11;
  params.k = 3;
  params.root_components = 3;
  params.noise_probability = 0.4;
  RandomPsrcsSource source(9, params);
  RunCapture c;
  c.header = TraceHeader{11, TraceSource::kSimulator, 9, 0};
  for (Round r = 1; r <= 8; ++r) c.graphs.push_back(source.graph(r));

  const std::vector<std::uint8_t> bytes = encode_trace(c);
  DecodeResult<RunCapture> back = decode_trace(bytes);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  ASSERT_EQ(back.value().graphs.size(), c.graphs.size());
  for (std::size_t i = 0; i < c.graphs.size(); ++i) {
    EXPECT_EQ(back.value().graphs[i], c.graphs[i]);
  }
  // The layout is canonical, so decode inverts encode *and* vice versa.
  EXPECT_EQ(encode_trace(back.value()), bytes);
}

DecodeStatus trace_status(const std::vector<std::uint8_t>& bytes) {
  DecodeResult<RunCapture> r = decode_trace(bytes);
  return r.ok() ? DecodeStatus::kOk : r.error().status;
}

/// A trace of one n = 3 graph; the graph frame ends 2 bytes before the
/// end (the kEnd frame), so its node bitmap sits at size() - 6,
/// followed by the three out-row bitmaps.
std::vector<std::uint8_t> one_graph_trace(const Digraph& g) {
  RunCapture c;
  c.header = TraceHeader{3, TraceSource::kSimulator, 0, 0};
  c.graphs = {g};
  return encode_trace(c);
}

/// Magic, version and a header frame whose n varint is `n_bytes`
/// (source, seed and duration 0), then the end frame. The n varint
/// starts at byte 7.
std::vector<std::uint8_t> header_trace(const std::vector<std::uint8_t>& n_bytes) {
  std::vector<std::uint8_t> bytes = {'S', 'S', 'K', 'T', 1};
  bytes.push_back(static_cast<std::uint8_t>(TraceFrame::kHeader));
  put_varint(bytes, n_bytes.size() + 3);
  bytes.insert(bytes.end(), n_bytes.begin(), n_bytes.end());
  bytes.insert(bytes.end(), {0, 0, 0});
  bytes.push_back(static_cast<std::uint8_t>(TraceFrame::kEnd));
  bytes.push_back(0);
  return bytes;
}

std::vector<std::uint8_t> varint_bytes(std::uint64_t v) {
  std::vector<std::uint8_t> out;
  put_varint(out, v);
  return out;
}

TEST(TraceCodecHostileTest, EdgeTouchingAbsentNodeRejected) {
  // A row bitmap naming a node outside the node bitmap is not a graph:
  // Digraph::add_edge would silently re-add the node.
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  std::vector<std::uint8_t> bytes = one_graph_trace(g);
  const std::size_t node_bitmap = bytes.size() - 6;
  ASSERT_EQ(bytes[node_bitmap], 0x07);
  // Drop node 2 from the node bitmap while row 0 still targets it.
  bytes[node_bitmap] = 0x03;
  EXPECT_EQ(trace_status(bytes), DecodeStatus::kInvalidEdge);

  // Out-edges *from* an absent node are equally malformed.
  bytes[node_bitmap + 1] = 0x02;  // row 0 back in range (0 -> 1)
  bytes[node_bitmap + 3] = 0x01;  // absent node 2 -> 0
  EXPECT_EQ(trace_status(bytes), DecodeStatus::kInvalidEdge);
}

TEST(TraceCodecHostileTest, PaddingBitsMustBeZero) {
  std::vector<std::uint8_t> bytes = one_graph_trace(Digraph(3));
  ASSERT_EQ(trace_status(bytes), DecodeStatus::kOk);
  const std::size_t node_bitmap = bytes.size() - 6;
  bytes[node_bitmap] |= 0xf8;  // set bits >= n in the node bitmap
  DecodeResult<RunCapture> r = decode_trace(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().status, DecodeStatus::kValueOutOfRange);
  // Offsets inside a frame count from the start of the whole input
  // (past the frame's type byte *and* its length varint).
  EXPECT_EQ(r.error().offset, node_bitmap);
}

TEST(TraceCodecHostileTest, UniverseBeyondProcIdRejectedBeforeCast) {
  // n = 2^32 + 3 must not alias n = 3 through the narrowing cast.
  ASSERT_EQ(trace_status(header_trace(varint_bytes(3))), DecodeStatus::kOk);
  DecodeResult<RunCapture> r =
      decode_trace(header_trace(varint_bytes((std::uint64_t{1} << 32) + 3)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().status, DecodeStatus::kValueOutOfRange);
  EXPECT_EQ(r.error().offset, 7u);  // points at the n varint
}

TEST(TraceCodecHostileTest, UniverseAboveDecodeCapRejected) {
  ASSERT_EQ(trace_status(header_trace(varint_bytes(kMaxDecodeUniverse))),
            DecodeStatus::kOk);
  EXPECT_EQ(trace_status(header_trace(varint_bytes(kMaxDecodeUniverse + 1))),
            DecodeStatus::kValueOutOfRange);
}

TEST(TraceCodecHostileTest, ZeroUniverseRejected) {
  // (A capture with zero graph frames is valid: see MinimalCapture.)
  EXPECT_EQ(trace_status(header_trace(varint_bytes(0))),
            DecodeStatus::kValueOutOfRange);
}

TEST(TraceCodecHostileTest, OverlongVarintRejected) {
  // 0x83 0x00 is an overlong 3: two byte strings must not decode to
  // one capture.
  EXPECT_EQ(trace_status(header_trace({0x83, 0x00})),
            DecodeStatus::kOverlongVarint);
}

TEST(TraceCodecHostileTest, TruncationAtEveryBoundaryIsGraceful) {
  const std::vector<std::uint8_t> full = encode_trace(sample_capture(5, 3));
  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::vector<std::uint8_t> cut(full.begin(),
                                        full.begin() + static_cast<long>(len));
    DecodeResult<RunCapture> r = decode_trace(cut);
    EXPECT_FALSE(r.ok()) << "prefix of length " << len << " decoded";
  }
}

TEST(TraceCodecHostileTest, GraphOnlyTruncationIsGraceful) {
  // Every prefix of a graph-only capture (no message or delivery
  // frames) must be rejected, including cuts inside a graph bitmap.
  RunCapture c;
  c.header = TraceHeader{9, TraceSource::kSimulator, 0, 0};
  Digraph g(9);
  g.add_edge(0, 1);
  g.add_edge(5, 8);
  c.graphs = {g, g};
  const std::vector<std::uint8_t> full = encode_trace(c);
  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::vector<std::uint8_t> cut(full.begin(),
                                        full.begin() + static_cast<long>(len));
    DecodeResult<RunCapture> r = decode_trace(cut);
    EXPECT_FALSE(r.ok()) << "prefix of length " << len << " decoded";
  }
}

TEST(TraceCodecHostileTest, TrailingGarbageAfterEndRejected) {
  std::vector<std::uint8_t> bytes = one_graph_trace(Digraph(3));
  bytes.push_back(0);
  EXPECT_EQ(trace_status(bytes), DecodeStatus::kTrailingBytes);
}

TEST(TraceCodecHostileTest, HugeGraphFrameRejectedBeforeAllocation) {
  // A graph frame claiming 2^40 payload bytes must be bounded by the
  // bytes actually present, not trusted for a reservation.
  std::vector<std::uint8_t> bytes = header_trace(varint_bytes(3));
  bytes.resize(bytes.size() - 2);  // drop the end frame
  bytes.push_back(static_cast<std::uint8_t>(TraceFrame::kGraph));
  put_varint(bytes, std::uint64_t{1} << 40);
  EXPECT_EQ(trace_status(bytes), DecodeStatus::kLimitExceeded);
}

TEST(TraceCodecHostileTest, SingleBitFlipsNeverCrashAndStayDeterministic) {
  const std::vector<std::uint8_t> full = encode_trace(sample_capture(5, 9));
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutated = full;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      DecodeResult<RunCapture> r = decode_trace(mutated);
      if (!r.ok()) continue;  // graceful rejection is the common case
      // A flip that still decodes (e.g. a seed bit) must land in a
      // stable state: re-encoding and re-decoding is the identity.
      const std::vector<std::uint8_t> re = encode_trace(r.value());
      DecodeResult<RunCapture> again = decode_trace(re);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again.value(), r.value())
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(TraceCodecHostileTest, BadMagicAndVersionRejected) {
  std::vector<std::uint8_t> bytes = encode_trace(sample_capture(3, 1));
  bytes[2] = 'X';
  DecodeResult<RunCapture> r = decode_trace(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().status, DecodeStatus::kBadMagic);
  EXPECT_EQ(r.error().offset, 2u);

  bytes = encode_trace(sample_capture(3, 1));
  bytes[4] = 0x63;  // version 99
  r = decode_trace(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().status, DecodeStatus::kBadVersion);

  EXPECT_EQ(decode_trace({}).error().status, DecodeStatus::kTruncated);
}

TEST(TraceCodecHostileTest, StructuralFrameErrorsRejected) {
  const RunCapture c = sample_capture(3, 2);
  const std::vector<std::uint8_t> good = encode_trace(c);

  // Frame length claiming more payload than the input holds.
  {
    std::vector<std::uint8_t> bytes(good.begin(), good.begin() + 5);
    bytes.push_back(static_cast<std::uint8_t>(TraceFrame::kHeader));
    put_varint(bytes, 1u << 20);
    EXPECT_EQ(decode_trace(bytes).error().status,
              DecodeStatus::kLimitExceeded);
  }
  // Unknown frame type.
  {
    std::vector<std::uint8_t> bytes(good.begin(), good.end() - 2);
    bytes.push_back(0x99);
    put_varint(bytes, 0);
    bytes.push_back(static_cast<std::uint8_t>(TraceFrame::kEnd));
    put_varint(bytes, 0);
    EXPECT_EQ(decode_trace(bytes).error().status, DecodeStatus::kBadFrame);
  }
  // First frame is not the header.
  {
    std::vector<std::uint8_t> bytes(good.begin(), good.begin() + 5);
    bytes.push_back(static_cast<std::uint8_t>(TraceFrame::kEnd));
    put_varint(bytes, 0);
    EXPECT_EQ(decode_trace(bytes).error().status, DecodeStatus::kBadFrame);
  }
  // Frames after the end marker.
  {
    std::vector<std::uint8_t> bytes = good;
    bytes.push_back(static_cast<std::uint8_t>(TraceFrame::kEnd));
    put_varint(bytes, 0);
    EXPECT_EQ(decode_trace(bytes).error().status,
              DecodeStatus::kTrailingBytes);
  }
  // Missing end marker (clean frame boundary, still truncated).
  {
    std::vector<std::uint8_t> bytes(good.begin(), good.end() - 2);
    EXPECT_EQ(decode_trace(bytes).error().status, DecodeStatus::kTruncated);
  }
}

TEST(TraceCodecHostileTest, DuplicateHeaderAndRoundOrderRejected) {
  RunCapture c;
  c.header = TraceHeader{4, TraceSource::kNetEventQueue, 5, 800};
  Digraph g(4);
  g.add_self_loops();
  c.graphs = {g, g};
  const std::vector<std::uint8_t> good = encode_trace(c);

  // Duplicate header: replay the header frame right after itself.
  {
    // magic(4) + version(1) + header frame = type(1) + len(1) + payload.
    const std::size_t header_len = static_cast<std::size_t>(good[6]);
    const std::size_t header_end = 7 + header_len;
    std::vector<std::uint8_t> bytes(good.begin(), good.begin() +
                                    static_cast<long>(header_end));
    bytes.insert(bytes.end(), good.begin() + 5,
                 good.begin() + static_cast<long>(header_end));
    bytes.insert(bytes.end(), good.begin() + static_cast<long>(header_end),
                 good.end());
    EXPECT_EQ(decode_trace(bytes).error().status, DecodeStatus::kBadFrame);
  }
  // Graph rounds must be consecutive from 1: drop the first graph
  // frame so round 2 arrives first.
  {
    const std::size_t header_len = static_cast<std::size_t>(good[6]);
    const std::size_t header_end = 7 + header_len;
    const std::size_t g1_len =
        static_cast<std::size_t>(good[header_end + 1]);
    const std::size_t g1_end = header_end + 2 + g1_len;
    std::vector<std::uint8_t> bytes(good.begin(),
                                    good.begin() + static_cast<long>(header_end));
    bytes.insert(bytes.end(), good.begin() + static_cast<long>(g1_end),
                 good.end());
    EXPECT_EQ(decode_trace(bytes).error().status, DecodeStatus::kBadFrame);
  }
}

TEST(TraceCodecHostileTest, MessageSizeMustMatchFrameRemainder) {
  RunCapture c;
  c.header = TraceHeader{2, TraceSource::kSimulator, 0, 0};
  c.messages.push_back(MessageRecord{1, 0, {0xaa, 0xbb}});
  std::vector<std::uint8_t> bytes = encode_trace(c);
  // The message frame payload is [round=1][sender=0][size=2][aa][bb];
  // shrink the declared size so two trailing bytes dangle.
  const std::size_t size_pos = bytes.size() - 5;  // before aa bb + end frame
  ASSERT_EQ(bytes[size_pos], 2u);
  bytes[size_pos] = 1;
  EXPECT_EQ(decode_trace(bytes).error().status, DecodeStatus::kLimitExceeded);
}

}  // namespace
}  // namespace sskel
