// The SSKT trace format (DESIGN.md §14), framed by the container of
// util/wire.hpp.
//
// Encoding trusts its caller (SSKEL_REQUIRE on malformed captures);
// decoding trusts nothing — captures travel as files, CI artifacts and
// fuzz corpora, so every field is bounds- and range-checked against
// the bytes that remain and rejection surfaces as a DecodeError, never
// as an abort, OOM or out-of-bounds access.
#include "rounds/trace.hpp"

#include <limits>

#include "rounds/record.hpp"
#include "util/varint.hpp"
#include "util/wire.hpp"

namespace sskel {

namespace {

constexpr FrameFormat kFormat{"SSKT", 1,
                              static_cast<std::uint8_t>(TraceFrame::kHeader),
                              static_cast<std::uint8_t>(TraceFrame::kEnd)};

constexpr std::uint64_t kMaxRound =
    static_cast<std::uint64_t>(std::numeric_limits<Round>::max());
constexpr std::uint64_t kMaxTime =
    static_cast<std::uint64_t>(std::numeric_limits<SimTime>::max());
constexpr std::uint64_t kMaxStat =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());

[[nodiscard]] bool read_proc(ByteReader& r, ProcId n, ProcId& out,
                             const char* field) {
  std::uint64_t v = 0;
  if (!r.read_varint_max(v, static_cast<std::uint64_t>(n) - 1, field)) {
    return false;
  }
  out = static_cast<ProcId>(v);
  return true;
}

[[nodiscard]] bool read_round(ByteReader& r, Round& out, const char* field) {
  std::uint64_t v = 0;
  if (!r.read_varint_max(v, kMaxRound, field)) return false;
  if (v == 0) return r.fail(DecodeStatus::kValueOutOfRange, field);
  out = static_cast<Round>(v);
  return true;
}

[[nodiscard]] bool read_time(ByteReader& r, SimTime& out, const char* field) {
  std::uint64_t v = 0;
  if (!r.read_varint_max(v, kMaxTime, field)) return false;
  out = static_cast<SimTime>(v);
  return true;
}

/// Reads one frame into `c`. Frames come in any order after the
/// header, but graph and stats rounds run 1, 2, ... each.
[[nodiscard]] bool read_frame(Frame& frame, RunCapture& c) {
  ByteReader& r = frame.payload;
  const ProcId n = c.header.n;
  switch (static_cast<TraceFrame>(frame.type)) {
    case TraceFrame::kHeader: {
      std::uint64_t n_wide = 0;
      if (!r.read_varint_max(n_wide, kMaxDecodeUniverse, "header n")) {
        return false;
      }
      if (n_wide == 0) {
        return r.fail(DecodeStatus::kValueOutOfRange, "header n");
      }
      std::uint64_t source = 0;
      std::uint64_t seed = 0;
      SimTime duration = 0;
      if (!r.read_varint_max(
              source, static_cast<std::uint64_t>(TraceSource::kNetEventQueue),
              "header source") ||
          !r.read_varint(seed, "header seed") ||
          !read_time(r, duration, "header round duration")) {
        return false;
      }
      c.header = TraceHeader{static_cast<ProcId>(n_wide),
                             static_cast<TraceSource>(source), seed, duration};
      return true;
    }
    case TraceFrame::kGraph: {
      Round round = 0;
      if (!read_round(r, round, "graph round")) return false;
      if (round != static_cast<Round>(c.graphs.size()) + 1) {
        return frame.reject(DecodeStatus::kBadFrame, "graph round order");
      }
      return decode_graph_body(r, n, c.graphs.emplace_back());
    }
    case TraceFrame::kRoundStats: {
      RoundStats s;
      if (!read_round(r, s.round, "stats round")) return false;
      if (s.round != static_cast<Round>(c.stats.size()) + 1) {
        return frame.reject(DecodeStatus::kBadFrame, "stats round order");
      }
      std::uint64_t messages = 0;
      std::uint64_t bytes = 0;
      std::uint64_t max_bytes = 0;
      if (!r.read_varint_max(messages, kMaxStat, "stats messages") ||
          !r.read_varint_max(bytes, kMaxStat, "stats bytes") ||
          !r.read_varint_max(max_bytes, kMaxStat, "stats max bytes")) {
        return false;
      }
      s.messages_delivered = static_cast<std::int64_t>(messages);
      s.bytes_delivered = static_cast<std::int64_t>(bytes);
      s.max_message_bytes = static_cast<std::int64_t>(max_bytes);
      c.stats.push_back(s);
      return true;
    }
    case TraceFrame::kMessage: {
      MessageRecord m;
      std::uint64_t size = 0;
      if (!read_round(r, m.round, "message round") ||
          !read_proc(r, n, m.sender, "message sender") ||
          !r.read_varint(size, "message size")) {
        return false;
      }
      // The payload runs to the end of the frame.
      if (size != r.remaining()) {
        return r.fail(DecodeStatus::kLimitExceeded, "message size");
      }
      m.payload.assign(r.cursor(), r.cursor() + size);
      r.skip(static_cast<std::size_t>(size));
      c.messages.push_back(std::move(m));
      return true;
    }
    case TraceFrame::kDelivery: {
      DeliveryRecord d;
      std::uint64_t kind = 0;
      if (!read_round(r, d.round, "delivery round") ||
          !read_proc(r, n, d.from, "delivery from") ||
          !read_proc(r, n, d.to, "delivery to") ||
          !r.read_varint_max(
              kind, static_cast<std::uint64_t>(DeliveryKind::kTieDiscard),
              "delivery kind") ||
          !read_time(r, d.time, "delivery time")) {
        return false;
      }
      d.kind = static_cast<DeliveryKind>(kind);
      c.deliveries.push_back(d);
      return true;
    }
    case TraceFrame::kClose: {
      CloseRecord cl;
      if (!read_round(r, cl.round, "close round") ||
          !read_proc(r, n, cl.proc, "close proc") ||
          !read_time(r, cl.time, "close time")) {
        return false;
      }
      c.closes.push_back(cl);
      return true;
    }
    case TraceFrame::kEnd:
      return true;
  }
  return true;  // read_frames passes no other type
}

}  // namespace

std::vector<std::uint8_t> encode_trace(const RunCapture& c) {
  SSKEL_REQUIRE(c.header.n > 0);
  SSKEL_REQUIRE(c.header.round_duration >= 0);
  FrameWriter out(kFormat);

  std::vector<std::uint8_t> payload;
  put_varint(payload, static_cast<std::uint64_t>(c.header.n));
  put_varint(payload, static_cast<std::uint64_t>(c.header.source));
  put_varint(payload, c.header.seed);
  put_varint(payload, static_cast<std::uint64_t>(c.header.round_duration));
  out.put(TraceFrame::kHeader, payload);

  for (std::size_t i = 0; i < c.graphs.size(); ++i) {
    SSKEL_REQUIRE(c.graphs[i].n() == c.header.n);
    payload.clear();
    put_varint(payload, i + 1);
    encode_graph_body(payload, c.graphs[i]);
    out.put(TraceFrame::kGraph, payload);
  }
  for (std::size_t i = 0; i < c.stats.size(); ++i) {
    const RoundStats& s = c.stats[i];
    SSKEL_REQUIRE(s.round == static_cast<Round>(i) + 1);
    SSKEL_REQUIRE(s.messages_delivered >= 0 && s.bytes_delivered >= 0 &&
                  s.max_message_bytes >= 0);
    payload.clear();
    put_varint(payload, i + 1);
    put_varint(payload, static_cast<std::uint64_t>(s.messages_delivered));
    put_varint(payload, static_cast<std::uint64_t>(s.bytes_delivered));
    put_varint(payload, static_cast<std::uint64_t>(s.max_message_bytes));
    out.put(TraceFrame::kRoundStats, payload);
  }
  for (const MessageRecord& m : c.messages) {
    SSKEL_REQUIRE(m.round >= 1);
    SSKEL_REQUIRE(m.sender >= 0 && m.sender < c.header.n);
    payload.clear();
    put_varint(payload, static_cast<std::uint64_t>(m.round));
    put_varint(payload, static_cast<std::uint64_t>(m.sender));
    put_varint(payload, m.payload.size());
    payload.insert(payload.end(), m.payload.begin(), m.payload.end());
    out.put(TraceFrame::kMessage, payload);
  }
  for (const DeliveryRecord& d : c.deliveries) {
    SSKEL_REQUIRE(d.round >= 1);
    SSKEL_REQUIRE(d.from >= 0 && d.from < c.header.n);
    SSKEL_REQUIRE(d.to >= 0 && d.to < c.header.n);
    SSKEL_REQUIRE(d.time >= 0);
    payload.clear();
    put_varint(payload, static_cast<std::uint64_t>(d.round));
    put_varint(payload, static_cast<std::uint64_t>(d.from));
    put_varint(payload, static_cast<std::uint64_t>(d.to));
    put_varint(payload, static_cast<std::uint64_t>(d.kind));
    put_varint(payload, static_cast<std::uint64_t>(d.time));
    out.put(TraceFrame::kDelivery, payload);
  }
  for (const CloseRecord& cl : c.closes) {
    SSKEL_REQUIRE(cl.round >= 1);
    SSKEL_REQUIRE(cl.proc >= 0 && cl.proc < c.header.n);
    SSKEL_REQUIRE(cl.time >= 0);
    payload.clear();
    put_varint(payload, static_cast<std::uint64_t>(cl.round));
    put_varint(payload, static_cast<std::uint64_t>(cl.proc));
    put_varint(payload, static_cast<std::uint64_t>(cl.time));
    out.put(TraceFrame::kClose, payload);
  }
  return out.finish();
}

DecodeResult<RunCapture> decode_trace(const std::vector<std::uint8_t>& bytes) {
  RunCapture c;
  const auto on_frame = [&c](Frame& frame) { return read_frame(frame, c); };
  if (const auto error = read_frames(bytes, kFormat, on_frame)) return *error;
  return c;
}

}  // namespace sskel
