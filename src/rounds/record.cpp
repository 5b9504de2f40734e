#include "rounds/record.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sskel {

RecordingSource::RecordingSource(GraphSource& inner) : inner_(inner) {}

Digraph RecordingSource::graph(Round r) {
  SSKEL_REQUIRE(r >= 1);
  const auto idx = static_cast<std::size_t>(r - 1);
  if (idx < recorded_.size()) return recorded_[idx];
  SSKEL_REQUIRE(idx == recorded_.size());  // sequential first queries
  recorded_.push_back(inner_.graph(r));
  return recorded_.back();
}

ReplaySource::ReplaySource(std::vector<Digraph> capture)
    : capture_(std::move(capture)) {
  SSKEL_REQUIRE(!capture_.empty());
  for (const Digraph& g : capture_) {
    SSKEL_REQUIRE(g.n() == capture_.front().n());
  }
}

ProcId ReplaySource::n() const { return capture_.front().n(); }

Digraph ReplaySource::graph(Round r) {
  SSKEL_REQUIRE(r >= 1);
  const std::size_t idx =
      std::min(static_cast<std::size_t>(r - 1), capture_.size() - 1);
  return capture_[idx];
}

namespace {

void encode_bitmap(std::vector<std::uint8_t>& out, const ProcSet& set) {
  const std::size_t bytes = (static_cast<std::size_t>(set.universe()) + 7) / 8;
  std::vector<std::uint8_t> bitmap(bytes, 0);
  for (ProcId p : set) {
    bitmap[static_cast<std::size_t>(p) / 8] |=
        static_cast<std::uint8_t>(1u << (static_cast<unsigned>(p) % 8));
  }
  out.insert(out.end(), bitmap.begin(), bitmap.end());
}

/// Bytes of one ceil(n/8) bitmap.
[[nodiscard]] std::size_t bitmap_bytes(ProcId n) {
  return (static_cast<std::size_t>(n) + 7) / 8;
}

/// Bounds-checked bitmap read. The fixed-width layout means padding
/// bits (indices >= n in the last byte) must be zero, or two byte
/// strings would decode to the same set.
[[nodiscard]] bool decode_bitmap(ByteReader& reader, ProcId n, ProcSet& set,
                                 const char* field) {
  const std::size_t bytes = bitmap_bytes(n);
  // Expressed against remaining() — a `pos + bytes` sum can wrap for
  // the huge n a hostile header smuggles in.
  if (!reader.require_bytes(bytes, field)) return false;
  const std::uint8_t* data = reader.cursor();
  const unsigned tail_bits = static_cast<unsigned>(n) % 8;
  if (tail_bits != 0 &&
      (data[bytes - 1] & static_cast<std::uint8_t>(0xffu << tail_bits))) {
    return reader.fail(DecodeStatus::kValueOutOfRange, field);
  }
  set = ProcSet(n);
  for (ProcId p = 0; p < n; ++p) {
    if (data[static_cast<std::size_t>(p) / 8] &
        (1u << (static_cast<unsigned>(p) % 8))) {
      set.insert(p);
    }
  }
  reader.skip(bytes);
  return true;
}

}  // namespace

void encode_graph_body(std::vector<std::uint8_t>& out, const Digraph& g) {
  encode_bitmap(out, g.nodes());
  for (ProcId q = 0; q < g.n(); ++q) {
    encode_bitmap(out, g.out_neighbors(q));
  }
}

bool decode_graph_body(ByteReader& reader, ProcId n, Digraph& out) {
  ProcSet nodes(n);
  if (!decode_bitmap(reader, n, nodes, "node bitmap")) return false;
  Digraph g(n);
  // Restrict node presence first, then add edges; a row referencing a
  // node outside the bitmap (Digraph::add_edge would silently re-add
  // it) is hostile input, not a graph.
  g = g.induced(nodes);
  ProcSet row(n);
  for (ProcId q = 0; q < n; ++q) {
    if (!decode_bitmap(reader, n, row, "out-row bitmap")) return false;
    if (!row.is_subset_of(nodes) || (!row.empty() && !nodes.contains(q))) {
      return reader.fail(DecodeStatus::kInvalidEdge, "out-row bitmap");
    }
    for (ProcId p : row) g.add_edge(q, p);
  }
  out = std::move(g);
  return true;
}

}  // namespace sskel
