#include "skeleton/codec.hpp"

#include "util/assert.hpp"
#include "util/wire.hpp"

namespace sskel {

std::vector<std::uint8_t> encode_graph(const LabeledDigraph& g) {
  std::vector<std::uint8_t> out;
  const ProcId n = g.n();
  put_varint(out, static_cast<std::uint64_t>(n));

  put_bitmap(out, g.nodes());

  put_varint(out, static_cast<std::uint64_t>(g.edge_count()));
  for (ProcId q : g.nodes()) {
    for (ProcId p : g.out_edges(q)) {
      put_varint(out, static_cast<std::uint64_t>(q));
      put_varint(out, static_cast<std::uint64_t>(p));
      put_varint(out, static_cast<std::uint64_t>(g.label(q, p)));
    }
  }
  return out;
}

DecodeResult<LabeledDigraph> try_decode_graph(
    const std::vector<std::uint8_t>& in) {
  ByteReader reader(in.data(), in.size());
  // Range-check before the narrowing cast; the n x n label matrix
  // makes an unchecked n an allocation bomb, not just an alias bug.
  std::uint64_t n_wide = 0;
  if (!reader.read_varint_max(n_wide, kMaxLabeledDecodeUniverse, "graph n")) {
    return reader.error();
  }
  if (n_wide == 0) {
    return DecodeError{DecodeStatus::kValueOutOfRange, 0, "graph n"};
  }
  const ProcId n = static_cast<ProcId>(n_wide);

  const std::size_t bitmap_pos = reader.pos();
  ProcSet nodes;
  if (!read_bitmap(reader, n, nodes, "node bitmap")) return reader.error();
  // The constructor requires an owner node; an all-zero bitmap never
  // comes out of encode_graph (a process graph always holds its owner).
  if (nodes.empty()) {
    return DecodeError{DecodeStatus::kValueOutOfRange, bitmap_pos,
                       "node bitmap"};
  }
  LabeledDigraph g(n, nodes.first());
  for (ProcId p : nodes) g.add_node(p);

  std::uint64_t edges = 0;
  if (!reader.read_varint(edges, "edge count")) return reader.error();
  // Each edge costs at least three varint bytes; a count the remaining
  // bytes cannot hold is rejected up front.
  if (edges > reader.remaining() / 3) {
    return DecodeError{DecodeStatus::kLimitExceeded, reader.pos(),
                       "edge count"};
  }
  ProcId prev_q = -1;
  ProcId prev_p = -1;
  for (std::uint64_t e = 0; e < edges; ++e) {
    std::uint64_t q_wide = 0;
    std::uint64_t p_wide = 0;
    std::uint64_t label_wide = 0;
    const std::uint64_t max_id = static_cast<std::uint64_t>(n) - 1;
    if (!reader.read_varint_max(q_wide, max_id, "edge source") ||
        !reader.read_varint_max(p_wide, max_id, "edge target")) {
      return reader.error();
    }
    const std::size_t label_pos = reader.pos();
    if (!reader.read_varint_max(label_wide, INT32_MAX, "edge label")) {
      return reader.error();
    }
    if (label_wide == 0) {  // label 0 means "edge absent"
      return DecodeError{DecodeStatus::kValueOutOfRange, label_pos,
                         "edge label"};
    }
    const ProcId q = static_cast<ProcId>(q_wide);
    const ProcId p = static_cast<ProcId>(p_wide);
    // set_edge silently inserts endpoints, so an edge touching a node
    // outside the bitmap must be caught here, not below.
    if (!g.has_node(q) || !g.has_node(p)) {
      return DecodeError{DecodeStatus::kInvalidEdge, label_pos, "edge"};
    }
    // Strictly increasing (q, p) keeps the accepted language equal to
    // encode_graph's output: no duplicates, no reordered aliases.
    if (q < prev_q || (q == prev_q && p <= prev_p)) {
      return DecodeError{DecodeStatus::kValueOutOfRange, label_pos,
                         "edge order"};
    }
    prev_q = q;
    prev_p = p;
    g.set_edge(q, p, static_cast<Round>(label_wide));
  }
  if (!reader.at_end()) {
    return DecodeError{DecodeStatus::kTrailingBytes, reader.pos(), "graph"};
  }
  return g;
}

LabeledDigraph decode_graph(const std::vector<std::uint8_t>& in) {
  DecodeResult<LabeledDigraph> result = try_decode_graph(in);
  SSKEL_REQUIRE(result.ok());
  return std::move(result.value());
}

std::int64_t encoded_graph_size(const LabeledDigraph& g) {
  const ProcId n = g.n();
  std::int64_t size = varint_size(static_cast<std::uint64_t>(n));
  size += static_cast<std::int64_t>(bitmap_bytes(n));
  size += varint_size(static_cast<std::uint64_t>(g.edge_count()));
  for (ProcId q : g.nodes()) {
    for (ProcId p : g.out_edges(q)) {
      size += varint_size(static_cast<std::uint64_t>(q));
      size += varint_size(static_cast<std::uint64_t>(p));
      size += varint_size(static_cast<std::uint64_t>(g.label(q, p)));
    }
  }
  return size;
}

}  // namespace sskel
