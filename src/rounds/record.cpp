#include "rounds/record.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/wire.hpp"

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

void encode_graph_body(std::vector<std::uint8_t>& out, const Digraph& g) {
  put_bitmap(out, g.nodes());
  for (ProcId q = 0; q < g.n(); ++q) {
    put_bitmap(out, g.out_neighbors(q));
  }
}

bool decode_graph_body(ByteReader& reader, ProcId n, Digraph& out) {
  ProcSet nodes(n);
  if (!read_bitmap(reader, n, nodes, "node bitmap")) return false;
  Digraph g(n);
  // Restrict node presence first, then add edges; a row referencing a
  // node outside the bitmap (Digraph::add_edge would silently re-add
  // it) is hostile input, not a graph.
  g = g.induced(nodes);
  ProcSet row(n);
  for (ProcId q = 0; q < n; ++q) {
    if (!read_bitmap(reader, n, row, "out-row bitmap")) return false;
    if (!row.is_subset_of(nodes) || (!row.empty() && !nodes.contains(q))) {
      return reader.fail(DecodeStatus::kInvalidEdge, "out-row bitmap");
    }
    for (ProcId p : row) g.add_edge(q, p);
  }
  out = std::move(g);
  return true;
}

}  // namespace sskel
