// Run recording and replay.
//
// A run in this model *is* its communication-graph sequence (plus
// initial states), so capturing the sequence makes any run — random,
// adversarial, or network-derived — perfectly reproducible and
// shareable. RecordingSource taps a live source; ReplaySource plays a
// capture back. Captures persist as SSKT traces (rounds/trace.hpp),
// whose graph frames use the body codec below.
#pragma once

#include <cstdint>
#include <vector>

#include "rounds/graph_source.hpp"
#include "util/decode.hpp"

namespace sskel {

/// Decorator: forwards to an inner source and keeps every graph it
/// served. Queries must arrive in round order (1, 2, 3, ...), as the
/// simulator issues them; re-queries of past rounds are answered from
/// the capture without touching the inner source.
class RecordingSource final : public GraphSource {
 public:
  explicit RecordingSource(GraphSource& inner);

  [[nodiscard]] ProcId n() const override { return inner_.n(); }
  [[nodiscard]] Digraph graph(Round r) override;

  [[nodiscard]] const std::vector<Digraph>& recorded() const {
    return recorded_;
  }

 private:
  GraphSource& inner_;
  std::vector<Digraph> recorded_;
};

/// Replays a capture; rounds beyond the capture repeat the last graph
/// (matching ScheduleSource semantics, which suits stabilized runs).
class ReplaySource final : public GraphSource {
 public:
  explicit ReplaySource(std::vector<Digraph> capture);

  [[nodiscard]] ProcId n() const override;
  [[nodiscard]] Digraph graph(Round r) override;

  [[nodiscard]] std::size_t capture_rounds() const {
    return capture_.size();
  }

 private:
  std::vector<Digraph> capture_;
};

/// One graph's body in the trace codec's kGraph frame (node bitmap +
/// n out-row bitmaps; no leading n). `reader` must sit at the graph's
/// first byte. Hardened for untrusted bytes: nonzero padding bits and
/// edges touching a node outside the node bitmap are rejected.
[[nodiscard]] bool decode_graph_body(ByteReader& reader, ProcId n,
                                     Digraph& out);

/// Encoder counterpart of decode_graph_body.
void encode_graph_body(std::vector<std::uint8_t>& out, const Digraph& g);

}  // namespace sskel
