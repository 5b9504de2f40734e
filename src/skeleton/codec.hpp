// Wire codec for approximation graphs and k-set agreement messages.
//
// Sec. V notes Algorithm 1 has "worst-case message bit complexity that
// is polynomial in n": a round message carries (kind, estimate,
// approximation graph). This codec gives that claim teeth — it is a
// real, self-contained binary encoding (LEB128 varints + node bitmap +
// edge list with delta-coded labels), and the simulator's message
// sizer uses it so experiment E5 measures genuine encoded bytes, not
// in-memory sizeof.
//
// Layout of an encoded graph:
//   varint n
//   ceil(n/8) bytes of node-presence bitmap (util/wire.hpp)
//   varint edge_count
//   per edge (sorted by (q, p)): varint q, varint p, varint label
#pragma once

#include <cstdint>
#include <vector>

#include "graph/labeled_digraph.hpp"
#include "util/decode.hpp"
#include "util/types.hpp"
#include "util/varint.hpp"

namespace sskel {

/// Universe ceiling for *labeled* graph decodes, tighter than
/// kMaxDecodeUniverse because LabeledDigraph carries an n x n label
/// matrix: accepting a hostile n of 2^17 would let 3 bytes of input
/// demand a 64 GiB allocation. 4x past the n <= 512 scales labeled
/// graphs actually run at.
inline constexpr std::uint64_t kMaxLabeledDecodeUniverse = 1u << 11;

/// Serializes a labeled digraph.
[[nodiscard]] std::vector<std::uint8_t> encode_graph(const LabeledDigraph& g);

/// Decodes untrusted bytes. Accepts exactly the canonical encodings
/// encode_graph produces — strict varints, zero padding bits, edges in
/// strictly increasing (q, p) order with labels in [1, INT32_MAX],
/// endpoints inside the node bitmap — so a successful decode
/// re-encodes to the identical byte string.
[[nodiscard]] DecodeResult<LabeledDigraph> try_decode_graph(
    const std::vector<std::uint8_t>& in);

/// Inverse of encode_graph for *trusted* bytes (in-process round
/// messages): a decode failure is a caller bug and aborts via
/// SSKEL_REQUIRE. Untrusted bytes go through try_decode_graph.
[[nodiscard]] LabeledDigraph decode_graph(const std::vector<std::uint8_t>& in);

/// Encoded size without materializing the buffer (same arithmetic as
/// encode_graph); used on the simulator hot path.
[[nodiscard]] std::int64_t encoded_graph_size(const LabeledDigraph& g);

}  // namespace sskel
