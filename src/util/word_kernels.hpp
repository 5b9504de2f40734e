// Word kernels for bitset algebra.
//
// Every hot loop of the library bottoms out in straight-line algebra
// over packed 64-bit words: skeleton intersection, removal-diff
// materialization, masked BFS folds, subset tests. These are the
// plain per-word loops, inline so the compiler sees them at every
// call site; at the trial workloads' sizes (n <= 64) a row is one
// word, and at n = 65,536 the summary tier keeps the sweeps to the
// active blocks.
//
// Kernels are deliberately representation-free: they see raw word
// spans, not ProcSets. The tiered ProcSet calls them on its dense
// payload; sparse blocks go through per-word merges. All spans are
// `nw` words long; they may alias only exactly (dst == src).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace sskel::wk {

/// dst &= src; returns the OR of all removed bits (nonzero iff the
/// AND cleared anything).
inline std::uint64_t and_changed(std::uint64_t* dst, const std::uint64_t* src,
                                 std::size_t nw) {
  std::uint64_t removed = 0;
  for (std::size_t i = 0; i < nw; ++i) {
    removed |= dst[i] & ~src[i];
    dst[i] &= src[i];
  }
  return removed;
}

/// dst &= src; diff[i] receives the bits removed from dst[i];
/// returns the OR of all removed bits.
inline std::uint64_t and_diff(std::uint64_t* dst, const std::uint64_t* src,
                              std::uint64_t* diff, std::size_t nw) {
  std::uint64_t removed = 0;
  for (std::size_t i = 0; i < nw; ++i) {
    const std::uint64_t gone = dst[i] & ~src[i];
    diff[i] = gone;
    removed |= gone;
    dst[i] &= src[i];
  }
  return removed;
}

/// dst |= src.
inline void or_inplace(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) dst[i] |= src[i];
}

/// dst |= a & b — the fused masked-BFS fold (frontier row ANDed with
/// the member mask, ORed into the visited accumulator, one pass).
inline void or_and(std::uint64_t* dst, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) dst[i] |= a[i] & b[i];
}

/// dst &= ~src.
inline void andnot_inplace(std::uint64_t* dst, const std::uint64_t* src,
                           std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) dst[i] &= ~src[i];
}

/// (a & ~b) == 0 over the span; stops at the first witness.
inline bool subset(const std::uint64_t* a, const std::uint64_t* b,
                   std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

/// (a & b) != 0 anywhere in the span; stops at the first witness.
inline bool intersects(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

/// Sum of popcount(w[0..nw)).
inline std::int64_t popcount(const std::uint64_t* w, std::size_t nw) {
  std::int64_t c = 0;
  for (std::size_t i = 0; i < nw; ++i) c += std::popcount(w[i]);
  return c;
}

/// summary[s] bit j = (words[s*64 + j] != 0), for ceil(nw/64) summary
/// words; trailing summary bits beyond nw are zero.
inline void build_summary(const std::uint64_t* words, std::size_t nw,
                          std::uint64_t* summary) {
  const std::size_t ns = (nw + 63) / 64;
  for (std::size_t s = 0; s < ns; ++s) summary[s] = 0;
  for (std::size_t i = 0; i < nw; ++i) {
    if (words[i] != 0) summary[i / 64] |= std::uint64_t{1} << (i % 64);
  }
}

enum class Simd { kScalar };
/// Kept only for skbench (frozen), which stamps name(active()).
[[nodiscard]] constexpr Simd active() { return Simd::kScalar; }
/// Kept only for skbench (frozen); always "scalar".
[[nodiscard]] constexpr const char* name(Simd /*kind*/) { return "scalar"; }

}  // namespace sskel::wk
