// ProcSet: a tiered, fixed-universe set of process ids.
//
// The whole library is built on per-round set algebra over Pi (the
// process universe): timely neighborhoods PT(p, r) shrink by
// intersection (Eq. (3)), skeletons are intersections of edge sets, and
// predicates quantify over (k+1)-subsets. A word-packed bitset makes
// every one of those operations O(n/64) — fine up to a few hundred
// processes, but at n = 65,536 a single row is 1024 words and a round
// of row intersections touches O(n^2/64) words even when the skeleton
// has long decayed to near-diagonal. ProcSet therefore tiers its
// representation by universe size and density:
//
//   * small universes (below the tier threshold, default 32 words /
//     n < 2048): the original flat dense bitset, bit for bit;
//   * large universes, dense form: the flat payload plus a *summary
//     tier* — one bit per payload word (so one summary word covers
//     64 * 64 = 4096 processes) kept exactly in sync; iteration and
//     shrink operations walk only summary-active blocks, and bulk
//     dense sweeps run the inline word kernels
//     (util/word_kernels.hpp);
//   * large universes, sparse form: once a shrink leaves at most
//     1/8 of the payload words nonzero, the payload is dropped for a
//     sorted (word-index, word) block list — CSR-style — so storage
//     and every subsequent operation cost O(active blocks). Sets
//     convert back to dense automatically when they grow past 1/4 of
//     the payload words (hysteresis avoids flapping).
//
// The representation is invisible through the public API: all
// operations, iteration order, equality, and hash() are
// representation-independent, and the randomized tier-equivalence
// suite (tests/util/proc_set_tier_test.cpp) pins dense and tiered
// builds bit-for-bit against each other. Benchmarks pin a mode via
// ScopedTierPolicy to measure tiered-vs-dense honestly.
//
// Memory accounting: every ProcSet maintains its heap footprint in
// process-wide live/peak counters (ProcSet::live_bytes() /
// peak_bytes()), the backbone of the per-run memory story at
// n = 65,536 surfaced through McSummary and the scale bench JSON.
#pragma once

#include <algorithm>
#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace sskel {

/// A subset of a fixed process universe {0, .., n-1}.
///
/// All binary operations require both operands to share the same
/// universe size; this is a precondition, not a silent resize.
class ProcSet {
 public:
  /// Representation policy, process-wide. kAuto is the production
  /// mode; kDenseOnly forces the flat dense payload everywhere (no
  /// sparse adoption, no summary-guided skipping) and exists so the
  /// scale benchmarks can measure tiered-vs-dense on identical
  /// workloads and the equivalence tests can pin bit-equality.
  enum class TierPolicy { kAuto, kDenseOnly };

  static void set_tier_policy(TierPolicy policy);
  [[nodiscard]] static TierPolicy tier_policy();

  /// Tier threshold in payload words: universes of at least this many
  /// words maintain the summary tier and may adopt the sparse form.
  /// Default 32 (n >= 2048). Tests lower it to exercise the tiered
  /// paths at small n; set it before creating the sets involved.
  static void set_tier_threshold_words(std::size_t words);
  [[nodiscard]] static std::size_t tier_threshold_words();

  /// Process-wide heap bytes currently owned by ProcSet storage, and
  /// the high-water mark since the last reset_peak_bytes(). The scale
  /// bench and the Monte-Carlo runner surface these per run.
  [[nodiscard]] static std::int64_t live_bytes();
  [[nodiscard]] static std::int64_t peak_bytes();
  static void reset_peak_bytes();

  /// Word-arena counters. Tiered sets recycle their dense payload
  /// vectors through a per-thread arena instead of returning them to
  /// the allocator on every sparsify/clear/destroy: the transient
  /// complete-graph phase at n = 65,536 repeatedly cycles ~8 KB row
  /// payloads through the dense form, and reuse turns that churn into
  /// pointer swaps. arena_bytes() is the capacity currently parked in
  /// arenas across all threads (these bytes are *not* in live_bytes(),
  /// which counts only set-owned storage); arena_reuses() counts
  /// dense materializations served from a recycled buffer.
  [[nodiscard]] static std::int64_t arena_bytes();
  [[nodiscard]] static std::int64_t arena_reuses();
  /// Frees the calling thread's parked buffers (tests and long-lived
  /// embedders that want the high-water memory back).
  static void release_thread_arena();

  /// Empty set over an empty universe. Mostly useful as a placeholder
  /// before assignment.
  ProcSet() = default;

  /// Empty set over a universe of `n` processes. Tiered universes
  /// start in the sparse form (no payload allocation) under kAuto.
  explicit ProcSet(ProcId n);

  ProcSet(const ProcSet& other);
  ProcSet(ProcSet&& other) noexcept;
  ProcSet& operator=(const ProcSet& other);
  ProcSet& operator=(ProcSet&& other) noexcept;
  ~ProcSet();

  /// The full set {0, .., n-1}.
  static ProcSet full(ProcId n);

  /// Singleton {p} over a universe of n processes.
  static ProcSet singleton(ProcId n, ProcId p);

  /// Builds a set from an explicit list of members.
  static ProcSet of(ProcId n, std::initializer_list<ProcId> members);

  /// Universe size (number of processes, *not* cardinality).
  [[nodiscard]] ProcId universe() const { return n_; }

  [[nodiscard]] bool contains(ProcId p) const {
    SSKEL_REQUIRE(in_range(p));
    return (word_at(word(p)) >> bit(p)) & 1u;
  }

  void insert(ProcId p) {
    SSKEL_REQUIRE(in_range(p));
    if (!sparse_) {
      // Dense fast path: this is the hottest call in the message plane
      // (every deposit and derived-graph edge lands here), so it must
      // inline to a load/or/store.
      words_[word(p)] |= mask(p);
      if (!summary_.empty()) summary_set(word(p));
      return;
    }
    insert_sparse(p);
  }
  void erase(ProcId p) {
    SSKEL_REQUIRE(in_range(p));
    if (!sparse_) {
      const std::size_t w = word(p);
      words_[w] &= ~mask(p);
      if (!summary_.empty() && words_[w] == 0) summary_clear(w);
      return;
    }
    erase_sparse(p);
  }

  /// Empties the set. Tiered sets drop their dense payload (the
  /// 65,536-process skeleton's dead rows cost nothing afterwards);
  /// small and policy-pinned dense sets zero in place, keeping their
  /// storage for reuse.
  void clear();

  /// Number of members.
  [[nodiscard]] int count() const;

  [[nodiscard]] bool empty() const;

  /// True iff *this is a subset of `other` (not necessarily proper).
  [[nodiscard]] bool is_subset_of(const ProcSet& other) const;

  /// True iff the two sets share at least one member.
  [[nodiscard]] bool intersects(const ProcSet& other) const;

  /// In-place intersection / union / difference.
  ProcSet& operator&=(const ProcSet& other);

  /// In-place intersection that reports whether any member was
  /// removed. The change test rides the word-parallel AND itself (one
  /// compare per word), so skeleton maintenance can detect "this round
  /// shrank nothing" at no extra asymptotic cost.
  bool intersect_changed(const ProcSet& other);

  /// In-place intersection that additionally *materializes* the
  /// removed members: after the call, `removed` holds exactly the
  /// members this intersection deleted (its previous contents are
  /// overwritten). `removed` must share the universe. Same word-
  /// parallel cost as intersect_changed; this is what lets skeleton
  /// maintenance hand the per-round deletion set to the decremental
  /// SCC maintainer for free.
  bool intersect_diff(const ProcSet& other, ProcSet& removed);
  ProcSet& operator|=(const ProcSet& other) {
    SSKEL_REQUIRE(n_ == other.n_);
    if (!sparse_ && !other.sparse_ && summary_.empty() &&
        other.summary_.empty()) {
      // Small-universe dense union: an inline word loop over the
      // handful of words involved.
      for (std::size_t w = 0; w < words_.size(); ++w) {
        words_[w] |= other.words_[w];
      }
      return *this;
    }
    return or_assign_slow(other);
  }
  ProcSet& operator-=(const ProcSet& other);

  /// Fused masked fold: *this |= (src & mask), in one pass over the
  /// blocks active in both src and mask. This is the inner step of
  /// every masked BFS (reach.cpp, inc_scc.cpp): frontier row ANDed
  /// with the member mask, ORed into the accumulator, without
  /// materializing the intermediate set.
  void or_and(const ProcSet& src, const ProcSet& mask);

  friend ProcSet operator&(ProcSet a, const ProcSet& b) { return a &= b; }
  friend ProcSet operator|(ProcSet a, const ProcSet& b) { return a |= b; }
  friend ProcSet operator-(ProcSet a, const ProcSet& b) { return a -= b; }

  /// Logical equality (representation-independent: a sparse and a
  /// dense set with the same members compare equal).
  bool operator==(const ProcSet& other) const;

  /// Smallest member, or -1 when empty.
  [[nodiscard]] ProcId first() const {
    if (!sparse_ && summary_.empty()) {
      for (std::size_t w = 0; w < words_.size(); ++w) {
        if (words_[w] != 0) {
          return static_cast<ProcId>(w * kBits) +
                 static_cast<ProcId>(std::countr_zero(words_[w]));
        }
      }
      return -1;
    }
    return first_slow();
  }

  /// Smallest member strictly greater than `p`, or -1 when none.
  /// Passing -1 yields the first member, so `next_after` supports
  /// resumable scans from a "before the beginning" cursor.
  /// Small-universe dense sets resolve inline (iteration is the inner
  /// loop of inbox consumption and derived-row construction); tiered
  /// and sparse forms take the out-of-line block walk.
  [[nodiscard]] ProcId next_after(ProcId p) const {
    const ProcId q = p < 0 ? 0 : p + 1;
    if (q >= n_) return -1;
    if (!sparse_ && summary_.empty()) {
      std::size_t w = word(q);
      std::uint64_t v = words_[w] & (~std::uint64_t{0} << bit(q));
      while (v == 0) {
        if (++w >= words_.size()) return -1;
        v = words_[w];
      }
      return static_cast<ProcId>(w * kBits) +
             static_cast<ProcId>(std::countr_zero(v));
    }
    return next_after_slow(q);
  }

  /// Members in ascending order.
  [[nodiscard]] std::vector<ProcId> to_vector() const;

  /// Renders as "{p0, p3, p7}" (ids, 0-based) for logs and tests.
  [[nodiscard]] std::string to_string() const;

  /// Stable 64-bit hash (FNV-1a over the nonzero (index, word) pairs,
  /// so dense and sparse forms of the same set hash equal).
  [[nodiscard]] std::uint64_t hash() const;

  // --- representation-agnostic word access -------------------------------
  //
  // Callers that fingerprint or serialize whole structures read the
  // packed words through these instead of assuming a flat dense
  // layout (little-endian bit order: bit b of word w is process
  // w*64+b).

  /// Number of payload words the universe spans (present or not).
  [[nodiscard]] std::size_t word_span() const { return word_count(n_); }

  /// Write counterpart of word_at: ORs `v` into payload word w. Bulk
  /// graph loaders (Digraph's transpose-based row assignment) land
  /// whole rows through this instead of per-bit inserts.
  void or_word_at(std::size_t w, std::uint64_t v) {
    SSKEL_REQUIRE(w < word_count(n_));
    if (v == 0) return;
    if (!sparse_) {
      words_[w] |= v;
      if (!summary_.empty()) summary_set(w);
      return;
    }
    or_word_at_sparse(w, v);
  }

  /// Word w of the packed representation; 0 for inactive blocks.
  [[nodiscard]] std::uint64_t word_at(std::size_t w) const {
    SSKEL_REQUIRE(w < word_count(n_));
    if (!sparse_) return words_[w];
    const auto it = std::lower_bound(sidx_.begin(), sidx_.end(),
                                     static_cast<std::uint32_t>(w));
    if (it == sidx_.end() || *it != w) return 0;
    return sval_[static_cast<std::size_t>(it - sidx_.begin())];
  }

  /// Invokes fn(word_index, word) for every *nonzero* payload word in
  /// ascending index order — O(active blocks) on tiered sets.
  template <typename Fn>
  void for_each_word(Fn&& fn) const {
    if (sparse_) {
      for (std::size_t i = 0; i < sidx_.size(); ++i) fn(sidx_[i], sval_[i]);
      return;
    }
    if (!summary_.empty()) {
      for (std::size_t s = 0; s < summary_.size(); ++s) {
        std::uint64_t bits = summary_[s];
        while (bits != 0) {
          const auto j = static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          const std::size_t w = s * kBits + j;
          fn(static_cast<std::uint32_t>(w), words_[w]);
        }
      }
      return;
    }
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (words_[w] != 0) fn(static_cast<std::uint32_t>(w), words_[w]);
    }
  }

  /// Number of nonzero payload words (the sparse form's storage cost).
  [[nodiscard]] std::size_t active_words() const;

  /// Whether this set currently holds the sparse (block-list) form.
  [[nodiscard]] bool is_sparse() const { return sparse_; }

  /// Re-evaluates the density transition immediately (normally done
  /// automatically after shrink operations).
  void compact();

  /// Iteration support: `for (ProcId p : set) ...`.
  class const_iterator {
   public:
    using value_type = ProcId;
    const_iterator(const ProcSet* s, ProcId p) : set_(s), cur_(p) {}
    ProcId operator*() const { return cur_; }
    const_iterator& operator++() {
      cur_ = set_->next_after(cur_);
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return cur_ != o.cur_; }
    bool operator==(const const_iterator& o) const { return cur_ == o.cur_; }

   private:
    const ProcSet* set_;
    ProcId cur_;
  };

  [[nodiscard]] const_iterator begin() const {
    return const_iterator(this, first());
  }
  [[nodiscard]] const_iterator end() const { return const_iterator(this, -1); }

 private:
  static constexpr int kBits = 64;
  static std::size_t word_count(ProcId n) {
    return (static_cast<std::size_t>(n) + kBits - 1) / kBits;
  }
  static std::size_t word(ProcId p) {
    return static_cast<std::size_t>(p) / kBits;
  }
  static unsigned bit(ProcId p) { return static_cast<unsigned>(p) % kBits; }
  static std::uint64_t mask(ProcId p) { return std::uint64_t{1} << bit(p); }
  [[nodiscard]] bool in_range(ProcId p) const { return p >= 0 && p < n_; }

  /// Whether this universe maintains the summary tier (and may adopt
  /// the sparse form under kAuto).
  [[nodiscard]] bool tiered() const;

  /// Dense-form summary maintenance.
  void summary_set(std::size_t w) {
    summary_[w / kBits] |= std::uint64_t{1} << (w % kBits);
  }
  void summary_clear(std::size_t w) {
    summary_[w / kBits] &= ~(std::uint64_t{1} << (w % kBits));
  }
  void rebuild_summary();

  /// Sparse-form halves of the inline mutators, plus the tiered /
  /// sparse remainder of the inline scans.
  void insert_sparse(ProcId p);
  void erase_sparse(ProcId p);
  ProcSet& or_assign_slow(const ProcSet& other);
  [[nodiscard]] ProcId first_slow() const;
  [[nodiscard]] ProcId next_after_slow(ProcId q) const;

  /// Unconditional representation conversions.
  void densify();
  void sparsify();
  /// Density-transition checks (no-ops under kDenseOnly).
  void maybe_sparsify();
  void maybe_densify_for_growth(std::size_t projected_blocks);

  /// Zeroes bits beyond n_ in the last word (dense form, after
  /// whole-word ops that could set them).
  void trim();

  /// Shared core of &= / intersect_changed / intersect_diff: ANDs
  /// `other` into *this, optionally materializing removed bits into
  /// `diff` (cleared first). Returns the OR of all removed bits.
  std::uint64_t intersect_core(const ProcSet& other, ProcSet* diff);

  /// ORs a nonzero payload word into the set, whatever the current
  /// representation (sparse inserts keep the block list sorted).
  void or_word(std::size_t w, std::uint64_t v);

  /// Sparse tail of or_word_at: block insert plus densify/accounting.
  void or_word_at_sparse(std::size_t w, std::uint64_t v);

  /// Recomputes the heap footprint and settles the delta into the
  /// process-wide counters.
  void account();
  [[nodiscard]] std::int64_t storage_bytes() const;

  ProcId n_ = 0;
  bool sparse_ = false;
  std::vector<std::uint64_t> words_;    // dense payload (empty when sparse)
  std::vector<std::uint64_t> summary_;  // tiered: bit per payload word
  std::vector<std::uint32_t> sidx_;     // sparse: sorted active word indices
  std::vector<std::uint64_t> sval_;     // sparse: matching payload words
  std::int64_t footprint_ = 0;          // bytes settled into the counters
};

/// Pins the ProcSet tier policy for a scope (benchmarks measuring
/// tiered-vs-dense, tests pinning bit-equality across modes).
class ScopedTierPolicy {
 public:
  explicit ScopedTierPolicy(ProcSet::TierPolicy policy)
      : previous_(ProcSet::tier_policy()) {
    ProcSet::set_tier_policy(policy);
  }
  ScopedTierPolicy(const ScopedTierPolicy&) = delete;
  ScopedTierPolicy& operator=(const ScopedTierPolicy&) = delete;
  ~ScopedTierPolicy() { ProcSet::set_tier_policy(previous_); }

 private:
  ProcSet::TierPolicy previous_;
};

/// Enumerates all subsets of `universe_members` with exactly `k`
/// elements, invoking `fn(const ProcSet&)` for each. Used by the exact
/// Psrcs(k) checker; intended for small k and n (cost is C(n, k)).
/// `fn` returning false aborts the enumeration early; the function
/// returns false in that case, true when all subsets were visited.
bool for_each_subset(const ProcSet& universe_members, int k,
                     const std::function<bool(const ProcSet&)>& fn);

}  // namespace sskel
