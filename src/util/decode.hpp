// Recoverable decode errors for untrusted bytes.
//
// Captures are meant to be shared: attached to CI failures, passed
// around as bug reports, and fed back to fuzzers as corpora. A decoder
// facing those bytes must be able to *reject* them — gracefully,
// distinguishably from a crash — where the in-process codecs are
// entitled to SSKEL_REQUIRE on their own output. DecodeResult<T> is
// the expected-style channel every untrusted-byte decoder returns, and
// ByteReader is the bounds-checked cursor they share: every read is
// checked against the remaining bytes (never `pos + k <= size`, which
// wraps), varints are strict ULEB128 (canonical, in-range), and any
// failure carries the byte offset where decoding stopped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "util/assert.hpp"
#include "util/varint.hpp"

namespace sskel {

/// Why a decode rejected its input. kOk never appears in a
/// DecodeError that reaches a caller.
enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  /// Input ended inside a field (including inside a varint).
  kTruncated,
  /// Varint used more bytes than its value needs (non-canonical), so
  /// two distinct byte strings would decode to one value.
  kOverlongVarint,
  /// Varint encodes a value outside 64 bits.
  kVarintOverflow,
  /// A decoded value is outside its field's legal range (e.g. an `n`
  /// that does not fit ProcId, a zero round count, a frame kind byte
  /// with no meaning).
  kValueOutOfRange,
  /// A size or count field demands more payload than the bytes that
  /// remain can possibly hold.
  kLimitExceeded,
  /// An edge references a node absent from the graph's node bitmap.
  kInvalidEdge,
  /// Framed container: wrong magic bytes.
  kBadMagic,
  /// Framed container: unsupported format version.
  kBadVersion,
  /// Framed container: malformed frame structure (unknown frame type,
  /// payload length mismatch, frame out of order, missing/duplicate
  /// required frame).
  kBadFrame,
  /// Bytes remain after the last legal field/frame.
  kTrailingBytes,
};

/// Universe ceiling for untrusted decodes. Decoders validate a
/// claimed `n` against this *before* sizing anything by it: a Digraph
/// allocates O(n) row objects even when empty, so an unchecked header
/// could demand gigabytes off a few bytes of input. 2x past the
/// n = 65,536 kernel scale (DESIGN.md §11); raise it alongside the
/// kernel, not ad hoc.
inline constexpr std::uint64_t kMaxDecodeUniverse = 1u << 17;

[[nodiscard]] constexpr const char* decode_status_name(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kTruncated: return "truncated";
    case DecodeStatus::kOverlongVarint: return "overlong varint";
    case DecodeStatus::kVarintOverflow: return "varint overflow";
    case DecodeStatus::kValueOutOfRange: return "value out of range";
    case DecodeStatus::kLimitExceeded: return "limit exceeded";
    case DecodeStatus::kInvalidEdge: return "invalid edge";
    case DecodeStatus::kBadMagic: return "bad magic";
    case DecodeStatus::kBadVersion: return "bad version";
    case DecodeStatus::kBadFrame: return "bad frame";
    case DecodeStatus::kTrailingBytes: return "trailing bytes";
  }
  return "unknown";
}

/// One rejection: what went wrong, where in the input, and (when the
/// status alone is ambiguous) which field was being decoded.
struct DecodeError {
  DecodeStatus status = DecodeStatus::kOk;
  /// Byte offset in the input where decoding stopped.
  std::size_t offset = 0;
  /// Static context string ("run n", "frame length", ...); never
  /// owning, so errors are cheap to construct and copy.
  const char* field = "";

  [[nodiscard]] std::string to_string() const {
    std::string s = decode_status_name(status);
    if (field[0] != '\0') {
      s += " (";
      s += field;
      s += ")";
    }
    s += " at byte ";
    s += std::to_string(offset);
    return s;
  }
};

/// Expected-style result of decoding untrusted bytes: either a value
/// or a DecodeError, never both. Accessors enforce the discriminant so
/// misuse fails loudly instead of reading a moved-from default.
template <typename T>
class DecodeResult {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): ok-path conversions
  // keep decoder code readable (`return capture;`).
  DecodeResult(T value) : value_(std::move(value)), ok_(true) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  DecodeResult(DecodeError error) : error_(error) {
    SSKEL_REQUIRE(error.status != DecodeStatus::kOk);
  }

  [[nodiscard]] bool ok() const { return ok_; }
  explicit operator bool() const { return ok_; }

  [[nodiscard]] T& value() {
    SSKEL_REQUIRE(ok_);
    return value_;
  }
  [[nodiscard]] const T& value() const {
    SSKEL_REQUIRE(ok_);
    return value_;
  }

  [[nodiscard]] const DecodeError& error() const {
    SSKEL_REQUIRE(!ok_);
    return error_;
  }

 private:
  T value_{};
  DecodeError error_{};
  bool ok_ = false;
};

/// Bounds-checked cursor over untrusted bytes. All reads either
/// succeed and advance, or fail (returning false) and record the error
/// without advancing past the failure point. Overflow-safe by
/// construction: limits are always expressed as "remaining bytes",
/// never as `pos + k` sums that can wrap.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == size_; }
  [[nodiscard]] const DecodeError& error() const { return error_; }

  /// Raw pointer to the next `n` bytes; call only after a successful
  /// require_bytes(n).
  [[nodiscard]] const std::uint8_t* cursor() const { return data_ + pos_; }

  void skip(std::size_t n) {
    SSKEL_ASSERT(n <= remaining());
    pos_ += n;
  }

  [[nodiscard]] bool fail(DecodeStatus status, const char* field) {
    error_ = DecodeError{status, pos_, field};
    return false;
  }

  /// Checks that `n` more bytes exist (no cursor movement).
  [[nodiscard]] bool require_bytes(std::size_t n, const char* field) {
    if (n > remaining()) return fail(DecodeStatus::kTruncated, field);
    return true;
  }

  [[nodiscard]] bool read_u8(std::uint8_t& out, const char* field) {
    if (!require_bytes(1, field)) return false;
    out = data_[pos_++];
    return true;
  }

  /// Strict ULEB128: rejects truncation, overflow past 64 bits, and
  /// non-canonical (overlong) encodings.
  [[nodiscard]] bool read_varint(std::uint64_t& out, const char* field) {
    const std::size_t start = pos_;
    switch (try_get_varint(data_, size_, pos_, out)) {
      case VarintStatus::kOk:
        return true;
      case VarintStatus::kTruncated:
        pos_ = start;
        return fail(DecodeStatus::kTruncated, field);
      case VarintStatus::kOverflow:
        pos_ = start;
        return fail(DecodeStatus::kVarintOverflow, field);
      case VarintStatus::kOverlong:
        pos_ = start;
        return fail(DecodeStatus::kOverlongVarint, field);
    }
    return false;  // unreachable
  }

  /// Varint constrained to [0, max]; `max` is the field's semantic
  /// ceiling (e.g. INT32_MAX for a ProcId count), checked *before* any
  /// narrowing cast so hostile wide values cannot alias narrow ones.
  [[nodiscard]] bool read_varint_max(std::uint64_t& out, std::uint64_t max,
                                     const char* field) {
    const std::size_t start = pos_;
    if (!read_varint(out, field)) return false;
    if (out > max) {
      pos_ = start;
      return fail(DecodeStatus::kValueOutOfRange, field);
    }
    return true;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  DecodeError error_{};
};

}  // namespace sskel
