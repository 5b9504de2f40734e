// Wire layouts the binary codecs share: the framed container under
// SSKT traces and SSKC checkpoints, the process-set bitmap, and the
// length-prefixed string (DESIGN.md §14).
//
// Framed container:
//   4 bytes magic | varint version | frame* | end frame
//   frame = u8 type | varint payload length | payload
// Frame types run from 1 to the format's end type. The header frame
// comes first, exactly once; the end frame is mandatory, empty and
// last, so a file cut on a frame boundary is still detected. Each
// format says what its frames hold and in which order; the container
// says only how they are delimited.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/decode.hpp"
#include "util/proc_set.hpp"

namespace sskel {

/// What tells one framed format from another.
struct FrameFormat {
  /// Four magic bytes.
  const char* magic;
  std::uint64_t version;
  /// Type of the first frame, which appears exactly once.
  std::uint8_t header;
  /// Type of the empty last frame; the largest type the format has.
  std::uint8_t end;
};

/// Builds a container: magic and version up front, then one frame per
/// put(), then the end frame.
class FrameWriter {
 public:
  explicit FrameWriter(const FrameFormat& format);

  /// Appends one frame: type byte, varint payload length, payload.
  template <typename Type>
  void put(Type type, const std::vector<std::uint8_t>& payload) {
    put_frame(static_cast<std::uint8_t>(type), payload);
  }

  /// Appends the end frame and returns the container.
  [[nodiscard]] std::vector<std::uint8_t> finish();

 private:
  void put_frame(std::uint8_t type, const std::vector<std::uint8_t>& payload);

  std::uint8_t end_;
  std::vector<std::uint8_t> out_;
};

/// One frame as read_frames hands it to a format's handler.
struct Frame {
  std::uint8_t type;
  /// Offset of the frame's type byte in the whole input.
  std::size_t start;
  /// The payload alone. read_frames adds the payload's offset in the
  /// whole input to this reader's errors.
  ByteReader payload;
  DecodeError rejection{};

  /// Rejects the frame as a whole, at its type byte; returns false.
  [[nodiscard]] bool reject(DecodeStatus status, const char* field) {
    rejection = DecodeError{status, start, field};
    return false;
  }
};

/// Called once per frame in input order, end frame included. Returns
/// false to reject the input, after failing `frame.payload` or calling
/// `frame.reject`.
using FrameHandler = std::function<bool(Frame& frame)>;

/// Walks untrusted container bytes: checks magic and version, bounds
/// each frame's length by the bytes left, and passes each frame to
/// `on_frame`. Rejects a type outside [1, end], a first frame other
/// than the header, a second header, a payload the handler leaves
/// unread, a missing end frame and any byte after it. Returns the
/// first rejection, or nothing if the input is a whole container.
[[nodiscard]] std::optional<DecodeError> read_frames(
    const std::vector<std::uint8_t>& bytes, const FrameFormat& format,
    const FrameHandler& on_frame);

/// Bytes of a bitmap over universe n: ceil(n/8).
[[nodiscard]] constexpr std::size_t bitmap_bytes(ProcId n) {
  return (static_cast<std::size_t>(n) + 7) / 8;
}

/// Appends `set` as a bitmap over its universe: process p is bit p % 8
/// of byte p / 8, and the padding bits past the universe are zero.
void put_bitmap(std::vector<std::uint8_t>& out, const ProcSet& set);

/// Reads a bitmap over universe n into `out`. Nonzero padding bits
/// are rejected, or two byte strings would decode to one set.
[[nodiscard]] bool read_bitmap(ByteReader& reader, ProcId n, ProcSet& out,
                               const char* field);

/// Appends a varint byte count, then the bytes.
void put_string(std::vector<std::uint8_t>& out, std::string_view s);

/// Reads a string put_string wrote, refusing one longer than `max`.
[[nodiscard]] bool read_string(ByteReader& reader, std::uint64_t max,
                               std::string& out, const char* field);

}  // namespace sskel
