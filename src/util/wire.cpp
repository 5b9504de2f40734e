#include "util/wire.hpp"

#include "util/varint.hpp"

namespace sskel {

FrameWriter::FrameWriter(const FrameFormat& format)
    : end_(format.end), out_(format.magic, format.magic + 4) {
  put_varint(out_, format.version);
}

void FrameWriter::put_frame(std::uint8_t type,
                            const std::vector<std::uint8_t>& payload) {
  out_.push_back(type);
  put_varint(out_, payload.size());
  out_.insert(out_.end(), payload.begin(), payload.end());
}

std::vector<std::uint8_t> FrameWriter::finish() {
  put_frame(end_, {});
  return std::move(out_);
}

std::optional<DecodeError> read_frames(const std::vector<std::uint8_t>& bytes,
                                       const FrameFormat& format,
                                       const FrameHandler& on_frame) {
  ByteReader reader(bytes.data(), bytes.size());
  if (!reader.require_bytes(4, "magic")) return reader.error();
  for (std::size_t i = 0; i < 4; ++i) {
    if (reader.cursor()[i] != static_cast<std::uint8_t>(format.magic[i])) {
      return DecodeError{DecodeStatus::kBadMagic, reader.pos() + i, "magic"};
    }
  }
  reader.skip(4);
  std::uint64_t version = 0;
  if (!reader.read_varint(version, "version")) return reader.error();
  if (version != format.version) {
    return DecodeError{DecodeStatus::kBadVersion, reader.pos(), "version"};
  }

  bool have_header = false;
  bool have_end = false;
  while (!reader.at_end()) {
    if (have_end) {
      return DecodeError{DecodeStatus::kTrailingBytes, reader.pos(), "frame"};
    }
    const std::size_t frame_start = reader.pos();
    std::uint8_t type = 0;
    if (!reader.read_u8(type, "frame type")) return reader.error();
    std::uint64_t length = 0;
    if (!reader.read_varint(length, "frame length")) return reader.error();
    if (length > reader.remaining()) {
      return DecodeError{DecodeStatus::kLimitExceeded, frame_start,
                         "frame length"};
    }
    if (type != format.header && !have_header) {
      return DecodeError{DecodeStatus::kBadFrame, frame_start, "frame order"};
    }
    if (type == format.header && have_header) {
      return DecodeError{DecodeStatus::kBadFrame, frame_start,
                         "duplicate header"};
    }
    if (type == 0 || type > format.end) {
      return DecodeError{DecodeStatus::kBadFrame, frame_start, "frame type"};
    }
    const std::size_t payload_start = reader.pos();
    Frame frame{type, frame_start,
                ByteReader(reader.cursor(), static_cast<std::size_t>(length))};
    reader.skip(static_cast<std::size_t>(length));
    const bool accepted = on_frame(frame);
    if (accepted && frame.payload.at_end()) {
      have_header = true;
      have_end = type == format.end;
      continue;
    }
    if (frame.rejection.status != DecodeStatus::kOk) return frame.rejection;
    if (accepted) {
      (void)frame.payload.fail(DecodeStatus::kTrailingBytes, "frame payload");
    }
    const DecodeError& error = frame.payload.error();
    return DecodeError{error.status, payload_start + error.offset,
                       error.field};
  }
  if (!have_header) {
    return DecodeError{DecodeStatus::kBadFrame, reader.pos(), "missing header"};
  }
  if (!have_end) {
    return DecodeError{DecodeStatus::kTruncated, reader.pos(),
                       "missing end frame"};
  }
  return std::nullopt;
}

void put_bitmap(std::vector<std::uint8_t>& out, const ProcSet& set) {
  const std::size_t base = out.size();
  out.resize(base + bitmap_bytes(set.universe()), 0);
  for (ProcId p : set) {
    out[base + static_cast<std::size_t>(p) / 8] |=
        static_cast<std::uint8_t>(1u << (static_cast<unsigned>(p) % 8));
  }
}

bool read_bitmap(ByteReader& reader, ProcId n, ProcSet& out,
                 const char* field) {
  const std::size_t bytes = bitmap_bytes(n);
  // Expressed against remaining(): a `pos + bytes` sum can wrap for
  // the huge n a hostile header smuggles in.
  if (!reader.require_bytes(bytes, field)) return false;
  const std::uint8_t* data = reader.cursor();
  const unsigned tail_bits = static_cast<unsigned>(n) % 8;
  if (tail_bits != 0 &&
      (data[bytes - 1] & static_cast<std::uint8_t>(0xffu << tail_bits))) {
    return reader.fail(DecodeStatus::kValueOutOfRange, field);
  }
  out = ProcSet(n);
  for (ProcId p = 0; p < n; ++p) {
    if (data[static_cast<std::size_t>(p) / 8] &
        (1u << (static_cast<unsigned>(p) % 8))) {
      out.insert(p);
    }
  }
  reader.skip(bytes);
  return true;
}

void put_string(std::vector<std::uint8_t>& out, std::string_view s) {
  put_varint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

bool read_string(ByteReader& reader, std::uint64_t max, std::string& out,
                 const char* field) {
  std::uint64_t size = 0;
  if (!reader.read_varint_max(size, max, field)) return false;
  if (!reader.require_bytes(static_cast<std::size_t>(size), field)) {
    return false;
  }
  out.assign(reinterpret_cast<const char*>(reader.cursor()),
             static_cast<std::size_t>(size));
  reader.skip(static_cast<std::size_t>(size));
  return true;
}

}  // namespace sskel
