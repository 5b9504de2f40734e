#include "spans.hpp"

#include <cstdio>
#include <cstring>

namespace skbench {

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kTrial: return "trial";
    case SpanName::kTrialUntraced: return "trial.untraced";
    case SpanName::kTrack: return "track";
    case SpanName::kTrackUntraced: return "track.untraced";
    case SpanName::kGraphInto: return "adversary.graph_into";
    case SpanName::kRoundsStep: return "rounds.step";
    case SpanName::kNetStep: return "net.step";
    case SpanName::kSendInto: return "kset.send_into";
    case SpanName::kTransition: return "kset.transition";
    case SpanName::kObserve: return "skeleton.observe";
    case SpanName::kCurrentScc: return "graph.current_scc";
    case SpanName::kConstruct: return "skeleton.construct";
    case SpanName::kFold: return "mc.fold";
    case SpanName::kCkptEncode: return "campaign.ckpt_encode";
    case SpanName::kCkptDecode: return "campaign.ckpt_decode";
    case SpanName::kPsrcsExact: return "predicates.psrcs_exact";
    case SpanName::kCount: break;
  }
  return "?";
}

namespace {

void put_bytes(std::vector<unsigned char>& out, const void* data,
               std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  out.insert(out.end(), bytes, bytes + size);
}

/// Appends `value` little-endian, independent of host byte order.
template <typename T>
void put_le(std::vector<unsigned char>& out, T value) {
  auto bits = static_cast<std::uint64_t>(value);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<unsigned char>(bits & 0xFF));
    bits >>= 8;
  }
}

}  // namespace

bool SpanRecorder::write(const std::string& path) const {
  std::vector<unsigned char> out;
  out.reserve(64 + spans_.size() * 32);
  put_bytes(out, "SKSP", 4);
  const auto names = static_cast<std::uint32_t>(SpanName::kCount);
  put_le<std::uint32_t>(out, names);
  for (std::uint32_t i = 0; i < names; ++i) {
    const char* text = span_name(static_cast<SpanName>(i));
    const auto length = static_cast<std::uint16_t>(std::strlen(text));
    put_le<std::uint16_t>(out, length);
    put_bytes(out, text, length);
  }
  put_le<std::uint64_t>(out, spans_.size());
  for (const SpanRecord& span : spans_) {
    put_le<std::uint32_t>(out, span.name);
    put_le<std::int32_t>(out, span.parent);
    put_le<std::int64_t>(out, span.trial);
    put_le<std::int64_t>(out, span.start_ns);
    put_le<std::int64_t>(out, span.end_ns);
  }
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const bool written = std::fwrite(out.data(), 1, out.size(), file) == out.size();
  return std::fclose(file) == 0 && written;
}

}  // namespace skbench
