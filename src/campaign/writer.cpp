#include "campaign/writer.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <utility>

#include "util/assert.hpp"

namespace sskel {

namespace {

[[nodiscard]] std::optional<CampaignCheckpoint> load_file(
    const std::filesystem::path& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  DecodeResult<CampaignCheckpoint> decoded = decode_checkpoint(bytes);
  if (!decoded.ok()) return std::nullopt;
  return std::move(decoded.value());
}

[[nodiscard]] std::int64_t folded_total(const CampaignCheckpoint& c) {
  std::int64_t total = 0;
  for (const JobCheckpoint& job : c.jobs) total += job.trials_folded;
  return total;
}

}  // namespace

CheckpointWriter::CheckpointWriter(std::filesystem::path state_dir)
    : state_dir_(std::move(state_dir)) {
  std::filesystem::create_directories(state_dir_);
  thread_ = std::jthread(
      [this](const std::stop_token& stop) { writer_main(stop); });
}

CheckpointWriter::~CheckpointWriter() {
  thread_.request_stop();
  cv_.notify_all();
  thread_.join();
  // The writer loop drains the pending snapshot before honoring the
  // stop, so nothing offered is ever lost on destruction.
}

void CheckpointWriter::offer(CampaignCheckpoint snapshot) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.has_value()) ++coalesced_;
    pending_ = std::move(snapshot);
  }
  cv_.notify_all();
}

void CheckpointWriter::flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return !pending_.has_value() && !writing_; });
}

std::int64_t CheckpointWriter::checkpoints_written() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return written_;
}

std::int64_t CheckpointWriter::checkpoints_coalesced() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return coalesced_;
}

std::int64_t CheckpointWriter::bytes_written() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

void CheckpointWriter::writer_main(const std::stop_token& stop) {
  while (true) {
    std::optional<CampaignCheckpoint> snapshot;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, stop,
               [this] { return pending_.has_value(); });
      if (!pending_.has_value()) {
        // Stop requested with nothing pending: done.
        if (stop.stop_requested()) return;
        continue;  // spurious wake
      }
      snapshot = std::move(pending_);
      pending_.reset();
      writing_ = true;
    }
    write_one(*snapshot);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      writing_ = false;
    }
    cv_.notify_all();  // flush() waiters
  }
}

void CheckpointWriter::write_one(const CampaignCheckpoint& snapshot) {
  const std::vector<std::uint8_t> bytes = encode_checkpoint(snapshot);
  const std::filesystem::path target =
      state_dir_ / (next_file_ == 0 ? kFileA : kFileB);
  const std::filesystem::path tmp = state_dir_ / "ckpt.tmp";
  // The data must be on disk before the rename that publishes it, and
  // the rename before the next checkpoint recycles the other file.
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  SSKEL_REQUIRE(fd >= 0);
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    SSKEL_REQUIRE(n > 0);
    done += static_cast<std::size_t>(n);
  }
  SSKEL_REQUIRE(::fsync(fd) == 0);
  SSKEL_REQUIRE(::close(fd) == 0);
  std::error_code ec;
  std::filesystem::rename(tmp, target, ec);
  SSKEL_REQUIRE(!ec);
  const int dir = ::open(state_dir_.c_str(), O_RDONLY | O_DIRECTORY);
  SSKEL_REQUIRE(dir >= 0);
  SSKEL_REQUIRE(::fsync(dir) == 0);
  SSKEL_REQUIRE(::close(dir) == 0);
  next_file_ ^= 1;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++written_;
    bytes_ += static_cast<std::int64_t>(bytes.size());
  }
}

std::optional<CampaignCheckpoint> CheckpointWriter::load_latest(
    const std::filesystem::path& state_dir,
    std::optional<std::uint64_t> expected_fingerprint) {
  std::optional<CampaignCheckpoint> a = load_file(state_dir / kFileA);
  std::optional<CampaignCheckpoint> b = load_file(state_dir / kFileB);
  if (expected_fingerprint.has_value()) {
    const bool a_matches =
        a.has_value() && a->spec_fingerprint == *expected_fingerprint;
    const bool b_matches =
        b.has_value() && b->spec_fingerprint == *expected_fingerprint;
    if (a_matches != b_matches) return a_matches ? a : b;
  }
  if (!a.has_value()) return b;
  if (!b.has_value()) return a;
  return folded_total(*a) >= folded_total(*b) ? a : b;
}

}  // namespace sskel
