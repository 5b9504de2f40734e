// Double-buffered, off-hot-path checkpoint persistence.
//
// The campaign dispatcher must never wait on the filesystem: at a
// checkpoint boundary it snapshots the folded state (a McSummary copy
// per job — microseconds) and hands the snapshot to this writer; the
// encode and file I/O happen on the writer's own thread. A snapshot
// offered while the previous one is still being written *replaces*
// the pending one (coalescing): checkpoints are idempotent prefixes,
// so only the freshest matters.
//
// Durability is torn-write-proof twice over:
//   * each write goes to a temp file that is fsync'd, atomically
//     renamed into place, and made durable by an fsync of the
//     directory — a crash or power loss mid-write leaves the target
//     untouched, and a rename can never reach disk before its data;
//   * writes alternate between two targets (ckpt.a.sskc /
//     ckpt.b.sskc), so even a corrupted rename leaves the previous
//     generation intact. load_latest decodes both and returns the one
//     with the most folded trials, ignoring anything undecodable.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "campaign/checkpoint.hpp"

namespace sskel {

class CheckpointWriter {
 public:
  /// Creates `state_dir` if missing and starts the writer thread.
  explicit CheckpointWriter(std::filesystem::path state_dir);
  /// Flushes the pending snapshot (if any) and joins.
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Hands a snapshot to the writer thread. Never blocks on I/O: the
  /// only cost to the caller is moving the snapshot under a mutex. A
  /// pending unwritten snapshot is replaced (counted as coalesced).
  void offer(CampaignCheckpoint snapshot);

  /// Blocks until every offered snapshot has reached a file. The
  /// engine calls this once, at the end of a run (and tests use it to
  /// observe deterministic file states).
  void flush();

  [[nodiscard]] std::int64_t checkpoints_written() const;
  [[nodiscard]] std::int64_t checkpoints_coalesced() const;
  [[nodiscard]] std::int64_t bytes_written() const;

  /// Reads both checkpoint generations from `state_dir` and returns
  /// the decodable one with the most folded trials (nullopt when
  /// neither exists or decodes). Corrupt or torn files are skipped,
  /// never fatal — that is the double buffer's contract. When
  /// `expected_fingerprint` is given and exactly one generation
  /// matches it, that one wins regardless of folded counts, so a
  /// stale file from a previous spec sharing the state dir cannot
  /// shadow the matching checkpoint; with no match the plain
  /// newest-wins rule applies, letting callers observe (and refuse)
  /// a genuine spec mismatch.
  [[nodiscard]] static std::optional<CampaignCheckpoint> load_latest(
      const std::filesystem::path& state_dir,
      std::optional<std::uint64_t> expected_fingerprint = std::nullopt);

  static constexpr const char* kFileA = "ckpt.a.sskc";
  static constexpr const char* kFileB = "ckpt.b.sskc";

 private:
  void writer_main(const std::stop_token& stop);
  void write_one(const CampaignCheckpoint& snapshot);

  std::filesystem::path state_dir_;
  mutable std::mutex mutex_;
  std::condition_variable_any cv_;
  std::optional<CampaignCheckpoint> pending_;
  bool writing_ = false;
  int next_file_ = 0;  // alternates 0 (a) / 1 (b)
  std::int64_t written_ = 0;
  std::int64_t coalesced_ = 0;
  std::int64_t bytes_ = 0;
  std::jthread thread_;  // last: joins before state dies
};

}  // namespace sskel
