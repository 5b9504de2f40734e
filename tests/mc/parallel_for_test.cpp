// Tests for the parallel fan-out helper.
#include "mc/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace sskel {
namespace {

/// Sets SSKEL_THREADS for the test's lifetime and restores the prior
/// value (or unsets) on destruction.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    const char* prev = std::getenv("SSKEL_THREADS");
    if (prev != nullptr) saved_ = prev;
    had_prev_ = prev != nullptr;
    ::setenv("SSKEL_THREADS", value, 1);
  }
  ~ScopedThreadsEnv() {
    if (had_prev_) {
      ::setenv("SSKEL_THREADS", saved_.c_str(), 1);
    } else {
      ::unsetenv("SSKEL_THREADS");
    }
  }

 private:
  bool had_prev_ = false;
  std::string saved_;
};

TEST(ParallelForTest, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for(100, [&](std::size_t i) { ++hits[i]; }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  // threads = 3 means the caller plus at most two helpers.
  std::mutex mu;
  std::set<std::thread::id> ids;
  parallel_for(
      64,
      [&](std::size_t) {
        const std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
      },
      3);
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 3u);
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; }, 4);
}

TEST(ParallelForTest, SingleThreadFallback) {
  std::vector<int> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
               1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));  // inline, in order

  // One index never spawns a helper, whatever the thread request:
  // bench_mc's pool baseline runs single-trial batches on this path.
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  parallel_for(
      1,
      [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++calls;
      },
      8);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, ThreadsFromEnvValueParsesAndClamps) {
  // parallel_for resolves its thread count through resolve_tile_count;
  // with no explicit request, SSKEL_THREADS is parsed by
  // tiles_from_env_value(0, value, hardware).
  // In range: taken as-is.
  EXPECT_EQ(tiles_from_env_value(0, "4", 16), 4u);
  EXPECT_EQ(tiles_from_env_value(0, "1", 16), 1u);
  EXPECT_EQ(tiles_from_env_value(0, "16", 16), 16u);
  // Above hardware: clamped down.
  EXPECT_EQ(tiles_from_env_value(0, "64", 8), 8u);
  // Trailing whitespace is fine; trailing garbage is not.
  EXPECT_EQ(tiles_from_env_value(0, "4 ", 16), 4u);
  EXPECT_EQ(tiles_from_env_value(0, "4x", 16), 16u);
  // Unset, empty, zero, negative, junk: fall back to hardware.
  EXPECT_EQ(tiles_from_env_value(0, nullptr, 12), 12u);
  EXPECT_EQ(tiles_from_env_value(0, "", 12), 12u);
  EXPECT_EQ(tiles_from_env_value(0, "0", 12), 12u);
  EXPECT_EQ(tiles_from_env_value(0, "-3", 12), 12u);
  EXPECT_EQ(tiles_from_env_value(0, "lots", 12), 12u);
  // A zero hardware report (the standard allows it) still yields >= 1.
  EXPECT_EQ(tiles_from_env_value(0, "4", 0), 1u);
}

TEST(ParallelForTest, ResolveThreadCount) {
  ScopedThreadsEnv env("");  // empty counts as unset
  EXPECT_EQ(resolve_tile_count(3), 3u);
  EXPECT_GE(resolve_tile_count(0), 1u);
}

TEST(ParallelForTest, EnvVariableCapsResolvedThreads) {
  ScopedThreadsEnv env("1");
  EXPECT_EQ(resolve_tile_count(0), 1u);
  // SSKEL_THREADS caps explicit requests too.
  EXPECT_EQ(resolve_tile_count(5), 1u);
}

TEST(ParallelForTest, EnvSingleThreadRunsInlineIncludingNested) {
  // SSKEL_THREADS=1 must force the inline path: indices execute in
  // order on the calling thread, nested calls included.
  ScopedThreadsEnv env("1");
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  parallel_for(3, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    parallel_for(2, [&](std::size_t j) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(static_cast<int>(i * 2 + j));
    });
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ParallelForTest, MoveOnlyCallableUsesTemplatedOverload) {
  // A move-only lambda cannot form a std::function; the template
  // takes it by reference.
  std::atomic<int> hits{0};
  auto token = std::make_unique<int>(7);
  auto fn = [&hits, t = std::move(token)](std::size_t) { hits += *t; };
  parallel_for(32, fn, 4);
  EXPECT_EQ(hits.load(), 32 * 7);
}

TEST(ParallelForTest, NestedCallsComplete) {
  // A job body that itself calls parallel_for spawns and joins its own
  // helpers; every nested index still runs exactly once.
  std::atomic<int> hits{0};
  parallel_for(
      4,
      [&](std::size_t) {
        parallel_for(8, [&](std::size_t) { ++hits; }, 4);
      },
      4);
  EXPECT_EQ(hits.load(), 32);
}

TEST(ParallelForTest, StdFunctionOverloadStillWorks) {
  std::atomic<int> hits{0};
  const std::function<void(std::size_t)> fn = [&](std::size_t) { ++hits; };
  parallel_for(20, fn, 2);
  EXPECT_EQ(hits.load(), 20);
}

TEST(CollectParallelTest, ResultsIndexOrdered) {
  const std::vector<int> out = collect_parallel<int>(
      50, [](std::size_t i) { return static_cast<int>(i * i); }, 4);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(CollectParallelTest, DeterministicAcrossThreadCounts) {
  auto fn = [](std::size_t i) { return static_cast<int>(7 * i + 1); };
  const auto a = collect_parallel<int>(64, fn, 1);
  const auto b = collect_parallel<int>(64, fn, 8);
  EXPECT_EQ(a, b);
}

TEST(CollectParallelTest, StdFunctionOverloadStillWorks) {
  const std::function<int(std::size_t)> fn = [](std::size_t i) {
    return static_cast<int>(i) + 1;
  };
  const auto out = collect_parallel<int>(10, fn, 2);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) + 1);
  }
}

}  // namespace
}  // namespace sskel
