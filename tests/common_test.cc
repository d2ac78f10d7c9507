// Tests for string utilities, hashing, RNG and the thread pool.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace tegra {
namespace {

// ---- string_util --------------------------------------------------------

TEST(SplitOnAnyTest, Basic) {
  EXPECT_EQ(SplitOnAny("a b c", " "),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitOnAnyTest, CollapsesConsecutiveDelimiters) {
  EXPECT_EQ(SplitOnAny("a,,b, ,c", ", "),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitOnAnyTest, LeadingTrailingDelimiters) {
  EXPECT_EQ(SplitOnAny("  a b  ", " "),
            (std::vector<std::string>{"a", "b"}));
}

TEST(SplitOnAnyTest, EmptyInput) {
  EXPECT_TRUE(SplitOnAny("", " ").empty());
  EXPECT_TRUE(SplitOnAny("   ", " ").empty());
}

TEST(SplitExactTest, KeepsEmptyPieces) {
  EXPECT_EQ(SplitExact("a::b", ":"),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(SplitExact("", ":"), (std::vector<std::string>{""}));
}

TEST(JoinTest, SkipsEmptyParts) {
  EXPECT_EQ(Join({"a", "", "b"}), "a b");
  EXPECT_EQ(Join({"", "", ""}), "");
  EXPECT_EQ(JoinRange({"a", "b", "c", "d"}, 1, 3), "b c");
}

TEST(JoinRangeTest, OutOfBoundsEndIsClamped) {
  EXPECT_EQ(JoinRange({"a", "b"}, 0, 99), "a b");
}

TEST(TrimTest, Basic) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(TrimView("abc"), "abc");
}

TEST(CaseAndAffixTest, Basic) {
  EXPECT_EQ(ToLower("New YORK"), "new york");
  EXPECT_TRUE(StartsWith("http://x", "http://"));
  EXPECT_FALSE(StartsWith("x", "http://"));
  EXPECT_TRUE(EndsWith("file.idx", ".idx"));
  EXPECT_FALSE(EndsWith("x", ".idx"));
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(0.666666), "0.67");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
  EXPECT_EQ(FormatDouble(2.5, 3), "2.500");
}

TEST(PadRightTest, PadsAndTruncates) {
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadRight("abcdef", 3), "abc");
}

// ---- hash ----------------------------------------------------------------

TEST(HashTest, Fnv1aIsDeterministicAndDiscriminating) {
  EXPECT_EQ(Fnv1a64("toronto"), Fnv1a64("toronto"));
  EXPECT_NE(Fnv1a64("toronto"), Fnv1a64("torontO"));
  // Known FNV-1a property: empty string hashes to the offset basis.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
}

// ---- random ---------------------------------------------------------------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(11);
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.Uniform(4)];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(ZipfSamplerTest, HeadIsMorePopularThanTail) {
  ZipfSampler zipf(100, 1.0);
  Rng rng(3);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[0], counts[50] * 5);
  EXPECT_GT(counts[0], 0);
}

TEST(ZipfSamplerTest, SingleItem) {
  ZipfSampler zipf(1, 1.0);
  Rng rng(3);
  EXPECT_EQ(zipf.Sample(&rng), 0u);
}

// ---- thread pool -----------------------------------------------------------

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.Submit([] { return 7 * 6; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(ThreadPoolTest, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  auto f = pool.Submit([] { return 1; });
  EXPECT_EQ(f.get(), 1);
}

TEST(ThreadPoolTest, ManyTasksDrainOnDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 200; ++i) {
      futures.push_back(pool.Submit([&count] { count.fetch_add(1); }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, TrySubmitRunsBeforeShutdown) {
  ThreadPool pool(2);
  auto maybe = pool.TrySubmit([] { return 5; });
  ASSERT_TRUE(maybe.has_value());
  EXPECT_EQ(maybe->get(), 5);
}

TEST(ThreadPoolTest, TrySubmitFailsFastAfterBeginShutdown) {
  ThreadPool pool(2);
  pool.BeginShutdown();
  EXPECT_FALSE(pool.TrySubmit([] { return 1; }).has_value());
  // Idempotent: a second BeginShutdown (and the destructor's) is harmless.
  pool.BeginShutdown();
  EXPECT_FALSE(pool.TrySubmit([] { return 2; }).has_value());
}

// Regression for enqueueing into a dying pool: submitter threads hammer
// TrySubmit while the main thread begins shutdown. Every accepted task must
// run exactly once; everything after the shutdown point must be refused
// (rather than rotting in a queue no worker will drain).
TEST(ThreadPoolTest, TrySubmitVersusShutdownRaceLosesNoAcceptedTask) {
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(3);
    std::atomic<int> executed{0};
    std::atomic<int> accepted{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          auto maybe = pool.TrySubmit([&executed] { executed.fetch_add(1); });
          if (maybe.has_value()) {
            accepted.fetch_add(1);
          } else {
            return;  // Shutdown observed; further submits would also fail.
          }
        }
      });
    }
    // Let the submitters race for a moment, then tear the pool down under
    // them. BeginShutdown makes every later TrySubmit fail fast.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    pool.BeginShutdown();
    stop.store(true);
    for (auto& s : submitters) s.join();
    // After BeginShutdown every TrySubmit must be refused.
    EXPECT_FALSE(pool.TrySubmit([] {}).has_value());
    // Destruction drains the queue: all accepted tasks ran, none were lost.
    // (The pool is destroyed at scope end; check afterwards via a fresh
    // scope.)
    const int accepted_count = accepted.load();
    while (executed.load() < accepted_count) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    EXPECT_EQ(executed.load(), accepted_count);
  }
}


// ---- file_util: AtomicWriteFile durability contract ---------------------

std::string FileUtilTempDir() {
  const std::string dir = ::testing::TempDir() + "common_test_fileutil_" +
                          std::to_string(::getpid());
  EXPECT_TRUE(EnsureDirectory(dir).ok());
  return dir;
}

/// Installs a fault-injection/observation hook for the scope of one test;
/// always restored on destruction so failures cannot leak into later tests.
class ScopedFileOpHook {
 public:
  explicit ScopedFileOpHook(std::function<int(const FileOpEvent&)> hook) {
    SetFileOpHookForTest(std::move(hook));
  }
  ~ScopedFileOpHook() { SetFileOpHookForTest(nullptr); }
};

TEST(AtomicWriteFileTest, SyscallOrderIsFsyncFileRenameFsyncDir) {
  const std::string dir = FileUtilTempDir();
  const std::string path = dir + "/order.bin";
  std::vector<FileOpEvent> events;
  ScopedFileOpHook hook([&](const FileOpEvent& e) {
    events.push_back(e);
    return 0;
  });
  ASSERT_TRUE(AtomicWriteFile(path, "payload").ok());
  // The durability contract, in order: temp-file fsync (data safe), rename
  // (publication), parent-dir fsync (the *name* is safe).
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, FileOpEvent::kFsyncFile);
  EXPECT_EQ(events[0].path, path + ".tmp");
  EXPECT_EQ(events[1].kind, FileOpEvent::kRename);
  EXPECT_EQ(events[1].path, path);
  EXPECT_EQ(events[2].kind, FileOpEvent::kFsyncDir);
  EXPECT_EQ(events[2].path, dir);
  auto readback = ReadFileToString(path);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback.value(), "payload");
}

TEST(AtomicWriteFileTest, TempFsyncFailureLeavesPublishedPathUntouched) {
  const std::string dir = FileUtilTempDir();
  const std::string path = dir + "/fsync_fail.bin";
  ASSERT_TRUE(AtomicWriteFile(path, "old content").ok());
  ScopedFileOpHook hook([&](const FileOpEvent& e) {
    return e.kind == FileOpEvent::kFsyncFile ? EIO : 0;
  });
  const Status failed = AtomicWriteFile(path, "new content");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIOError);
  // Old content intact, temp file cleaned up.
  auto readback = ReadFileToString(path);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback.value(), "old content");
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
}

TEST(AtomicWriteFileTest, RenameFailureLeavesPublishedPathUntouched) {
  const std::string dir = FileUtilTempDir();
  const std::string path = dir + "/rename_fail.bin";
  ASSERT_TRUE(AtomicWriteFile(path, "old content").ok());
  ScopedFileOpHook hook([&](const FileOpEvent& e) {
    return e.kind == FileOpEvent::kRename ? EIO : 0;
  });
  ASSERT_FALSE(AtomicWriteFile(path, "new content").ok());
  auto readback = ReadFileToString(path);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback.value(), "old content");
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
}

TEST(AtomicWriteFileTest, DirFsyncFailureIsReportedButContentIsPublished) {
  const std::string dir = FileUtilTempDir();
  const std::string path = dir + "/dirsync_fail.bin";
  ScopedFileOpHook hook([&](const FileOpEvent& e) {
    return e.kind == FileOpEvent::kFsyncDir ? EIO : 0;
  });
  const Status failed = AtomicWriteFile(path, "content");
  // The rename already happened: content is visible, but the caller must
  // hear that its durability window is open.
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.ToString().find(dir), std::string::npos);
  auto readback = ReadFileToString(path);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback.value(), "content");
}

TEST(AtomicWriteFileTest, DirFsyncEinvalAndEnotsupAreTolerated) {
  const std::string dir = FileUtilTempDir();
  for (const int benign : {EINVAL, ENOTSUP}) {
    const std::string path =
        dir + "/benign_" + std::to_string(benign) + ".bin";
    ScopedFileOpHook hook([&](const FileOpEvent& e) {
      return e.kind == FileOpEvent::kFsyncDir ? benign : 0;
    });
    EXPECT_TRUE(AtomicWriteFile(path, "content").ok());
  }
}

TEST(EnsureDirectoryTest, CreatesNestedAndIsIdempotent) {
  const std::string root = FileUtilTempDir();
  const std::string nested = root + "/a/b/c";
  ASSERT_TRUE(EnsureDirectory(nested).ok());
  EXPECT_TRUE(IsDirectory(nested));
  EXPECT_TRUE(EnsureDirectory(nested).ok());
  // A file in the way is an error, not a silent success.
  const std::string file_path = root + "/a/b/c/file";
  ASSERT_TRUE(AtomicWriteFile(file_path, "x").ok());
  EXPECT_FALSE(EnsureDirectory(file_path).ok());
}

TEST(RemoveFileTest, RemovesAndToleratesMissing) {
  const std::string dir = FileUtilTempDir();
  const std::string path = dir + "/victim";
  ASSERT_TRUE(AtomicWriteFile(path, "x").ok());
  EXPECT_TRUE(RemoveFile(path).ok());
  EXPECT_FALSE(ReadFileToString(path).ok());
  EXPECT_TRUE(RemoveFile(path).ok());  // ENOENT is not an error.
}

}  // namespace
}  // namespace tegra
