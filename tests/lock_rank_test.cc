// Tests for the runtime lock-rank deadlock detector (src/analysis/lock_rank)
// and the annotated Mutex/CondVar wrappers that feed it, plus the condvar
// stress regressions from the PR 9 audit (docs/ANALYSIS.md, "Concurrency
// analysis"). The detector is compiled out in plain Release builds; every
// detector test skips itself there (CI's release job instead checks via `nm`
// that no lockrank symbol survives).

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/lock_rank.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

#if defined(__SANITIZE_THREAD__)
#define SIMDB_TEST_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SIMDB_TEST_UNDER_TSAN 1
#endif
#endif

#ifdef SIMDB_TEST_UNDER_TSAN
// LockRank.SeededInversionAcrossTwoThreadsReportsBothCycles takes two
// mutexes in both orders on purpose, so that the rank detector has an
// inversion to report. ThreadSanitizer's own lock-order detector reports the
// same inversion, and with halt_on_error=1 that fails the binary. Suppress
// TSan's deadlock reports for frames of that one case only; the rank
// detector's assertions still run, here and in every other build.
extern "C" const char* __tsan_default_suppressions() {
  return "deadlock:"
         "LockRank_SeededInversionAcrossTwoThreadsReportsBothCycles_Test\n";
}
#endif

namespace simdb {
namespace {

#if SIMDB_LOCK_RANK_CHECKS

// Captures violation reports instead of aborting. Installed/restored per
// test via RAII so an assertion failure cannot leak the capture handler into
// later tests.
std::string* g_last_report = nullptr;

void CaptureHandler(const lockrank::Violation& v) {
  if (g_last_report != nullptr) *g_last_report = v.message;
}

class HandlerCapture {
 public:
  explicit HandlerCapture(std::string* sink) {
    g_last_report = sink;
    previous_ = lockrank::SetHandlerForTest(&CaptureHandler);
  }
  ~HandlerCapture() {
    lockrank::SetHandlerForTest(previous_);
    g_last_report = nullptr;
  }

 private:
  lockrank::Handler previous_;
};

TEST(LockRank, CleanAscendingAcquisitionReportsNothing) {
  const uint64_t before = lockrank::violation_count();
  Mutex outer(lockrank::Rank::kScheduler, "test.outer");
  Mutex inner(lockrank::Rank::kThreadPool, "test.inner");
  {
    MutexLock hold_outer(outer);
    MutexLock hold_inner(inner);
    std::vector<lockrank::HeldLock> held = lockrank::CurrentThreadHeld();
    ASSERT_EQ(held.size(), 2u);
    EXPECT_STREQ(held[0].name, "test.outer");
    EXPECT_STREQ(held[1].name, "test.inner");
  }
  EXPECT_TRUE(lockrank::CurrentThreadHeld().empty());
  EXPECT_EQ(lockrank::violation_count(), before);
}

// The seeded inversion from the ISSUE: thread 1 establishes the A -> B
// ordering; thread 2 acquires B -> A. The report must carry both cycle
// edges — the acquiring thread's held stack AND the stack under which the
// conflicting mutex was last acquired.
TEST(LockRank, SeededInversionAcrossTwoThreadsReportsBothCycles) {
  std::string report;
  HandlerCapture capture(&report);
  const uint64_t before = lockrank::violation_count();

  Mutex a(lockrank::Rank::kScheduler, "test.rankA");
  Mutex b(lockrank::Rank::kThreadPool, "test.rankB");

  // Thread 1: the legal A -> B nesting (records B's acquire-while-holding-A
  // edge in the detector's per-mutex records).
  std::thread legal([&] {
    MutexLock hold_a(a);
    MutexLock hold_b(b);
  });
  legal.join();

  // Thread 2: the inverted B -> A nesting. The detector reports on the
  // acquire of A (before any blocking could deadlock).
  std::thread inverted([&] {
    MutexLock hold_b(b);
    MutexLock hold_a(a);  // rank 400 while holding rank 500: violation
  });
  inverted.join();

  EXPECT_EQ(lockrank::violation_count(), before + 1);
  ASSERT_FALSE(report.empty());
  // This thread's edge: acquiring A while holding B.
  EXPECT_NE(report.find("rank inversion"), std::string::npos) << report;
  EXPECT_NE(report.find("test.rankA"), std::string::npos) << report;
  EXPECT_NE(report.find("while holding rank 500  test.rankB"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("this thread's held stack"), std::string::npos)
      << report;
  // The opposing edge from thread 1: B was last acquired while holding A.
  EXPECT_NE(report.find("opposing cycle edge"), std::string::npos) << report;
  EXPECT_NE(report.find("test.rankB was last acquired while holding"),
            std::string::npos)
      << report;
}

TEST(LockRank, RecursiveAcquisitionOfSameMutexReported) {
  std::string report;
  HandlerCapture capture(&report);
  const uint64_t before = lockrank::violation_count();

  Mutex m(lockrank::Rank::kLeaf, "test.recursive");
  m.Lock();
  // A second Lock() of a non-recursive mutex would self-deadlock; drive the
  // detector hook directly so the test stays deadlock-free while exercising
  // the same-mutex check.
  lockrank::OnAcquire(static_cast<int>(lockrank::Rank::kLeaf),
                      "test.recursive", &m);
  lockrank::OnRelease(&m);
  m.Unlock();

  EXPECT_EQ(lockrank::violation_count(), before + 1);
  EXPECT_NE(report.find("test.recursive"), std::string::npos) << report;
}

TEST(LockRank, EqualRankAcquisitionReported) {
  std::string report;
  HandlerCapture capture(&report);
  const uint64_t before = lockrank::violation_count();

  // Two distinct mutexes of the same rank: ordering between them is
  // undefined, so the strict-ascent rule must flag the nesting.
  Mutex first(lockrank::Rank::kTransport, "test.equal1");
  Mutex second(lockrank::Rank::kTransport, "test.equal2");
  {
    MutexLock hold_first(first);
    MutexLock hold_second(second);
  }
  EXPECT_EQ(lockrank::violation_count(), before + 1);
  EXPECT_NE(report.find("test.equal2"), std::string::npos) << report;
}

// CondVar::Wait must pop the mutex's rank entry for the blocked interval
// (the lock is genuinely released) and re-push it on wakeup, leaving the
// held stack balanced and report-free.
TEST(LockRank, CondVarWaitKeepsHeldStackBalanced) {
  const uint64_t before = lockrank::violation_count();
  Mutex m(lockrank::Rank::kPoolBatch, "test.cv_mutex");
  CondVar cv;

  MutexLock lock(m);
  bool woke = cv.WaitFor(lock, std::chrono::milliseconds(5));
  EXPECT_FALSE(woke);  // nothing notifies; the timeout path re-locks
  std::vector<lockrank::HeldLock> held = lockrank::CurrentThreadHeld();
  ASSERT_EQ(held.size(), 1u);
  EXPECT_STREQ(held[0].name, "test.cv_mutex");
  EXPECT_EQ(lockrank::violation_count(), before);
}

TEST(LockRank, TryLockRecordsRankOnlyOnSuccess) {
  const uint64_t before = lockrank::violation_count();
  Mutex m(lockrank::Rank::kTransport, "test.trylock");

  ASSERT_TRUE(m.TryLock());
  ASSERT_EQ(lockrank::CurrentThreadHeld().size(), 1u);

  std::thread contender([&] {
    EXPECT_FALSE(m.TryLock());
    // The failed TryLock must not leave a phantom entry on this thread.
    EXPECT_TRUE(lockrank::CurrentThreadHeld().empty());
  });
  contender.join();

  m.Unlock();
  EXPECT_TRUE(lockrank::CurrentThreadHeld().empty());
  EXPECT_EQ(lockrank::violation_count(), before);
}

#else  // !SIMDB_LOCK_RANK_CHECKS

TEST(LockRank, CompiledOutInRelease) {
  GTEST_SKIP() << "lock-rank checks are compiled out in this build; the "
                  "release CI job verifies via nm that no detector symbol "
                  "is referenced";
}

#endif  // SIMDB_LOCK_RANK_CHECKS

// Condvar-audit stress regressions (satellite 2). The audit kept
// ThreadPool's Submit -> NotifyOne (homogeneous waiters) and the per-batch
// completion CondVar; these tests are the interleavings that would hang
// within seconds if either choice were wrong — concurrent RunAll batches,
// Submit storms, and RunAll re-entered from inside a pool task. Run with
// the TSan job for the full effect; under the default build the lock-rank
// detector still checks every acquisition.
TEST(ThreadPoolStress, ConcurrentRunAllBatchesDoNotStrandEachOther) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr int kTasksPerBatch = 32;
  std::atomic<int> executed{0};

  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &executed] {
      for (int round = 0; round < 8; ++round) {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(kTasksPerBatch);
        for (int t = 0; t < kTasksPerBatch; ++t) {
          tasks.push_back([&executed] {
            executed.fetch_add(1, std::memory_order_relaxed);
          });
        }
        pool.RunAll(std::move(tasks));
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(executed.load(), kCallers * 8 * kTasksPerBatch);
}

TEST(ThreadPoolStress, SubmitFromInsideTasksAndRunAllFromWorker) {
  // Declared before the pool, so they outlive its workers: the last spawn
  // may still be running after `executed` reaches its target, and the
  // pool's destructor joins the workers first.
  std::atomic<int> executed{0};
  std::atomic<int> resubmitted{0};
  std::function<void(int)> spawn;
  ThreadPool pool(3);

  // Every task re-submits a child until the budget is spent; one batch task
  // also calls RunAll from a worker thread (the inline-execution path).
  std::vector<std::function<void()>> tasks;
  spawn = [&](int depth) {
    executed.fetch_add(1, std::memory_order_relaxed);
    if (depth > 0) {
      resubmitted.fetch_add(1, std::memory_order_relaxed);
      pool.Submit([&spawn, depth] { spawn(depth - 1); });
    }
  };
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([&spawn] { spawn(4); });
  }
  tasks.push_back([&pool, &executed] {
    std::vector<std::function<void()>> inner;
    for (int i = 0; i < 8; ++i) {
      inner.push_back([&executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.RunAll(std::move(inner));  // must run inline, not self-deadlock
  });
  pool.RunAll(std::move(tasks));

  // RunAll only waits for its own batch; submitted children drain on pool
  // shutdown at the latest. Poll until the counters settle.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (executed.load() < 16 * 5 + 8 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(executed.load(), 16 * 5 + 8);
  EXPECT_EQ(resubmitted.load(), 16 * 4);
}

}  // namespace
}  // namespace simdb
