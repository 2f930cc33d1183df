//===- FileChangeWaitTest.cpp - The tuning service's queue wakeup ---------===//
//
// support::FileChangeWait is how coordinator and workers learn that
// queue.rlog changed: an inotify watch on the queue *directory*, filtered to
// events naming the log. These tests pin its contract on a real queue dir:
// it wakes promptly on another handle's append, keeps waking after a
// compaction renames a new log into place, ignores the other files of the
// directory, degrades to a plain timed wait where nothing can be watched,
// and keeps its deadline under an EINTR storm.
//
//===----------------------------------------------------------------------===//

#include "src/service/TaskQueue.h"
#include "src/support/Posix.h"
#include "src/support/Subprocess.h"
#include "tests/helpers/AlarmStorm.h"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>

namespace locus {
namespace {

using service::TaskQueue;
using service::TaskQueueOptions;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct QueueDirFixture {
  support::TempDir Dir{"locus-wake-"};
  TaskQueueOptions Opts = [this] {
    TaskQueueOptions O;
    O.Dir = Dir.path();
    O.Header = support::RunHeader{1, 2};
    return O;
  }();
  std::string LogPath = TaskQueue::queueFilePath(Dir.path());
};

struct WakeTiming {
  bool Woke = false;
  double AfterAppend = 0; ///< seconds from the append landing to the wake
  double Total = 0;       ///< seconds from the start of the wait
};

/// Waits on \p Wake in a second thread while this one appends a task
/// through \p Q 50 ms into the wait.
WakeTiming waitAcrossAnAppend(support::FileChangeWait &Wake, TaskQueue &Q,
                              uint64_t Id) {
  Clock::time_point T0 = Clock::now();
  Clock::time_point WokeAt;
  bool Woke = false;
  std::thread Waiter([&] {
    Woke = Wake.wait(5.0);
    WokeAt = Clock::now();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(Q.announceTask(Id, "a = i:8\n", Id).ok());
  Clock::time_point Landed = Clock::now();
  Waiter.join();
  return {Woke, std::chrono::duration<double>(WokeAt - Landed).count(),
          std::chrono::duration<double>(WokeAt - T0).count()};
}

TEST(FileChangeWait, WakesOnAnAppendThroughAnotherQueueHandle) {
  QueueDirFixture F;
  auto Q1 = TaskQueue::open(F.Opts);
  ASSERT_TRUE(Q1.ok()) << Q1.message();
  support::FileChangeWait Wake(F.LogPath);
  ASSERT_TRUE(Wake.watching());
  // Another process, as far as the file knows.
  auto Q2 = TaskQueue::open(F.Opts);
  ASSERT_TRUE(Q2.ok()) << Q2.message();
  (void)Wake.wait(0); // drop whatever opening the second handle reported

  WakeTiming T = waitAcrossAnAppend(Wake, *Q2, 1);
  EXPECT_TRUE(T.Woke);
  EXPECT_LT(T.AfterAppend, 0.2);
  EXPECT_LT(T.Total, 1.0);

  // The change was consumed: with nothing new the wait runs to its timeout.
  EXPECT_FALSE(Wake.wait(0.05));
}

TEST(FileChangeWait, StillWakesAfterCompactionRenamesANewLog) {
  QueueDirFixture F;
  auto Q1 = TaskQueue::open(F.Opts);
  ASSERT_TRUE(Q1.ok()) << Q1.message();
  ASSERT_TRUE(Q1->announceTask(1, "a = i:8\n", 1).ok());
  ASSERT_TRUE(Q1->announceShutdown().ok());
  auto Q2 = TaskQueue::open(F.Opts); // holds the pre-compaction inode
  ASSERT_TRUE(Q2.ok()) << Q2.message();
  support::FileChangeWait Wake(F.LogPath);
  ASSERT_TRUE(Wake.watching());

  // The rename itself is a change of the watched name.
  ASSERT_TRUE(Q1->compactDropShutdown().ok());
  EXPECT_TRUE(Wake.wait(5.0));
  (void)Wake.wait(0);

  // A watch on the old inode would now be deaf; the directory watch hears
  // the next append, which the second handle makes to the new file.
  WakeTiming T = waitAcrossAnAppend(Wake, *Q2, 2);
  EXPECT_TRUE(T.Woke);
  EXPECT_LT(T.AfterAppend, 0.2);
  EXPECT_LT(T.Total, 1.0);

  service::QueueState S;
  ASSERT_TRUE(Q2->poll(S).ok());
  EXPECT_NE(S.find(2), nullptr);
  EXPECT_FALSE(S.ShutdownSeen);
}

TEST(FileChangeWait, OtherFilesOfTheDirectoryDoNotWakeIt) {
  QueueDirFixture F;
  auto Q = TaskQueue::open(F.Opts);
  ASSERT_TRUE(Q.ok()) << Q.message();
  support::FileChangeWait Wake(F.LogPath);
  ASSERT_TRUE(Wake.watching());

  // A managed worker's log sits beside the queue and changes constantly.
  std::thread Chatter([&] {
    std::ofstream Log(F.Dir.path() + "/worker-0.log");
    for (int I = 0; I < 20; ++I) {
      Log << "line " << I << '\n' << std::flush;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  Clock::time_point T0 = Clock::now();
  bool Woke = Wake.wait(0.3);
  double Elapsed = secondsSince(T0);
  Chatter.join();
  EXPECT_FALSE(Woke);
  EXPECT_GE(Elapsed, 0.29);
  EXPECT_LT(Elapsed, 5.0);
}

TEST(FileChangeWait, FallsBackToATimedWaitWhereNothingCanBeWatched) {
  support::TempDir Dir("locus-wake-");
  support::FileChangeWait Wake(Dir.path() + "/no-such-dir/queue.rlog");
  EXPECT_FALSE(Wake.watching());
  Clock::time_point T0 = Clock::now();
  EXPECT_FALSE(Wake.wait(0.1));
  double Elapsed = secondsSince(T0);
  EXPECT_GE(Elapsed, 0.09);
  EXPECT_LT(Elapsed, 5.0);
}

TEST(FileChangeWait, KeepsItsDeadlineUnderASignalStorm) {
  QueueDirFixture F;
  auto Q = TaskQueue::open(F.Opts);
  ASSERT_TRUE(Q.ok()) << Q.message();
  support::FileChangeWait Wake(F.LogPath);
  ASSERT_TRUE(Wake.watching());
  test::AlarmStorm Storm;

  // Each poll(2) inside is interrupted every 2 ms; the wait neither ends
  // early nor runs long.
  Clock::time_point T0 = Clock::now();
  EXPECT_FALSE(Wake.wait(0.25));
  double Elapsed = secondsSince(T0);
  EXPECT_GE(Elapsed, 0.24);
  EXPECT_LT(Elapsed, 5.0);

  // And an append mid-storm still wakes it.
  WakeTiming T = waitAcrossAnAppend(Wake, *Q, 1);
  EXPECT_TRUE(T.Woke);
  EXPECT_LT(T.AfterAppend, 0.2);
  EXPECT_GT(test::AlarmHits, 0)
      << "the storm never fired; the test proves nothing";
}

} // namespace
} // namespace locus
