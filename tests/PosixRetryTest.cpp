//===- PosixRetryTest.cpp - EINTR retry wrappers under a signal storm ---------===//
//
// The EINTR audit's provoking test: a high-frequency interval timer whose
// handler is installed *without* SA_RESTART delivers SIGALRM while the
// retry wrappers of src/support/Posix.h are parked in read/write/poll/
// waitpid. Every wrapper must absorb the interruptions and preserve the
// underlying call's contract; the raw syscalls would fail with EINTR under
// this storm (which is exactly how worker heartbeat timers and the SIGTERM
// shutdown handler hit the service's I/O in production).
//
//===----------------------------------------------------------------------===//

#include "src/support/Posix.h"
#include "tests/helpers/AlarmStorm.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

namespace locus {
namespace {

using test::AlarmHits;
using test::AlarmStorm;

TEST(PosixRetry, ReadSurvivesSignalStorm) {
  int Fds[2];
  ASSERT_EQ(pipe(Fds), 0);
  AlarmStorm Storm;

  // The reader parks in read(2) long enough for dozens of SIGALRMs to land
  // before any data shows up.
  std::thread Writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    EXPECT_TRUE(support::retryWriteAll(Fds[1], "hello", 5));
    close(Fds[1]);
  });
  char Buf[16];
  ssize_t N = support::retryRead(Fds[0], Buf, sizeof(Buf));
  Writer.join();
  EXPECT_EQ(N, 5);
  EXPECT_EQ(std::string(Buf, 5), "hello");
  // EOF after the writer closed, still under the storm.
  EXPECT_EQ(support::retryRead(Fds[0], Buf, sizeof(Buf)), 0);
  close(Fds[0]);
  EXPECT_GT(AlarmHits, 0) << "the storm never fired; the test proves nothing";
}

TEST(PosixRetry, WriteAllSurvivesSignalStormAndShortWrites) {
  int Fds[2];
  ASSERT_EQ(pipe(Fds), 0);
  AlarmStorm Storm;

  // 1 MiB through a ~64 KiB pipe forces many short writes, each of which
  // can be (and under the storm, will be) EINTR-interrupted while blocked
  // on the slow drainer.
  const size_t Total = 1 << 20;
  std::string Payload(Total, 'x');
  size_t Drained = 0;
  std::thread Drainer([&] {
    char Buf[4096];
    for (;;) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ssize_t N = support::retryRead(Fds[0], Buf, sizeof(Buf));
      if (N <= 0)
        break;
      Drained += static_cast<size_t>(N);
    }
  });
  size_t Written = 0;
  bool Ok = support::retryWriteAll(Fds[1], Payload.data(), Total, &Written);
  close(Fds[1]);
  Drainer.join();
  close(Fds[0]);
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Written, Total);
  EXPECT_EQ(Drained, Total);
  EXPECT_GT(AlarmHits, 0);
}

TEST(PosixRetry, PollTimeoutIsReArmedAgainstADeadline) {
  int Fds[2];
  ASSERT_EQ(pipe(Fds), 0);
  AlarmStorm Storm;

  // With no data, poll must still time out in ~TimeoutMs even though each
  // individual poll(2) is interrupted every 2 ms — the wrapper re-arms
  // against a monotonic deadline, so the storm can neither abort the wait
  // nor extend it.
  struct pollfd P;
  P.fd = Fds[0];
  P.events = POLLIN;
  auto T0 = std::chrono::steady_clock::now();
  int R = support::retryPoll(&P, 1, 250);
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  EXPECT_EQ(R, 0);
  EXPECT_GE(ElapsedMs, 200);
  EXPECT_LT(ElapsedMs, 5000);

  // And data arriving mid-storm wakes it up with POLLIN.
  std::thread Writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_TRUE(support::retryWriteAll(Fds[1], "x", 1));
  });
  R = support::retryPoll(&P, 1, 5000);
  Writer.join();
  EXPECT_EQ(R, 1);
  EXPECT_TRUE(P.revents & POLLIN);
  close(Fds[0]);
  close(Fds[1]);
  EXPECT_GT(AlarmHits, 0);
}

TEST(PosixRetry, WaitpidSurvivesSignalStorm) {
  AlarmStorm Storm;
  pid_t Child = fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // In the child: outlive a few storm ticks, then exit with a marker.
    struct timespec Ts = {0, 120 * 1000 * 1000};
    nanosleep(&Ts, nullptr);
    _exit(7);
  }
  int WaitStatus = 0;
  pid_t Reaped = support::retryWaitpid(Child, &WaitStatus, 0);
  EXPECT_EQ(Reaped, Child);
  ASSERT_TRUE(WIFEXITED(WaitStatus));
  EXPECT_EQ(WEXITSTATUS(WaitStatus), 7);
  EXPECT_GT(AlarmHits, 0);
}

TEST(PosixRetry, OpenFlockAndCloseContracts) {
  // retryFlock on a negative fd is the documented "nothing to lock" no-op.
  EXPECT_EQ(support::retryFlock(-1, LOCK_EX), 0);

  std::string Path = "/tmp/locus-posix-retry-XXXXXX";
  int Fd = mkstemp(Path.data());
  ASSERT_GE(Fd, 0);
  support::closeQuietly(Fd);

  AlarmStorm Storm;
  int Reopened = support::retryOpen(Path.c_str(), O_RDWR, 0);
  EXPECT_GE(Reopened, 0);
  EXPECT_EQ(support::retryFlock(Reopened, LOCK_EX), 0);
  EXPECT_EQ(support::retryFlock(Reopened, LOCK_UN), 0);
  support::closeQuietly(Reopened);
  unlink(Path.c_str());
}

} // namespace
} // namespace locus
