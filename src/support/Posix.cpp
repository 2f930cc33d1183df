//===- Posix.cpp - EINTR-safe syscall wrappers ----------------------------===//

#include "src/support/Posix.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <string_view>
#include <sys/file.h>
#include <sys/inotify.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

namespace locus {
namespace support {

namespace {

long long monotonicMs() {
  struct timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<long long>(Ts.tv_sec) * 1000 + Ts.tv_nsec / 1000000;
}

/// Reads every queued inotify event; true when one names \p Name, or when
/// an overflow or a removed watch may have hidden such an event.
bool drainEvents(int Fd, std::string_view Name) {
  alignas(struct inotify_event) char Buf[4096];
  bool Changed = false;
  for (;;) {
    ssize_t N = retryRead(Fd, Buf, sizeof(Buf));
    if (N <= 0) // EAGAIN: the queue is empty
      return Changed;
    size_t Off = 0;
    while (Off + sizeof(struct inotify_event) <= static_cast<size_t>(N)) {
      struct inotify_event E;
      std::memcpy(&E, Buf + Off, sizeof(E));
      const char *EventName = Buf + Off + sizeof(E);
      if ((E.mask & (IN_Q_OVERFLOW | IN_IGNORED)) ||
          (E.len > 0 && std::string_view(EventName, ::strnlen(EventName,
                                                              E.len)) == Name))
        Changed = true;
      Off += sizeof(E) + E.len;
    }
  }
}

} // namespace

ssize_t retryRead(int Fd, void *Buf, size_t Len) {
  for (;;) {
    ssize_t N = ::read(Fd, Buf, Len);
    if (N >= 0 || errno != EINTR)
      return N;
  }
}

bool retryWriteAll(int Fd, const char *Data, size_t Len, size_t *Written) {
  size_t Off = 0;
  while (Off < Len) {
    ssize_t N = ::write(Fd, Data + Off, Len - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) { // a 0-byte write would loop forever; treat it as an error
      if (Written)
        *Written = Off;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  if (Written)
    *Written = Off;
  return true;
}

bool retryReadToEnd(int Fd, std::string &Out) {
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = retryRead(Fd, Buf, sizeof(Buf));
    if (N < 0)
      return false;
    if (N == 0)
      return true;
    Out.append(Buf, static_cast<size_t>(N));
  }
}

int retryPoll(struct pollfd *Fds, nfds_t NFds, int TimeoutMs) {
  if (TimeoutMs < 0) {
    for (;;) {
      int R = ::poll(Fds, NFds, -1);
      if (R >= 0 || errno != EINTR)
        return R;
    }
  }
  long long Deadline = monotonicMs() + TimeoutMs;
  int Remaining = TimeoutMs;
  for (;;) {
    int R = ::poll(Fds, NFds, Remaining);
    if (R >= 0 || errno != EINTR)
      return R;
    long long Now = monotonicMs();
    if (Now >= Deadline)
      return 0; // timed out across interruptions
    Remaining = static_cast<int>(Deadline - Now);
  }
}

int retryFlock(int Fd, int Operation) {
  if (Fd < 0)
    return 0;
  for (;;) {
    int R = ::flock(Fd, Operation);
    if (R == 0 || errno != EINTR)
      return R;
  }
}

pid_t retryWaitpid(pid_t Pid, int *Status, int Options) {
  for (;;) {
    pid_t R = ::waitpid(Pid, Status, Options);
    if (R >= 0 || errno != EINTR)
      return R;
  }
}

int retryOpen(const char *Path, int Flags, mode_t Mode) {
  for (;;) {
    int Fd = ::open(Path, Flags, Mode);
    if (Fd >= 0 || errno != EINTR)
      return Fd;
  }
}

void closeQuietly(int Fd) {
  if (Fd >= 0)
    ::close(Fd);
}

FileChangeWait::FileChangeWait(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? "."
                    : Slash == 0               ? "/"
                                               : Path.substr(0, Slash);
  Name = Slash == std::string::npos ? Path : Path.substr(Slash + 1);
  Fd = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
  if (Fd >= 0 && ::inotify_add_watch(Fd, Dir.c_str(),
                                     IN_MODIFY | IN_CREATE | IN_MOVED_TO) < 0) {
    closeQuietly(Fd);
    Fd = -1;
  }
}

FileChangeWait::~FileChangeWait() { closeQuietly(Fd); }

bool FileChangeWait::wait(double TimeoutSeconds) {
  long long TimeoutMs = static_cast<long long>(
      std::ceil(std::max(0.0, TimeoutSeconds) * 1000.0));
  long long Deadline = monotonicMs() + TimeoutMs;
  auto SleepOut = [&] {
    long long Left = Deadline - monotonicMs();
    if (Left > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(Left));
    return false;
  };
  if (Fd < 0)
    return SleepOut();
  for (;;) {
    long long Left = std::clamp(Deadline - monotonicMs(), 0LL,
                                static_cast<long long>(INT_MAX));
    struct pollfd P = {Fd, POLLIN, 0};
    int R = retryPoll(&P, 1, static_cast<int>(Left));
    if (R < 0)
      return SleepOut();
    if (R == 0)
      return false;
    if (drainEvents(Fd, Name))
      return true;
    // Only other files of the directory changed: keep waiting.
  }
}

} // namespace support
} // namespace locus
