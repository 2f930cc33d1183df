//===- Posix.h - EINTR-safe syscall wrappers ---------------------*- C++ -*-===//
///
/// \file
/// Retry wrappers for the blocking POSIX calls the rest of the codebase
/// issues. The tuning service makes interrupted syscalls routine — worker
/// heartbeat timers, SIGTERM graceful-shutdown handlers and SIGCHLD all
/// land while a read/poll/flock/waitpid is parked — so every blocking call
/// must treat EINTR as "try again", not as an error. Centralizing the loops
/// here keeps RecordLog and Subprocess free of hand-rolled variants.
///
/// All wrappers preserve the underlying call's return-value contract; only
/// EINTR is absorbed. Timeouts (retryPoll, FileChangeWait) are re-armed
/// against a monotonic deadline so a signal storm cannot extend the wait.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SUPPORT_POSIX_H
#define LOCUS_SUPPORT_POSIX_H

#include <poll.h>
#include <string>
#include <sys/types.h>

namespace locus {
namespace support {

/// read(2) retried on EINTR. Returns the read count, 0 at EOF, or -1 with
/// errno set (never EINTR).
ssize_t retryRead(int Fd, void *Buf, size_t Len);

/// Writes the whole buffer, retrying on EINTR and short writes. Returns
/// true when every byte reached the fd; on failure *Written (optional)
/// holds the byte count that did land, so callers can amputate a torn
/// record.
bool retryWriteAll(int Fd, const char *Data, size_t Len,
                   size_t *Written = nullptr);

/// Reads the fd to EOF into Out (appending), retrying on EINTR. Returns
/// false on a read error.
bool retryReadToEnd(int Fd, std::string &Out);

/// poll(2) retried on EINTR with the timeout re-armed against a monotonic
/// deadline (a negative timeout waits forever). Returns poll's result.
int retryPoll(struct pollfd *Fds, nfds_t NFds, int TimeoutMs);

/// flock(2) retried on EINTR. A negative fd returns 0 (callers treat a
/// missing lock file as "nothing to lock").
int retryFlock(int Fd, int Operation);

/// waitpid(2) retried on EINTR. Without the retry a signal delivered while
/// the parent blocks leaves the child unreaped and the status word
/// uninitialized.
pid_t retryWaitpid(pid_t Pid, int *Status, int Options);

/// open(2) retried on EINTR (open can be interrupted on slow devices and
/// when O_CREAT contends).
int retryOpen(const char *Path, int Flags, mode_t Mode = 0);

/// close(2), EINTR-tolerant: POSIX leaves the fd state unspecified after
/// EINTR, and retrying risks closing a recycled descriptor, so the wrapper
/// closes once and ignores EINTR (Linux semantics: the fd is released).
void closeQuietly(int Fd);

/// Blocks until one file changes or a timeout passes. The inotify watch is
/// on the file's *directory*, filtered to events that name the file
/// (written, created, or renamed into place): a watch on the file itself
/// would go silent once a compaction renames a new inode over the path,
/// and the filter keeps other files of the directory from waking anyone.
/// When no watch can be set up (no such directory, no inotify) wait()
/// degrades to a plain timed sleep.
class FileChangeWait {
public:
  explicit FileChangeWait(const std::string &Path);
  ~FileChangeWait();
  FileChangeWait(const FileChangeWait &) = delete;
  FileChangeWait &operator=(const FileChangeWait &) = delete;

  /// True when the inotify watch is live.
  bool watching() const { return Fd >= 0; }

  /// Returns true as soon as the file changed since the previous wait()
  /// (a change that landed in between returns at once), or false once
  /// \p TimeoutSeconds passed without one.
  bool wait(double TimeoutSeconds);

private:
  int Fd = -1; ///< the inotify instance, non-blocking
  std::string Name;
};

} // namespace support
} // namespace locus

#endif // LOCUS_SUPPORT_POSIX_H
