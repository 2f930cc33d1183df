//===- AlarmStorm.h - SIGALRM storm for EINTR tests -----------*- C++ -*-===//
//
// A high-frequency interval timer whose handler is installed *without*
// SA_RESTART, so a syscall parked while it runs returns EINTR instead of
// being restarted by the kernel. Shared by the suites that prove a wait
// absorbs interruptions and keeps its deadline.
//
//===----------------------------------------------------------------------===//
#ifndef LOCUS_TESTS_HELPERS_ALARMSTORM_H
#define LOCUS_TESTS_HELPERS_ALARMSTORM_H

#include <csignal>
#include <cstring>
#include <sys/time.h>

namespace locus {
namespace test {

/// SIGALRMs delivered since the last AlarmStorm started.
inline volatile sig_atomic_t AlarmHits = 0;

inline void onAlarm(int) { AlarmHits = AlarmHits + 1; }

/// RAII signal storm: SIGALRM every 2 ms, handler installed with
/// sa_flags = 0 so interrupted syscalls really do return EINTR.
class AlarmStorm {
public:
  AlarmStorm() {
    AlarmHits = 0;
    struct sigaction SA;
    std::memset(&SA, 0, sizeof(SA));
    SA.sa_handler = onAlarm;
    sigemptyset(&SA.sa_mask);
    SA.sa_flags = 0; // no SA_RESTART: this is the whole point
    sigaction(SIGALRM, &SA, &Old);
    struct itimerval Timer;
    Timer.it_interval.tv_sec = 0;
    Timer.it_interval.tv_usec = 2000;
    Timer.it_value = Timer.it_interval;
    setitimer(ITIMER_REAL, &Timer, &OldTimer);
  }
  ~AlarmStorm() {
    setitimer(ITIMER_REAL, &OldTimer, nullptr);
    sigaction(SIGALRM, &Old, nullptr);
  }
  AlarmStorm(const AlarmStorm &) = delete;
  AlarmStorm &operator=(const AlarmStorm &) = delete;

private:
  struct sigaction Old;
  struct itimerval OldTimer;
};

} // namespace test
} // namespace locus

#endif // LOCUS_TESTS_HELPERS_ALARMSTORM_H
