//===- Worker.cpp - Tuning-service worker loop ----------------------------===//

#include "src/service/Worker.h"

#include "src/search/PointCodec.h"
#include "src/support/Posix.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <sstream>
#include <sys/stat.h>
#include <thread>

namespace locus {
namespace service {

namespace {

bool stopRequested(const WorkerOptions &Opts) {
  return Opts.StopFlag && Opts.StopFlag->load(std::memory_order_relaxed);
}

/// Heartbeats Task/Epoch every HeartbeatSeconds until destroyed; the
/// destructor wakes the pump at once, so a finished evaluation's result is
/// posted without waiting out a sleep.
class HeartbeatPump {
public:
  HeartbeatPump(TaskQueue &Q, uint64_t Id, uint64_t Epoch,
                const WorkerOptions &Opts, uint64_t &Beats)
      : T([&Q, Id, Epoch, &Opts, &Beats, this] {
          std::chrono::duration<double> Period(Opts.HeartbeatSeconds);
          uint64_t Sent = 0;
          std::unique_lock<std::mutex> L(Mu);
          while (!Cv.wait_for(L, Period, [this] { return Stop; })) {
            if (Opts.MaxHeartbeatsPerTask >= 0 &&
                Sent >= static_cast<uint64_t>(Opts.MaxHeartbeatsPerTask))
              continue; // simulated stall: lease goes silent
            L.unlock();
            if (Q.heartbeat(Id, Epoch, Opts.WorkerId).ok()) {
              ++Sent;
              ++Beats;
            }
            L.lock();
          }
        }) {}
  ~HeartbeatPump() {
    {
      std::lock_guard<std::mutex> L(Mu);
      Stop = true;
    }
    Cv.notify_one();
    T.join();
  }
  HeartbeatPump(const HeartbeatPump &) = delete;
  HeartbeatPump &operator=(const HeartbeatPump &) = delete;

private:
  std::mutex Mu;
  std::condition_variable Cv;
  bool Stop = false; ///< guarded by Mu
  std::thread T;
};

} // namespace

Expected<WorkerStats> runWorker(const search::Space &Space,
                                search::Objective &Obj,
                                const WorkerOptions &Opts) {
  using Ret = Expected<WorkerStats>;
  if (Opts.QueueDir.empty())
    return Ret::error("worker requires --queue-dir");
  // An empty lease holder reads as "unclaimed" in the fold.
  if (Opts.WorkerId.empty())
    return Ret::error("worker requires a non-empty worker id");

  // The coordinator creates the log; wait for it rather than racing to
  // write a header of our own. The watch is armed before each look at the
  // file, so no change after the look goes unnoticed; until the queue dir
  // exists it cannot be armed, and the wait is a plain PollSeconds sleep.
  std::string LogPath = TaskQueue::queueFilePath(Opts.QueueDir);
  std::optional<support::FileChangeWait> Wake;
  for (;;) {
    if (!Wake || !Wake->watching())
      Wake.emplace(LogPath);
    struct stat St;
    if (::stat(LogPath.c_str(), &St) == 0)
      break;
    if (stopRequested(Opts))
      return Ret::error("worker stopped before queue " + LogPath + " existed");
    Wake->wait(Opts.PollSeconds);
  }

  TaskQueueOptions QOpts;
  QOpts.Dir = Opts.QueueDir;
  QOpts.RequireHeaderMatch = false;
  auto Q = TaskQueue::open(QOpts);
  if (!Q.ok())
    return Ret::error(Q.message());
  TaskQueue Queue = std::move(*Q);

  uint64_t QueueSpace = Queue.header().SpaceFingerprint;
  if (Opts.SpaceFingerprint != 0 && QueueSpace != Opts.SpaceFingerprint) {
    std::ostringstream Os;
    Os << "queue " << LogPath << " was written for space fingerprint "
       << std::hex << QueueSpace << " but this worker built "
       << Opts.SpaceFingerprint << "; refusing to evaluate foreign points";
    return Ret::error(Os.str());
  }

  WorkerStats Stats;
  QueueState State;
  while (true) {
    if (stopRequested(Opts))
      break;
    if (auto Folded = Queue.poll(State); !Folded.ok())
      return Ret::error(Folded.message());
    if (State.ShutdownSeen)
      break;
    const TaskState *T = State.firstClaimable();
    if (!T) {
      Wake->wait(Opts.PollSeconds); // any append may open a task
      continue;
    }

    uint64_t Id = T->Id;
    uint64_t Epoch = T->Epoch;
    std::string PointText = T->PointText;
    if (Status S = Queue.claim(Id, Epoch, Opts.WorkerId); !S.ok())
      return Ret::error(S.message());
    if (auto Folded = Queue.poll(State); !Folded.ok())
      return Ret::error(Folded.message());
    T = State.find(Id);
    if (!T || T->Done || T->Epoch != Epoch ||
        T->LeaseWorker != Opts.WorkerId) {
      ++Stats.ClaimsLost; // someone else's lease landed first
      continue;
    }

    if (Opts.OnClaim)
      Opts.OnClaim(Id);

    search::EvalOutcome Out;
    {
      HeartbeatPump Pump(Queue, Id, Epoch, Opts, Stats.Heartbeats);
      auto P = search::deserializePoint(PointText, Space);
      if (!P.ok())
        Out = search::EvalOutcome::fail(search::FailureKind::InvalidPoint,
                                        "worker could not decode point: " +
                                            P.message());
      else
        Out = Obj.assess(*P);
    }
    if (Status S = Queue.postResult(Id, Epoch, Opts.WorkerId, Out); !S.ok())
      return Ret::error(S.message());
    ++Stats.TasksEvaluated;
    if (Opts.MaxTasks != 0 && Stats.TasksEvaluated >= Opts.MaxTasks)
      break;
  }
  return Stats;
}

} // namespace service
} // namespace locus
