//===- TaskQueue.cpp - Durable lease-based evaluation task queue ----------===//

#include "src/service/TaskQueue.h"

#include <vector>

namespace locus {
namespace service {

namespace {
constexpr const char *QueueFileName = "queue.rlog";
using Kind = QueueRecord::Kind;
} // namespace

const char *queueRecordKindName(Kind K) {
  switch (K) {
  case Kind::Task:
    return "task";
  case Kind::Lease:
    return "lease";
  case Kind::Heartbeat:
    return "hb";
  case Kind::Expire:
    return "expire";
  case Kind::Result:
    return "result";
  case Kind::Quarantine:
    return "quarantine";
  case Kind::Shutdown:
    return "shutdown";
  }
  return "unknown";
}

std::string encodeQueueRecord(const QueueRecord &R) {
  support::RecordWriter W;
  W.str("kind", queueRecordKindName(R.K));
  if (R.K != Kind::Shutdown)
    W.u64("id", R.Id);
  switch (R.K) {
  case Kind::Task:
    W.u64("digest", R.Digest).str("point", R.Body);
    break;
  case Kind::Lease:
  case Kind::Heartbeat:
    W.u64("epoch", R.Epoch).str("worker", R.Worker);
    break;
  case Kind::Expire:
    W.u64("epoch", R.Epoch);
    break;
  case Kind::Result:
    W.u64("epoch", R.Epoch).str("worker", R.Worker);
    support::putOutcome(W, R.Out.Metric, R.Out.Failure, R.Out.Detail);
    break;
  case Kind::Quarantine:
    W.str("detail", R.Body);
    break;
  case Kind::Shutdown:
    break;
  }
  return W.take();
}

Expected<QueueRecord> parseQueueRecord(const std::string &Payload) {
  using E = Expected<QueueRecord>;
  auto F = support::RecordFields::parse(Payload);
  if (!F.ok())
    return E::error("malformed queue record: " + F.message());
  std::string Name;
  if (Status S = F->get("kind", Name); !S.ok())
    return E::error("queue record: " + S.message());
  QueueRecord R;
  bool Known = false;
  for (Kind Each : {Kind::Task, Kind::Lease, Kind::Heartbeat, Kind::Expire,
                    Kind::Result, Kind::Quarantine, Kind::Shutdown})
    if (Name == queueRecordKindName(Each)) {
      R.K = Each;
      Known = true;
    }
  if (!Known)
    return E::error("unknown queue record kind '" + Name + "'");

  Status S;
  auto Get = [&](std::string_view Key, auto &Out) {
    if (S.ok())
      S = F->get(Key, Out);
  };
  if (R.K != Kind::Shutdown)
    Get("id", R.Id);
  switch (R.K) {
  case Kind::Task:
    Get("digest", R.Digest);
    Get("point", R.Body);
    break;
  case Kind::Lease:
  case Kind::Heartbeat:
    Get("epoch", R.Epoch);
    Get("worker", R.Worker);
    break;
  case Kind::Expire:
    Get("epoch", R.Epoch);
    break;
  case Kind::Result:
    Get("epoch", R.Epoch);
    Get("worker", R.Worker);
    if (S.ok())
      S = support::getOutcome(*F, R.Out);
    break;
  case Kind::Quarantine:
    Get("detail", R.Body);
    break;
  case Kind::Shutdown:
    break;
  }
  if (!S.ok())
    return E::error(Name + " record: " + S.message());
  return R;
}

//===----------------------------------------------------------------------===//
// QueueState
//===----------------------------------------------------------------------===//

void QueueState::apply(const QueueRecord &R) {
  ++AppliedRecords;
  switch (R.K) {
  case Kind::Task: {
    auto [It, Inserted] = Tasks.try_emplace(R.Id);
    if (Inserted) {
      It->second.Id = R.Id;
      It->second.PointText = R.Body;
      It->second.Digest = R.Digest;
    }
    // A duplicate task id (a coordinator resumed past its own announcement)
    // keeps the first announcement; the point text is identical by
    // construction (id assignment is monotonic per queue).
    return;
  }
  case Kind::Lease: {
    auto It = Tasks.find(R.Id);
    if (It == Tasks.end())
      return;
    TaskState &T = It->second;
    // First lease of the current epoch wins; anything else lost the race
    // or arrived from a past epoch and is void.
    if (!T.Done && R.Epoch == T.Epoch && T.LeaseWorker.empty())
      T.LeaseWorker = R.Worker;
    return;
  }
  case Kind::Heartbeat:
    // Liveness is judged by the *observer's* arrival clock (no in-file
    // timestamps, hence no cross-host clock skew); the fold itself is
    // heartbeat-blind.
    return;
  case Kind::Expire: {
    auto It = Tasks.find(R.Id);
    if (It == Tasks.end())
      return;
    TaskState &T = It->second;
    if (!T.Done && R.Epoch == T.Epoch) {
      ++T.Epoch;
      T.LeaseWorker.clear();
    }
    return;
  }
  case Kind::Result: {
    auto It = Tasks.find(R.Id);
    if (It == Tasks.end()) {
      ++StaleResultsDiscarded;
      return;
    }
    TaskState &T = It->second;
    // First-writer-wins: accepted iff the task is open and the result
    // carries the winning lease of the *current* epoch. A revived worker's
    // post-expiry result fails the epoch match and is discarded + counted.
    if (!T.Done && R.Epoch == T.Epoch && !T.LeaseWorker.empty() &&
        R.Worker == T.LeaseWorker) {
      T.Done = true;
      T.Out = R.Out;
      T.DoneWorker = R.Worker;
    } else {
      ++T.StaleResults;
      ++StaleResultsDiscarded;
    }
    return;
  }
  case Kind::Quarantine: {
    auto It = Tasks.find(R.Id);
    if (It == Tasks.end())
      return;
    TaskState &T = It->second;
    if (!T.Done) {
      T.Done = true;
      T.Quarantined = true;
      T.Out = search::EvalOutcome::fail(search::FailureKind::RuntimeTrap,
                                        R.Body);
      T.LeaseWorker.clear();
    }
    return;
  }
  case Kind::Shutdown:
    ShutdownSeen = true;
    return;
  }
}

const TaskState *QueueState::find(uint64_t Id) const {
  auto It = Tasks.find(Id);
  return It == Tasks.end() ? nullptr : &It->second;
}

const TaskState *QueueState::firstClaimable() const {
  for (const auto &[Id, T] : Tasks)
    if (T.claimable())
      return &T;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// TaskQueue
//===----------------------------------------------------------------------===//

std::string TaskQueue::queueFilePath(const std::string &Dir) {
  return Dir + "/" + QueueFileName;
}

Expected<TaskQueue> TaskQueue::open(const TaskQueueOptions &Opts) {
  using E = Expected<TaskQueue>;
  TaskQueue Q;
  Q.Path = queueFilePath(Opts.Dir);
  support::RecordLogOptions LOpts;
  LOpts.Header = support::encodeRunHeader(QueueHeaderTag, Opts.Header);
  // Compared structurally, for a diagnostic that names the mismatch.
  Q.Header = Opts.Header;
  LOpts.CheckHeader = [&](const std::string &Text) {
    if (!support::parseRunHeader(QueueHeaderTag, Text, Q.Header))
      return Status::error(
          "queue " + Q.Path + " has no " + std::string(QueueHeaderTag) +
          " header (found '" + Text.substr(0, Text.find('\n')) +
          "'): it was written by another tool or version; remove the queue "
          "dir to start fresh");
    if (Opts.RequireHeaderMatch && !(Q.Header == Opts.Header))
      return Status::error(
          "queue " + Q.Path + " belongs to another search (space " +
          support::hex16(Q.Header.SpaceFingerprint) + ", config " +
          support::hex16(Q.Header.ConfigDigest) + "; this run has " +
          support::hex16(Opts.Header.SpaceFingerprint) + ", " +
          support::hex16(Opts.Header.ConfigDigest) +
          "); remove the queue dir or serve another one");
    return Status::success();
  };
  LOpts.FsyncEachRecord = Opts.FsyncEachRecord;
  auto Log = support::RecordLog::open(Q.Path, LOpts);
  if (!Log.ok())
    return E::error(Log.message());
  Q.Log = std::move(*Log);
  return Q;
}

Status TaskQueue::announceTask(uint64_t Id, const std::string &PointText,
                               uint64_t Digest) {
  QueueRecord R;
  R.K = Kind::Task;
  R.Id = Id;
  R.Digest = Digest;
  R.Body = PointText;
  return Log.append(encodeQueueRecord(R));
}

Status TaskQueue::claim(uint64_t Id, uint64_t Epoch,
                        const std::string &Worker) {
  QueueRecord R;
  R.K = Kind::Lease;
  R.Id = Id;
  R.Epoch = Epoch;
  R.Worker = Worker;
  return Log.append(encodeQueueRecord(R));
}

Status TaskQueue::heartbeat(uint64_t Id, uint64_t Epoch,
                            const std::string &Worker) {
  QueueRecord R;
  R.K = Kind::Heartbeat;
  R.Id = Id;
  R.Epoch = Epoch;
  R.Worker = Worker;
  return Log.append(encodeQueueRecord(R));
}

Status TaskQueue::postResult(uint64_t Id, uint64_t Epoch,
                             const std::string &Worker,
                             const search::EvalOutcome &Out) {
  QueueRecord R;
  R.K = Kind::Result;
  R.Id = Id;
  R.Epoch = Epoch;
  R.Worker = Worker;
  R.Out = Out;
  return Log.append(encodeQueueRecord(R));
}

Status TaskQueue::expire(uint64_t Id, uint64_t Epoch) {
  QueueRecord R;
  R.K = Kind::Expire;
  R.Id = Id;
  R.Epoch = Epoch;
  return Log.append(encodeQueueRecord(R));
}

Status TaskQueue::quarantine(uint64_t Id, const std::string &Detail) {
  QueueRecord R;
  R.K = Kind::Quarantine;
  R.Id = Id;
  R.Body = Detail;
  return Log.append(encodeQueueRecord(R));
}

Status TaskQueue::announceShutdown() {
  QueueRecord R;
  R.K = Kind::Shutdown;
  return Log.append(encodeQueueRecord(R));
}

Status TaskQueue::compactDropShutdown() {
  auto Scan = support::RecordLog::scan(Path);
  if (!Scan.ok())
    return Status::error(Scan.message());
  std::vector<std::string> Kept;
  Kept.reserve(Scan->Records.size());
  for (std::string &Payload : Scan->Records) {
    auto R = parseQueueRecord(Payload);
    if (R.ok() && R->K == Kind::Shutdown)
      continue;
    Kept.push_back(std::move(Payload));
  }
  return Log.compact(Kept);
}

Expected<uint64_t>
TaskQueue::poll(QueueState &State,
                const std::function<void(const QueueRecord &)> &OnRecord) {
  auto Scan = support::RecordLog::scanFrom(Path, State.Cursor);
  if (!Scan.ok())
    return Expected<uint64_t>::error(Scan.message());
  // A torn tail here is a writer that crashed mid-append; the complete
  // prefix is still authoritative and the next RecordLog::open amputates
  // the damage, so the fold simply ignores the flags. A restarted scan
  // holds every record, a resumed one only those past the cursor.
  uint64_t First = Scan->Restarted ? 0 : State.AppliedRecords;
  uint64_t Applied = 0;
  for (uint64_t I = State.AppliedRecords; I < First + Scan->Records.size();
       ++I) {
    auto R = parseQueueRecord(Scan->Records[I - First]);
    if (!R.ok()) {
      State.Cursor = {}; // the next poll rereads, and refuses, this record
      return Expected<uint64_t>::error(
          Path + ": record " + std::to_string(I) + ": " + R.message());
    }
    State.apply(*R);
    if (OnRecord)
      OnRecord(*R);
    ++Applied;
  }
  return Applied;
}

} // namespace service
} // namespace locus
