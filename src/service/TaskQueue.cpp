//===- TaskQueue.cpp - Durable lease-based evaluation task queue ----------===//

#include "src/service/TaskQueue.h"

#include "src/support/StringUtils.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

namespace locus {
namespace service {

namespace {

constexpr const char *QueueFileName = "queue.rlog";
constexpr const char *HeaderMagic = "locus-queue v1";

/// Worker ids are single space-free tokens in the record grammar; anything
/// else would shift fields on parse.
std::string sanitizeToken(const std::string &S) {
  std::string Out = S.empty() ? std::string("anon") : S;
  for (char &C : Out)
    if (C == ' ' || C == '\n' || C == '\t' || C == '\r')
      C = '_';
  return Out;
}

std::string formatMetric(const search::EvalOutcome &Out) {
  // Journal convention: failures carry no meaningful metric; encode 0 and
  // restore infinity on decode. Successful metrics round-trip exactly via
  // %.17g.
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Out.ok() ? Out.Metric : 0.0);
  return Buf;
}

std::vector<std::string> splitFields(const std::string &Line) {
  std::vector<std::string> Fields;
  size_t Pos = 0;
  while (Pos < Line.size()) {
    size_t Space = Line.find(' ', Pos);
    if (Space == std::string::npos) {
      Fields.push_back(Line.substr(Pos));
      break;
    }
    Fields.push_back(Line.substr(Pos, Space - Pos));
    Pos = Space + 1;
  }
  return Fields;
}

} // namespace

const char *queueRecordKindName(QueueRecord::Kind K) {
  switch (K) {
  case QueueRecord::Kind::Task:
    return "task";
  case QueueRecord::Kind::Lease:
    return "lease";
  case QueueRecord::Kind::Heartbeat:
    return "hb";
  case QueueRecord::Kind::Expire:
    return "expire";
  case QueueRecord::Kind::Result:
    return "result";
  case QueueRecord::Kind::Quarantine:
    return "quarantine";
  case QueueRecord::Kind::Shutdown:
    return "shutdown";
  }
  return "unknown";
}

std::string encodeQueueRecord(const QueueRecord &R) {
  char Buf[96];
  std::string Out;
  switch (R.K) {
  case QueueRecord::Kind::Task:
    std::snprintf(Buf, sizeof(Buf), "task %" PRIu64 " %016" PRIx64, R.Id,
                  R.Digest);
    Out = Buf;
    Out += '\n';
    Out += R.Body;
    return Out;
  case QueueRecord::Kind::Lease:
  case QueueRecord::Kind::Heartbeat:
    std::snprintf(Buf, sizeof(Buf), "%s %" PRIu64 " %" PRIu64 " ",
                  queueRecordKindName(R.K), R.Id, R.Epoch);
    Out = Buf;
    Out += sanitizeToken(R.Worker);
    return Out;
  case QueueRecord::Kind::Expire:
    std::snprintf(Buf, sizeof(Buf), "expire %" PRIu64 " %" PRIu64, R.Id,
                  R.Epoch);
    return Buf;
  case QueueRecord::Kind::Result:
    std::snprintf(Buf, sizeof(Buf), "result %" PRIu64 " %" PRIu64 " ", R.Id,
                  R.Epoch);
    Out = Buf;
    Out += sanitizeToken(R.Worker);
    Out += ' ';
    Out += search::failureKindName(R.Out.Failure);
    Out += ' ';
    Out += formatMetric(R.Out);
    Out += '\n';
    Out += R.Out.Detail;
    return Out;
  case QueueRecord::Kind::Quarantine:
    std::snprintf(Buf, sizeof(Buf), "quarantine %" PRIu64, R.Id);
    Out = Buf;
    Out += '\n';
    Out += R.Body;
    return Out;
  case QueueRecord::Kind::Shutdown:
    return "shutdown";
  }
  return "";
}

Expected<QueueRecord> parseQueueRecord(const std::string &Payload) {
  using E = Expected<QueueRecord>;
  size_t Newline = Payload.find('\n');
  std::string Line =
      Newline == std::string::npos ? Payload : Payload.substr(0, Newline);
  std::string Body =
      Newline == std::string::npos ? std::string() : Payload.substr(Newline + 1);
  std::vector<std::string> F = splitFields(Line);
  if (F.empty())
    return E::error("empty queue record");

  QueueRecord R;
  const std::string &Kind = F[0];
  auto WantFields = [&](size_t N) {
    return F.size() == N
               ? Status::success()
               : Status::error("queue record '" + Kind + "' has " +
                               std::to_string(F.size() - 1) + " field(s), want " +
                               std::to_string(N - 1));
  };

  if (Kind == "task") {
    if (Status S = WantFields(3); !S.ok())
      return E::error(S.message());
    R.K = QueueRecord::Kind::Task;
    if (!parseNumber(F[1], R.Id) || !parseNumber(F[2], R.Digest, 16))
      return E::error("malformed task record fields");
    R.Body = std::move(Body);
    return R;
  }
  if (Kind == "lease" || Kind == "hb") {
    if (Status S = WantFields(4); !S.ok())
      return E::error(S.message());
    R.K = Kind == "lease" ? QueueRecord::Kind::Lease
                          : QueueRecord::Kind::Heartbeat;
    if (!parseNumber(F[1], R.Id) || !parseNumber(F[2], R.Epoch))
      return E::error("malformed " + Kind + " record fields");
    R.Worker = F[3];
    return R;
  }
  if (Kind == "expire") {
    if (Status S = WantFields(3); !S.ok())
      return E::error(S.message());
    R.K = QueueRecord::Kind::Expire;
    if (!parseNumber(F[1], R.Id) || !parseNumber(F[2], R.Epoch))
      return E::error("malformed expire record fields");
    return R;
  }
  if (Kind == "result") {
    if (Status S = WantFields(6); !S.ok())
      return E::error(S.message());
    R.K = QueueRecord::Kind::Result;
    if (!parseNumber(F[1], R.Id) || !parseNumber(F[2], R.Epoch))
      return E::error("malformed result record fields");
    R.Worker = F[3];
    bool KindOk = false;
    R.Out.Failure = search::parseFailureKind(F[4], KindOk);
    if (!KindOk)
      return E::error("unknown failure kind '" + F[4] + "' in result record");
    double Metric = 0;
    if (!parseNumber(F[5], Metric))
      return E::error("malformed metric '" + F[5] + "' in result record");
    R.Out.Metric = R.Out.ok() ? Metric
                              : std::numeric_limits<double>::infinity();
    R.Out.Detail = Body;
    R.Body = std::move(Body);
    return R;
  }
  if (Kind == "quarantine") {
    if (Status S = WantFields(2); !S.ok())
      return E::error(S.message());
    R.K = QueueRecord::Kind::Quarantine;
    if (!parseNumber(F[1], R.Id))
      return E::error("malformed quarantine record fields");
    R.Body = std::move(Body);
    return R;
  }
  if (Kind == "shutdown") {
    R.K = QueueRecord::Kind::Shutdown;
    return R;
  }
  return E::error("unknown queue record kind '" + Kind + "'");
}

//===----------------------------------------------------------------------===//
// QueueState
//===----------------------------------------------------------------------===//

void QueueState::apply(const QueueRecord &R) {
  ++AppliedRecords;
  switch (R.K) {
  case QueueRecord::Kind::Task: {
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
  case QueueRecord::Kind::Lease: {
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
  case QueueRecord::Kind::Heartbeat:
    // Liveness is judged by the *observer's* arrival clock (no in-file
    // timestamps, hence no cross-host clock skew); the fold itself is
    // heartbeat-blind.
    return;
  case QueueRecord::Kind::Expire: {
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
  case QueueRecord::Kind::Result: {
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
  case QueueRecord::Kind::Quarantine: {
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
  case QueueRecord::Kind::Shutdown:
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

std::string makeQueueHeader(uint64_t SpaceFingerprint, uint64_t ConfigDigest) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%s\nspace=%016" PRIx64 "\nconfig=%016" PRIx64,
                HeaderMagic, SpaceFingerprint, ConfigDigest);
  return Buf;
}

Expected<QueueHeaderInfo> parseQueueHeader(const std::string &Header) {
  using E = Expected<QueueHeaderInfo>;
  QueueHeaderInfo Info;
  size_t FirstNl = Header.find('\n');
  if (Header.compare(0, std::strlen(HeaderMagic), HeaderMagic) != 0 ||
      FirstNl == std::string::npos)
    return E::error("not a locus-queue v1 header");
  size_t SecondNl = Header.find('\n', FirstNl + 1);
  if (SecondNl == std::string::npos)
    return E::error("queue header is missing its config line");
  std::string SpaceLine = Header.substr(FirstNl + 1, SecondNl - FirstNl - 1);
  std::string ConfigLine = Header.substr(SecondNl + 1);
  if (SpaceLine.compare(0, 6, "space=") != 0 ||
      !parseNumber(SpaceLine.substr(6), Info.SpaceFingerprint, 16))
    return E::error("queue header has a malformed space fingerprint");
  if (ConfigLine.compare(0, 7, "config=") != 0 ||
      !parseNumber(ConfigLine.substr(7), Info.ConfigDigest, 16))
    return E::error("queue header has a malformed config digest");
  return Info;
}

std::string TaskQueue::queueFilePath(const std::string &Dir) {
  return Dir + "/" + QueueFileName;
}

Expected<TaskQueue> TaskQueue::open(const TaskQueueOptions &Opts) {
  TaskQueue Q;
  Q.Path = queueFilePath(Opts.Dir);
  support::RecordLogOptions LOpts;
  LOpts.Header = Opts.Header;
  LOpts.RequireHeaderMatch = Opts.RequireHeaderMatch;
  LOpts.FsyncEachRecord = Opts.FsyncEachRecord;
  support::RecordLogScan Recovery;
  auto Log = support::RecordLog::open(Q.Path, LOpts, &Recovery);
  if (!Log.ok())
    return Expected<TaskQueue>::error(Log.message());
  Q.Log = std::move(*Log);
  Q.Header = Recovery.Header.empty() ? Opts.Header : Recovery.Header;
  return Q;
}

Status TaskQueue::announceTask(uint64_t Id, const std::string &PointText,
                               uint64_t Digest) {
  QueueRecord R;
  R.K = QueueRecord::Kind::Task;
  R.Id = Id;
  R.Digest = Digest;
  R.Body = PointText;
  return Log.append(encodeQueueRecord(R));
}

Status TaskQueue::claim(uint64_t Id, uint64_t Epoch,
                        const std::string &Worker) {
  QueueRecord R;
  R.K = QueueRecord::Kind::Lease;
  R.Id = Id;
  R.Epoch = Epoch;
  R.Worker = Worker;
  return Log.append(encodeQueueRecord(R));
}

Status TaskQueue::heartbeat(uint64_t Id, uint64_t Epoch,
                            const std::string &Worker) {
  QueueRecord R;
  R.K = QueueRecord::Kind::Heartbeat;
  R.Id = Id;
  R.Epoch = Epoch;
  R.Worker = Worker;
  return Log.append(encodeQueueRecord(R));
}

Status TaskQueue::postResult(uint64_t Id, uint64_t Epoch,
                             const std::string &Worker,
                             const search::EvalOutcome &Out) {
  QueueRecord R;
  R.K = QueueRecord::Kind::Result;
  R.Id = Id;
  R.Epoch = Epoch;
  R.Worker = Worker;
  R.Out = Out;
  return Log.append(encodeQueueRecord(R));
}

Status TaskQueue::expire(uint64_t Id, uint64_t Epoch) {
  QueueRecord R;
  R.K = QueueRecord::Kind::Expire;
  R.Id = Id;
  R.Epoch = Epoch;
  return Log.append(encodeQueueRecord(R));
}

Status TaskQueue::quarantine(uint64_t Id, const std::string &Detail) {
  QueueRecord R;
  R.K = QueueRecord::Kind::Quarantine;
  R.Id = Id;
  R.Body = Detail;
  return Log.append(encodeQueueRecord(R));
}

Status TaskQueue::announceShutdown() {
  QueueRecord R;
  R.K = QueueRecord::Kind::Shutdown;
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
    if (R.ok() && R->K == QueueRecord::Kind::Shutdown)
      continue;
    Kept.push_back(std::move(Payload));
  }
  return Log.compact(Kept);
}

Expected<uint64_t>
TaskQueue::poll(QueueState &State,
                const std::function<void(const QueueRecord &)> &OnRecord) {
  auto Scan = support::RecordLog::scan(Path);
  if (!Scan.ok())
    return Expected<uint64_t>::error(Scan.message());
  // A torn tail here is a writer that crashed mid-append; the complete
  // prefix is still authoritative and the next RecordLog::open amputates
  // the damage, so the fold simply ignores the flags.
  uint64_t Applied = 0;
  for (uint64_t I = State.AppliedRecords; I < Scan->Records.size(); ++I) {
    auto R = parseQueueRecord(Scan->Records[I]);
    if (!R.ok())
      return Expected<uint64_t>::error(
          Path + ": record " + std::to_string(I) + ": " + R.message());
    State.apply(*R);
    if (OnRecord)
      OnRecord(*R);
    ++Applied;
  }
  return Applied;
}

} // namespace service
} // namespace locus
