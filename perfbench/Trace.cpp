//===- Trace.cpp - In-memory span recorder for the traced run ------------------===//

#include "Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::pair<const Tracer *, int>> OpenSpans;

} // namespace

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::begin(std::string_view Name, uint64_t Point) {
  int Parent = -1;
  for (auto It = OpenSpans.rbegin(); It != OpenSpans.rend(); ++It)
    if (It->first == this) {
      Parent = It->second;
      break;
    }
  int Id = 0;
  {
    std::lock_guard<std::mutex> L(M);
    if (Parent < 0)
      Parent = AsyncParent;
    if (Point == 0 && Parent >= 0)
      Point = Spans[static_cast<size_t>(Parent)].Point;
    Id = static_cast<int>(Spans.size());
    Spans.push_back(Span{std::string(Name), 0, 0, Parent, Point});
  }
  OpenSpans.emplace_back(this, Id);
  double Now = nowSeconds();
  std::lock_guard<std::mutex> L(M);
  Spans[static_cast<size_t>(Id)].Start = Now;
  return Id;
}

void Tracer::end(int Id) {
  double Now = nowSeconds();
  for (auto It = OpenSpans.rbegin(); It != OpenSpans.rend(); ++It)
    if (It->first == this && It->second == Id) {
      OpenSpans.erase(std::next(It).base());
      break;
    }
  std::lock_guard<std::mutex> L(M);
  Spans[static_cast<size_t>(Id)].End = Now;
}

void Tracer::setAsyncParent(int Id) {
  std::lock_guard<std::mutex> L(M);
  AsyncParent = Id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> L(M);
  return Spans;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::vector<Span> All = spans();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  double Origin = All.empty() ? 0 : All.front().Start;
  for (const Span &S : All)
    Origin = std::min(Origin, S.Start);
  std::fprintf(F, "{\"traceEvents\": [\n");
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    std::string Layer(layerOf(S.Name));
    std::fprintf(F,
                 "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, "
                 "\"point\": %llu}}%s\n",
                 S.Name.c_str(), Layer.c_str(), (S.Start - Origin) * 1e6,
                 (S.End - S.Start) * 1e6, I, S.Parent,
                 static_cast<unsigned long long>(S.Point),
                 I + 1 < All.size() ? "," : "");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

std::vector<double> selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[static_cast<size_t>(S.Parent)].emplace_back(S.Start, S.End);
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    auto &Cs = Children[I];
    std::sort(Cs.begin(), Cs.end());
    double Covered = 0, Reach = S.Start;
    for (auto [Lo, Hi] : Cs) {
      Lo = std::max(Lo, Reach);
      Hi = std::min(Hi, S.End);
      if (Hi > Lo) {
        Covered += Hi - Lo;
        Reach = Hi;
      }
    }
    Self[I] = std::max(0.0, (S.End - S.Start) - Covered);
  }
  return Self;
}

std::string_view layerOf(std::string_view SpanName) {
  return SpanName.substr(0, SpanName.find('.'));
}

} // namespace perfbench
