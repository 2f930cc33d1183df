//===- Trace.h - In-memory span recorder for the traced run -----*- C++ -*-===//
///
/// \file
/// Spans recorded from the benchmark's own files around the calls it makes
/// into each Locus layer. A span carries its name ("<layer>.<operation>"),
/// start, end, the span that caused it and the id of the search point it
/// belongs to (0 for set-up work). Spans stay in memory and are written out
/// once the run ends, so recording costs two clock reads and a vector push.
///
/// Nesting follows the calling thread: a span's parent is the innermost span
/// still open on the same thread. A thread with no open span (an evaluation
/// pool worker) parents its spans to the tracer's async parent, the span
/// that dispatched the work, so a parent's self time never counts the time
/// its pool threads were busy on its behalf.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_PERFBENCH_TRACE_H
#define LOCUS_PERFBENCH_TRACE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic clock in seconds.
double nowSeconds();

struct Span {
  std::string Name;
  double Start = 0;
  double End = 0;
  int Parent = -1;
  uint64_t Point = 0;
};

class Tracer {
public:
  /// Opens a span on the calling thread. A zero \p Point inherits the
  /// parent's point id.
  int begin(std::string_view Name, uint64_t Point = 0);
  void end(int Id);

  /// Parent for spans opened on threads that have no open span.
  void setAsyncParent(int Id);

  /// Copy of every recorded span (call once no span is open).
  std::vector<Span> spans() const;

  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool writeChromeTrace(const std::string &Path) const;

private:
  mutable std::mutex M; ///< guards Spans and AsyncParent
  std::vector<Span> Spans;
  int AsyncParent = -1;
};

/// Opens a span for the lifetime of the object; a null tracer records
/// nothing.
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, std::string_view Name, uint64_t Point = 0)
      : T(T), Id(T ? T->begin(Name, Point) : -1) {}
  ~ScopedSpan() {
    if (T)
      T->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  int id() const { return Id; }

private:
  Tracer *T;
  int Id;
};

/// Self time of every span: its duration minus the union of the intervals
/// its child spans cover.
std::vector<double> selfTimes(const std::vector<Span> &Spans);

/// The layer a span belongs to: its name up to the first '.'.
std::string_view layerOf(std::string_view SpanName);

} // namespace perfbench

#endif // LOCUS_PERFBENCH_TRACE_H
