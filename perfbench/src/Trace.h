//===- Trace.h - Benchmark-side layer spans ---------------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark wraps around each call it makes into a layer's
/// public function. Spans live in memory for the whole run and are written
/// once at exit as Chrome trace-event JSON (chrome://tracing, Perfetto).
/// A null Tracer pointer turns every span into a no-op, so the untraced
/// run pays one predictable branch per call site.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// One closed interval on the benchmark's (single) client thread.
struct Span {
  /// Layer call, named `<src module>.<function>` (a string literal).
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  /// Index of the enclosing span in the trace, -1 for a root.
  int32_t Parent = -1;
  /// Job the span belongs to (all spans of one job share it).
  uint64_t Job = 0;
};

class Tracer {
public:
  /// Opens a span nested in the innermost open one; returns its index.
  size_t begin(const char *Name);
  /// Closes the span \p Index (must be the innermost open one).
  void end(size_t Index);
  /// Job id stamped on spans opened from now on.
  void setJob(uint64_t Job) { CurrentJob = Job; }

  const std::vector<Span> &spans() const { return Spans; }

  static int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

private:
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
  uint64_t CurrentJob = 0;
};

/// RAII span; a no-op when \p T is null.
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, const char *Name)
      : T(T), Index(T ? T->begin(Name) : 0) {}
  ~ScopedSpan() {
    if (T)
      T->end(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer *T;
  size_t Index;
};

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once).
std::vector<int64_t> selfTimesNs(const std::vector<Span> &Spans);

/// Sums self times per span name, in nanoseconds.
std::map<std::string, int64_t> selfTimeByName(const std::vector<Span> &Spans);

/// Writes \p Spans as a Chrome trace-event JSON object of complete ("X")
/// events; timestamps are microseconds relative to the first span.
void writeChromeTrace(std::ostream &OS, const std::vector<Span> &Spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
