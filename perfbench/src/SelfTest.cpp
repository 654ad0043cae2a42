//===- SelfTest.cpp - Tests of the benchmark's own arithmetic -------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tail-percentile selection, span self-time arithmetic, Chrome trace
/// well-formedness and seed determinism of the job generators. Exits 1 on
/// the first failed check group (all groups run).
///
//===----------------------------------------------------------------------===//

#include "Jobs.h"
#include "Stats.h"
#include "Trace.h"

#include "support/JSON.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

using namespace perfbench;
using namespace axi4mlir;

namespace {

int Failures = 0;

void expect(bool Condition, const char *What, int Line) {
  if (Condition)
    return;
  ++Failures;
  std::fprintf(stderr, "SelfTest.cpp:%d: FAILED: %s\n", Line, What);
}
#define EXPECT(Cond) expect((Cond), #Cond, __LINE__)

std::vector<double> ramp(size_t N) {
  std::vector<double> Values;
  // Descending, so the selection must sort.
  for (size_t I = N; I >= 1; --I)
    Values.push_back(static_cast<double>(I));
  return Values;
}

void testTailPercentile() {
  // 19 samples: not even p50 has 10 beyond it; report p50 and say so.
  Tail T = tailPercentile(ramp(19));
  EXPECT(T.Percentile == 50 && T.Value == 10 && T.Beyond == 9);
  // 20 samples: p50 has exactly 10 beyond.
  T = tailPercentile(ramp(20));
  EXPECT(T.Percentile == 50 && T.Value == 10 && T.Beyond == 10);
  // 100 samples: p90 (10 beyond), not p99 (1 beyond).
  T = tailPercentile(ramp(100));
  EXPECT(T.Percentile == 90 && T.Value == 90 && T.Beyond == 10);
  // 200: still p90; the ladder has no p95. 999: p99 leaves only 9, so
  // p90. 1000: p99 exactly.
  T = tailPercentile(ramp(200));
  EXPECT(T.Percentile == 90 && T.Value == 180 && T.Beyond == 20);
  T = tailPercentile(ramp(999));
  EXPECT(T.Percentile == 90 && T.Value == 900 && T.Beyond == 99);
  T = tailPercentile(ramp(1000));
  EXPECT(T.Percentile == 99 && T.Value == 990 && T.Beyond == 10);
  // The ladder stops at p99, however many samples there are.
  T = tailPercentile(ramp(10000));
  EXPECT(T.Percentile == 99 && T.Value == 9900 && T.Beyond == 100);
  EXPECT(tailPercentile({}).Samples == 0);
  EXPECT(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5);
}

void testSelfTimes() {
  // root [0,100] -> a [10,40] -> leaf [15,20]
  //             -> b [30,60] (overlaps a: the overlap counts once)
  //             -> c [90,120] (runs past the root: clipped)
  std::vector<Span> Spans(5);
  Spans[0] = {"root", 0, 100, -1, 1};
  Spans[1] = {"a", 10, 40, 0, 1};
  Spans[2] = {"leaf", 15, 20, 1, 1};
  Spans[3] = {"b", 30, 60, 0, 1};
  Spans[4] = {"a", 90, 120, 0, 1};
  std::vector<int64_t> Self = selfTimesNs(Spans);
  EXPECT(Self[0] == 100 - 50 - 10);
  EXPECT(Self[1] == 30 - 5);
  EXPECT(Self[2] == 5);
  EXPECT(Self[3] == 30);
  EXPECT(Self[4] == 30);
  std::map<std::string, int64_t> ByName = selfTimeByName(Spans);
  EXPECT(ByName["a"] == 55 && ByName["root"] == 40 && ByName["leaf"] == 5);

  // A real tracer nests spans by scope and stamps the job id.
  Tracer T;
  T.setJob(7);
  {
    ScopedSpan Outer(&T, "outer");
    ScopedSpan Inner(&T, "inner");
  }
  EXPECT(T.spans().size() == 2);
  EXPECT(T.spans()[1].Parent == 0 && T.spans()[0].Parent == -1);
  EXPECT(T.spans()[1].Job == 7);
  EXPECT(T.spans()[0].StartNs <= T.spans()[1].StartNs &&
         T.spans()[1].EndNs <= T.spans()[0].EndNs);
  ScopedSpan Untraced(nullptr, "ignored");
}

void testChromeTrace() {
  std::vector<Span> Spans(3);
  Spans[0] = {"bench.job", 5000, 9000, -1, 3};
  Spans[1] = {"odd \"name\" \\ slash", 5500, 6000, 0, 3};
  Spans[2] = {"exec.reference", 6000, 8500, 0, 3};
  std::ostringstream OS;
  writeChromeTrace(OS, Spans);
  std::string Error;
  auto Parsed = json::parse(OS.str(), &Error);
  EXPECT(succeeded(Parsed));
  if (failed(Parsed)) {
    std::fprintf(stderr, "%s\n%s\n", Error.c_str(), OS.str().c_str());
    return;
  }
  const json::Value *Events = Parsed->get("traceEvents");
  EXPECT(Events && Events->isArray() && Events->array().size() == 3);
  if (!Events || !Events->isArray() || Events->array().size() != 3)
    return;
  const json::Value &First = Events->array()[0];
  EXPECT(First.get("ph") && First.get("ph")->asString() == "X");
  EXPECT(First.get("ts") && First.get("ts")->asDouble() == 0);
  EXPECT(First.get("dur") && First.get("dur")->asDouble() == 4);
  const json::Value &Odd = Events->array()[1];
  EXPECT(Odd.get("name") &&
         Odd.get("name")->asString() == "odd \"name\" \\ slash");
  const json::Value *Args = Odd.get("args");
  EXPECT(Args && Args->get("parent") && Args->get("parent")->asDouble() == 0);
  EXPECT(Args && Args->get("job") && Args->get("job")->asDouble() == 3);

  // Control characters are \u-escaped (the config parser above does not
  // decode \u, so check the raw text).
  std::ostringstream Tab;
  writeChromeTrace(Tab, {{"a\tb", 0, 1, -1, 0}});
  EXPECT(Tab.str().find("\"a\\u0009b\"") != std::string::npos);

  std::ostringstream Empty;
  writeChromeTrace(Empty, {});
  EXPECT(succeeded(json::parse(Empty.str())));
}

template <typename T> std::vector<std::string> describeAll(const std::vector<T> &Items) {
  std::vector<std::string> Out;
  for (const T &Item : Items)
    Out.push_back(describe(Item));
  return Out;
}

void testSeedDeterminism() {
  EXPECT(describeAll(makeFigSweep(1)) == describeAll(makeFigSweep(1)));
  EXPECT(describeAll(makeFigSweep(1)) != describeAll(makeFigSweep(2)));
  std::vector<std::string> Configs = {"matmul", "both", "conv", ""};
  std::vector<std::string> Examples = {"conv", "matmul", "matmul"};
  EXPECT(describeAll(makeDriverGen(5, Configs, Examples)) ==
         describeAll(makeDriverGen(5, Configs, Examples)));
  EXPECT(describeAll(makeDriverGen(5, Configs, Examples)) !=
         describeAll(makeDriverGen(6, Configs, Examples)));
  EXPECT(describeAll(makeServeStream(9)) == describeAll(makeServeStream(9)));
  EXPECT(describeAll(makeServeStream(9)) != describeAll(makeServeStream(10)));

  // The fig sweep covers the same design space for every seed: one point
  // per Table I accelerator, flow and size class, two large points per
  // round (one of them a multiple of 32 in every dim), plus one conv in
  // six.
  std::vector<FigPoint> Points = makeFigSweep(3);
  size_t Conv = 0, Manual = 0, Partial = 0, Large = 0, LargeAligned = 0;
  for (const FigPoint &P : Points) {
    Conv += P.IsConv;
    Manual += P.ManualSupported && !P.IsConv;
    Partial += !P.ManualSupported;
    const exec::MatMulRunConfig &M = P.MatMul;
    if (P.IsConv || std::min(M.M, M.N) < 120)
      continue;
    ++Large;
    LargeAligned += M.M % 32 == 0 && M.N % 32 == 0 && M.K % 32 == 0;
  }
  EXPECT(Points.size() == 108 + 6 + 21 && Conv == 21);
  EXPECT(Large == 6 && LargeAligned >= 3);
  EXPECT(Manual > 0 && Partial > 0);
  // Every config gets jobs for each kernel it lowers; none for "".
  for (const DriverGenJob &Job : makeDriverGen(5, Configs, Examples))
    EXPECT(Job.Config != 3);
}

} // namespace

int main() {
  testTailPercentile();
  testSelfTimes();
  testChromeTrace();
  testSeedDeterminism();
  if (Failures) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
