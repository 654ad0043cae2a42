//===- main.cpp - End-to-end + per-layer benchmark driver -----------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload fig-sweep|driver-gen|serve-mixed --seed N
///           --seconds S --trace 0|1 [--root DIR] [--trace-out FILE]
///
/// Generates the workload's job list from the seed, runs one untimed
/// warm-up block, then runs a closed loop (one client thread) for S
/// seconds, sampling the program's set-up before and during it. With --trace 0 it prints the end-to-end
/// metrics. With --trace 1 the loop's blocks alternate untraced and
/// traced; it prints the per-layer metrics and writes the spans as Chrome
/// trace JSON. Every output is checked; the last stdout line is one JSON
/// object, and the exit code is 1 when any check failed.
///
//===----------------------------------------------------------------------===//

#include "Jobs.h"
#include "Stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  std::string Root = ".";
  std::string TraceOut;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig-sweep|driver-gen|serve-mixed --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--trace-out FILE]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !Value.empty();
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      if (*End != '\0' || !(A.Seconds > 0 && A.Seconds <= 600))
        usage("--seconds needs a number in (0, 600]");
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        usage("--trace needs 0 or 1");
      A.Trace = Value == "1";
    } else if (Flag == "--root") {
      A.Root = Value;
    } else if (Flag == "--trace-out") {
      A.TraceOut = Value;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (A.Workload.empty() || !HaveSeed || A.Seconds <= 0 || A.Trace < 0)
    usage("--workload, --seed, --seconds and --trace are required");
  return A;
}

//===----------------------------------------------------------------------===//
// Machine-speed calibration
//===----------------------------------------------------------------------===//

/// Host times are reported at a reference machine speed: one on which the
/// calibration kernel below takes exactly this long. The shared hosts this
/// benchmark runs on change speed by 20% and more over seconds (other
/// tenants), which moves every host time together; the kernel, timed
/// between jobs, sees the same changes, and scaling by it removes most of
/// them. The kernel is the benchmark's own code, so a change to the
/// program moves the scaled figures exactly as it moves the raw ones.
constexpr double ReferenceCalibrationNs = 500000;
/// How often the kernel is timed during a phase.
constexpr int64_t CalibrationPeriodNs = 50000000;

/// Best of two runs of a fixed piece of host work: an integer matrix
/// product, a map churn and a 256 KiB copy (about 0.5 ms).
double calibrationNs() {
  static std::vector<int32_t> A(48 * 48, 3), B(48 * 48, 5), C(48 * 48);
  static std::vector<char> Src(256 * 1024, 1), Dst(256 * 1024);
  int64_t Best = 0;
  for (int Run = 0; Run < 2; ++Run) {
    int64_t Start = Tracer::nowNs();
    for (int I = 0; I < 48; ++I)
      for (int J = 0; J < 48; ++J) {
        int32_t Sum = 0;
        for (int K = 0; K < 48; ++K)
          Sum += A[I * 48 + K] * B[K * 48 + J];
        C[I * 48 + J] = Sum;
      }
    std::map<int, int> M;
    for (int I = 0; I < 2000; ++I)
      M[(I * 7919) % 4093] += I;
    std::memcpy(Dst.data(), Src.data(), Src.size());
    volatile int Sink = C[7] + M.begin()->second + Dst[100];
    (void)Sink;
    int64_t Ns = Tracer::nowNs() - Start;
    Best = Run == 0 ? Ns : std::min(Best, Ns);
  }
  return static_cast<double>(Best);
}

/// Raw host time divided by this is time at the reference speed.
double speedScale(const std::vector<double> &CalibrationNs) {
  return median(CalibrationNs) / ReferenceCalibrationNs;
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

/// Samples the program's set-up across the run, so the samples see the
/// same changes of machine speed as the loop (the calibration kernel
/// tracks set-up, which is allocation-heavy, only in part). A sample is
/// a group of back-to-back repetitions, each untimed tearDown() then timed
/// setUp(), at least SetupGroupNs of set-up work; it is scaled to the
/// reference speed by kernel runs on either side. `setup_s` is the median
/// sample's mean repetition.
///
/// Each group runs in a forked child, so it can be taken between any two
/// jobs without disturbing the workload. Run in the benchmark's own
/// process, the groups' allocations, placed at timing-dependent points of
/// the job sequence, also changed the heap's layout from run to run:
/// serve-mixed's peak RSS then moved by 15% between runs of the same seed,
/// against 1.5% without them.
class SetupSampler {
public:
  explicit SetupSampler(Workload &W) : W(W) {
    W.tearDown();
    int64_t Start = Tracer::nowNs();
    W.setUp();
    int64_t OneNs = std::max<int64_t>(1, Tracer::nowNs() - Start);
    W.tearDown();
    Reps = std::clamp<int64_t>(SetupGroupNs / OneNs + 1, 1, 100000);
  }

  void sample() {
    int Fds[2];
    if (pipe(Fds) != 0)
      throw std::runtime_error("cannot create a pipe for a set-up sample");
    double Before = calibrationNs();
    pid_t Child = fork();
    if (Child < 0)
      throw std::runtime_error("cannot fork a set-up sample");
    if (Child == 0) {
      close(Fds[0]);
      _exit(timeGroupNs(Fds[1]));
    }
    close(Fds[1]);
    int64_t SumNs = 0;
    bool Read = read(Fds[0], &SumNs, sizeof(SumNs)) == sizeof(SumNs);
    close(Fds[0]);
    int Status = 0;
    bool Exited = waitpid(Child, &Status, 0) == Child && WIFEXITED(Status) &&
                  WEXITSTATUS(Status) == 0;
    if (!Read || !Exited)
      throw std::runtime_error("a set-up sample failed");
    double Scale = (Before + calibrationNs()) / 2 / ReferenceCalibrationNs;
    PerRepS.push_back(static_cast<double>(SumNs) / 1e9 /
                      static_cast<double>(Reps) / Scale);
  }

  double seconds() const { return median(PerRepS); }
  size_t samples() const { return PerRepS.size(); }

private:
  static constexpr int64_t SetupGroupNs = 50000000;

  /// The child's side: times the group, writes the sum to \p Fd and
  /// returns the exit code.
  int timeGroupNs(int Fd) {
    try {
      // The first set-up after the fork pays for copying the pages it
      // writes; that is not set-up work.
      W.tearDown();
      W.setUp();
      int64_t SumNs = 0;
      for (int64_t I = 0; I < Reps; ++I) {
        W.tearDown();
        int64_t Start = Tracer::nowNs();
        W.setUp();
        SumNs += Tracer::nowNs() - Start;
      }
      W.tearDown();
      return write(Fd, &SumNs, sizeof(SumNs)) == sizeof(SumNs) ? 0 : 1;
    } catch (...) {
      return 1;
    }
  }

  Workload &W;
  int64_t Reps = 1;
  std::vector<double> PerRepS;
};

/// The loop's interval between set-up samples.
constexpr int64_t SetupPeriodNs = 1000000000;

//===----------------------------------------------------------------------===//
// The closed loop
//===----------------------------------------------------------------------===//

/// What the timed loop did in one mode (untraced or traced). Elapsed time
/// excludes the pauses for calibration and set-up samples.
struct Phase {
  uint64_t Jobs = 0;
  uint64_t Failed = 0;
  double ElapsedS = 0;
  /// Host latency of each job, scaled to the reference speed.
  std::vector<double> LatencyMs;
  /// Jobs per second of each completed block, scaled likewise, and the
  /// block's number in the list (StepResult::Block).
  std::vector<double> BlockRates;
  std::vector<unsigned> BlockIds;
  std::vector<double> CalibrationNs;
};

void addCounts(Phase &Into, const StepResult &Step) {
  Into.Jobs += Step.Jobs;
  Into.Failed += Step.Failed;
}

/// Runs the closed loop for \p Seconds from the current position of the
/// list. Without a tracer every block runs untraced into \p Untraced. With
/// one, blocks alternate untraced, traced, untraced, ... so both modes see
/// the same drift of the machine's speed. A traced loop runs on past \p Seconds
/// until it has traced at least one job. With \p Setup, a set-up sample
/// is taken between jobs every SetupPeriodNs.
void runLoop(Workload &W, Tracer *T, SetupSampler *Setup, double Seconds,
             Phase &Untraced, Phase &Traced) {
  // The current block (see StepResult::EndsBlock) and its speed samples.
  std::vector<double> BlockLatency, BlockCalibration = {calibrationNs()};
  uint64_t BlockJobs = 0;
  bool BlockTraced = false;
  int64_t Start = Tracer::nowNs();
  int64_t Deadline = Start + static_cast<int64_t>(Seconds * 1e9);
  int64_t LastCalibration = Start, LastSetup = Start, BlockStart = Start,
          BlockPaused = 0;
  bool Done;
  do {
    Phase &P = BlockTraced ? Traced : Untraced;
    StepResult Step = W.step(BlockTraced ? T : nullptr);
    addCounts(P, Step);
    BlockJobs += Step.Jobs;
    BlockLatency.insert(BlockLatency.end(), Step.LatencyMs.begin(),
                        Step.LatencyMs.end());
    int64_t Now = Tracer::nowNs();
    if (Now - LastCalibration >= CalibrationPeriodNs) {
      BlockCalibration.push_back(calibrationNs());
      int64_t After = Tracer::nowNs();
      BlockPaused += After - Now;
      Now = LastCalibration = After;
    }
    if (Setup && Now - LastSetup >= SetupPeriodNs) {
      Setup->sample();
      int64_t After = Tracer::nowNs();
      BlockPaused += After - Now;
      Now = LastSetup = After;
    }
    Done = Now >= Deadline && (!T || Traced.Jobs > 0);
    if (Step.EndsBlock || Done) {
      double Scale = speedScale(BlockCalibration);
      double BlockS = static_cast<double>(Now - BlockStart - BlockPaused) / 1e9;
      if (Step.EndsBlock) {
        P.BlockRates.push_back(static_cast<double>(BlockJobs) / BlockS * Scale);
        P.BlockIds.push_back(Step.Block);
      }
      for (double Ms : BlockLatency)
        P.LatencyMs.push_back(Ms / Scale);
      P.CalibrationNs.insert(P.CalibrationNs.end(), BlockCalibration.begin(),
                             BlockCalibration.end());
      P.ElapsedS += BlockS;
      BlockStart = Now;
      BlockPaused = 0;
      BlockJobs = 0;
      BlockLatency.clear();
      BlockCalibration = {BlockCalibration.back()};
      if (T && Step.EndsBlock)
        BlockTraced = !BlockTraced;
    }
  } while (!Done);
}

/// Host throughput at the reference speed: the median over completed
/// blocks, which a burst of outside load moves less than the mean does;
/// the whole-phase rate when no block completed.
double jobsPerSecond(const Phase &P) {
  return P.BlockRates.empty() ? static_cast<double>(P.Jobs) / P.ElapsedS *
                                    speedScale(P.CalibrationNs)
                              : median(P.BlockRates);
}

/// Tracing overhead from interleaved blocks running the same jobs: per
/// block number, the median untraced over the median traced block
/// throughput; the median of those ratios minus one. (fig-sweep's rounds
/// differ in cost, so neighbouring blocks, which hold different rounds,
/// are not compared.) From the whole phases when no block number
/// completed in both modes.
double traceOverhead(const Phase &Untraced, const Phase &Traced) {
  auto ratesOf = [](const Phase &P) {
    std::map<unsigned, std::vector<double>> ById;
    for (size_t I = 0; I < P.BlockRates.size(); ++I)
      ById[P.BlockIds[I]].push_back(P.BlockRates[I]);
    return ById;
  };
  std::map<unsigned, std::vector<double>> U = ratesOf(Untraced),
                                          T = ratesOf(Traced);
  std::vector<double> Ratios;
  for (const auto &[Id, Rates] : U)
    if (T.count(Id))
      Ratios.push_back(median(Rates) / median(T[Id]));
  return Ratios.empty() ? jobsPerSecond(Untraced) / jobsPerSecond(Traced) - 1
                        : median(Ratios) - 1;
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

/// One span-derived per-layer time: self time per job of a span name.
struct SpanMetric {
  const char *Metric;
  const char *Span;
};

const SpanMetric SpanTimes[] = {
    {"parser.config_parse_ms", "parser.config_parse"},
    {"ir.build_ms", "ir.build"},
    {"ir.parse_ms", "ir.parse"},
    {"ir.verify_ms", "ir.verify"},
    {"transforms.convert_named_to_generic_ms",
     "transforms.convert_named_to_generic"},
    {"transforms.match_and_annotate_ms", "transforms.match_and_annotate"},
    {"transforms.lower_to_accel_ms", "transforms.lower_to_accel"},
    {"transforms.convert_accel_to_runtime_ms",
     "transforms.convert_accel_to_runtime"},
    {"codegen.emit_c_ms", "codegen.emit_c"},
    {"exec.compile_ms", "exec.compile"},
    {"exec_opt.optimize_ms", "exec_opt.optimize"},
    {"analysis.verify_plan_ms", "analysis.verify_plan"},
    {"exec.decode_ms", "exec.decode"},
    {"exec.destroy_ms", "exec.destroy"},
    {"ir.destroy_ms", "ir.destroy"},
    {"sim.soc_setup_ms", "sim.soc_setup"},
    {"exec.make_data_ms", "exec.make_data"},
    {"exec.run_ms.axi4mlir", "exec.run.axi4mlir"},
    {"exec.run_ms.manual", "exec.run.manual"},
    {"exec.run_ms.cpu", "exec.run.cpu"},
    {"exec.reference_ms", "exec.reference"},
    {"serve.lifecycle_ms", "serve.lifecycle"},
    {"serve.take_outcomes_ms", "serve.take_outcomes"},
    {"bench.self_ms", "bench.job"},
};

/// The accounting check fails when more of the traced jobs' time than this
/// lies outside every layer span.
constexpr double MaxUnspannedShare = 0.02;

/// Per-layer metrics the workloads derive from counters (0 where a
/// workload does not exercise the layer).
const std::pair<const char *, const char *> CounterMetrics[] = {
    {"exec.reference_share", "fraction"},
    {"exec.run_ns_per_l1d_access", "ns"},
    {"exec.run_ns_per_dma_word", "ns"},
    {"exec.specialized_kernels", "count"},
    {"codegen.c_bytes", "B"},
    {"exec_opt.rewrites", "count"},
    {"analysis.findings", "count"},
    {"serve.submit_us", "us"},
    {"serve.drain_ms", "ms"},
    {"serve.plan_cache_hit_ratio", "fraction"},
    {"serve.retries", "count"},
    {"serve.failovers", "count"},
    {"serve.breaker_trips", "count"},
    {"serve.cpu_fallbacks", "count"},
    {"serve.shed", "count"},
    {"sim.l1d_accesses", "count"},
    {"sim.cache_refs", "count"},
    {"sim.cache_misses", "count"},
    {"sim.dma_transfers", "count"},
    {"sim.dma_bytes", "B"},
    {"sim.host_cycles", "cycles"},
    {"sim.fabric_cycles", "cycles"},
    {"sim.repeat_drift", "fraction"},
    {"modeled_task_clock_ms", "ms"},
    {"modeled_cache_refs", "count"},
    {"modeled_speedup_vs_manual", "x"},
};

/// Peak resident set of this process image. VmHWM, not getrusage: Linux
/// carries ru_maxrss across execve, so under a launcher it would report
/// the launcher's footprint.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(),
                std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0,
                Metrics[I].Unit);
  std::printf("}}\n");
}

std::vector<Metric> layerMetrics(const Workload &W, const Tracer &T,
                                 const Phase &Untraced, const Phase &Traced,
                                 bool &Accounted) {
  std::vector<Metric> Metrics;
  // Every time below is at the reference speed, like the end-to-end ones.
  double TracedScale = speedScale(Traced.CalibrationNs);
  double UntracedScale = speedScale(Untraced.CalibrationNs);
  std::map<std::string, int64_t> SelfNs = selfTimeByName(T.spans());
  for (auto &Entry : SelfNs)
    Entry.second = static_cast<int64_t>(
        std::llround(static_cast<double>(Entry.second) / TracedScale));
  double Jobs = static_cast<double>(std::max<uint64_t>(1, Traced.Jobs));
  double SelfSumNs = 0;
  for (const auto &Entry : SelfNs)
    SelfSumNs += static_cast<double>(Entry.second);
  for (const SpanMetric &S : SpanTimes) {
    auto It = SelfNs.find(S.Span);
    double Ns = It == SelfNs.end() ? 0 : static_cast<double>(It->second);
    Metrics.push_back({S.Metric, Ns / Jobs / 1e6, "ms"});
  }
  LayerValues Values = W.layerValues(SelfNs, Traced.Jobs);
  auto Reference = SelfNs.find("exec.reference");
  if (Reference != SelfNs.end() && SelfSumNs > 0)
    Values["exec.reference_share"] =
        static_cast<double>(Reference->second) / SelfSumNs;
  for (const auto &[Name, Unit] : CounterMetrics)
    Metrics.push_back({Name, Values.count(Name) ? Values[Name] : 0.0, Unit});

  double UntracedJobMs =
      Untraced.ElapsedS * 1e3 / Untraced.Jobs / UntracedScale;
  double Overhead = traceOverhead(Untraced, Traced);
  double TracedJobMs = SelfSumNs / Jobs / 1e6;
  Metrics.push_back({"bench.trace_overhead", Overhead, "fraction"});
  Metrics.push_back({"bench.traced_job_ms", TracedJobMs, "ms"});
  Metrics.push_back({"bench.untraced_job_ms", UntracedJobMs, "ms"});
  // Each traced job runs inside its bench.job span, so the self times of
  // all spans partition the traced jobs' time, and the root's own self time
  // is the part no layer span covers. A layer call made without a span
  // lands there, so that share is the check. Given it, the layer self times
  // sum to the untraced job time up to the tracing overhead.
  auto Root = SelfNs.find("bench.job");
  double Unspanned = Root == SelfNs.end() || SelfSumNs <= 0
                         ? 1
                         : static_cast<double>(Root->second) / SelfSumNs;
  Accounted = Unspanned <= MaxUnspannedShare;
  std::printf("layer self times sum to %.6f ms/job, %.4f of the traced job "
              "time is in no layer span (at most %.2f): %s; untraced job "
              "%.6f ms, trace overhead %.4f\n",
              TracedJobMs * (1 - Unspanned), Unspanned, MaxUnspannedShare,
              Accounted ? "accounted" : "NOT ACCOUNTED", UntracedJobMs,
              Overhead);
  return Metrics;
}

int run(const Args &A) {
  std::unique_ptr<Workload> W;
  if (A.Workload == "fig-sweep")
    W = makeFigSweepWorkload(A.Seed);
  else if (A.Workload == "driver-gen")
    W = makeDriverGenWorkload(A.Seed, A.Root);
  else if (A.Workload == "serve-mixed")
    W = makeServeMixedWorkload(A.Seed, A.Root);
  else
    usage(("unknown workload " + A.Workload).c_str());

  // Warm-up, excluded from timing but still checked: one block, so every
  // buffer size of the mix has been allocated once. (After a single job the
  // first timed block still ran about 13% slower on fig-sweep and
  // serve-mixed: the C library's allocator adapts to each new large size.)
  W->restart();
  Phase Checked;
  for (bool Done = false; !Done;) {
    StepResult Step = W->step(nullptr);
    addCounts(Checked, Step);
    Done = Step.EndsBlock;
  }
  W->restart();

  Phase Untraced, Traced;
  Tracer T;
  std::optional<SetupSampler> Setup;
  if (!A.Trace) {
    Setup.emplace(*W);
    Setup->sample();
  }
  runLoop(*W, A.Trace ? &T : nullptr, Setup ? &*Setup : nullptr, A.Seconds,
          Untraced, Traced);
  addCounts(Checked, W->finish());
  uint64_t Attempted = Checked.Jobs + Untraced.Jobs + Traced.Jobs;
  uint64_t Failed = Checked.Failed + Untraced.Failed + Traced.Failed;
  bool Correct = Failed == 0;

  double Scale = speedScale(Untraced.CalibrationNs);
  std::printf("perfbench %s seed %llu: %llu jobs per pass, %.3f s untraced "
              "(%llu jobs, %.1f raw jobs/s)%s\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              static_cast<unsigned long long>(W->passLength()),
              Untraced.ElapsedS,
              static_cast<unsigned long long>(Untraced.Jobs),
              static_cast<double>(Untraced.Jobs) / Untraced.ElapsedS,
              A.Trace ? ", alternating with traced blocks" : "");
  std::printf("calibration kernel: median %.1f us (reference %.1f us; host "
              "times below are scaled by %.4f)\n",
              median(Untraced.CalibrationNs) / 1e3,
              ReferenceCalibrationNs / 1e3, 1 / Scale);
  W->printReport();

  std::vector<Metric> Metrics;
  if (!A.Trace) {
    Tail Tl = tailPercentile(Untraced.LatencyMs);
    Metrics = {{"jobs_per_s", jobsPerSecond(Untraced), "1/s"},
               {"job_p50_ms", median(Untraced.LatencyMs), "ms"},
               {"job_tail_ms", Tl.Value, "ms"},
               {"ok_frac",
                static_cast<double>(Attempted - Failed) /
                    static_cast<double>(Attempted),
                "fraction"},
               {"setup_s", Setup->seconds(), "s"},
               {"peak_rss_mb", peakRssMb(), "MB"}};
    std::printf("job_tail_ms is p%g over %zu samples (%zu beyond); setup_s "
                "is the median of %zu set-up samples\n",
                Tl.Percentile, Tl.Samples, Tl.Beyond, Setup->samples());
  } else {
    bool Accounted = false;
    Metrics = layerMetrics(*W, T, Untraced, Traced, Accounted);
    Correct = Correct && Accounted;
    if (!A.TraceOut.empty()) {
      std::ofstream Out(A.TraceOut);
      writeChromeTrace(Out, T.spans());
      Out.close();
      if (!Out) {
        std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                     A.TraceOut.c_str());
        return 2;
      }
      std::printf("trace: %zu spans written to %s\n", T.spans().size(),
                  A.TraceOut.c_str());
    }
  }
  for (const Metric &M : Metrics)
    std::printf("  %-40s %.15g %s\n", M.Name.c_str(), M.Value, M.Unit);
  printResult(Correct, Attempted, Failed, Metrics);
  return Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  try {
    return run(A);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 2;
  }
}
