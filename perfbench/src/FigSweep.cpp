//===- FigSweep.cpp - Closed loop over paper design points ----------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Untraced steps call exec::runMatMulAxi4mlir / runMatMulManual /
/// runMatMulCpuOnly (runConv* for conv points) with validation on. Traced
/// steps make the same layer calls those entry points make, in the same
/// order (exec/Pipeline.cpp and exec/Interpreter.cpp), each in a span, and
/// must reproduce the untraced modeled report exactly. Every SoC is fresh,
/// so every job starts with empty modeled caches.
///
//===----------------------------------------------------------------------===//

#include "Jobs.h"
#include "Layers.h"

#include "dialects/InitAllDialects.h"
#include "exec/AccelConfigs.h"
#include "exec/Reference.h"
#include "exec/opt/PlanOpt.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

using namespace perfbench;
using namespace axi4mlir;
using runtime::MemRefDesc;

namespace {

/// The modeled reports of one design point's variants.
struct PointReports {
  sim::PerfReport Axi4mlir, Manual, Cpu;
  bool HasManual = false, HasCpu = false;
};

/// The counters that do not depend on where the host heap placed the
/// buffers. The cache model is indexed by real host addresses, so
/// CacheReferences, CacheMisses, HostCycles and TaskClockMs can differ
/// between two runs of the same job (within a process, and across
/// processes through address-space randomization); those are compared as
/// a drift instead.
bool sameAddressFreeCounters(const sim::PerfReport &A,
                             const sim::PerfReport &B) {
  return A.Instructions == B.Instructions &&
         A.BranchInstructions == B.BranchInstructions && A.Loads == B.Loads &&
         A.Stores == B.Stores && A.L1DAccesses == B.L1DAccesses &&
         A.FabricCycles == B.FabricCycles &&
         A.DmaTransfers == B.DmaTransfers &&
         A.DmaBytesMoved == B.DmaBytesMoved;
}

double taskClockDrift(const sim::PerfReport &A, const sim::PerfReport &B) {
  return A.TaskClockMs > 0 ? std::fabs(A.TaskClockMs - B.TaskClockMs) /
                                 A.TaskClockMs
                           : 0;
}

//===----------------------------------------------------------------------===//
// Traced mirrors of the exec::run* entry points
//===----------------------------------------------------------------------===//

/// Input buffers exactly as exec/Pipeline.cpp fills them.
std::vector<MemRefDesc> makeBuffers(const std::vector<std::vector<int64_t>> &Shapes,
                                    sim::ElemKind Kind, uint32_t Seed) {
  std::vector<MemRefDesc> Buffers;
  for (size_t I = 0; I < Shapes.size(); ++I) {
    Buffers.push_back(MemRefDesc::alloc(Shapes[I], Kind));
    exec::fillRandom(Buffers.back(), Seed + static_cast<uint32_t>(I));
  }
  return Buffers;
}

std::vector<std::vector<int64_t>> matmulShapes(const exec::MatMulRunConfig &C) {
  return {{C.M, C.K}, {C.K, C.N}, {C.M, C.N}};
}

std::vector<std::vector<int64_t>> convShapes(const exec::ConvRunConfig &C) {
  int64_t OutHW = (C.InHW - C.FilterHW) / C.Stride + 1;
  return {{C.Batch, C.InChannels, C.InHW, C.InHW},
          {C.OutChannels, C.InChannels, C.FilterHW, C.FilterHW},
          {C.Batch, C.OutChannels, OutHW, OutHW}};
}

/// Counters the traced run accumulates for the per-layer ratios.
struct TracedCounters {
  uint64_t CpuL1DAccesses = 0;
  uint64_t AccelDmaWords = 0;
  uint64_t SpecializedKernels = 0;
};

/// Interpreter::run on a cold plan cache in threaded mode: compile,
/// optimize (default: no passes), decode, count the miss, run.
bool executeTraced(func::FuncOp Func, sim::SoC &Soc,
                   runtime::DmaRuntime *Runtime,
                   const std::vector<MemRefDesc> &Args, const char *RunSpan,
                   Tracer *T, TracedCounters &Counters, std::string &Error) {
  std::unique_ptr<exec::ExecPlan> Plan;
  {
    ScopedSpan S(T, "exec.compile");
    Plan = exec::ExecPlan::compile(Func, Error);
  }
  if (!Plan)
    return false;
  {
    ScopedSpan S(T, "exec_opt.optimize");
    exec::opt::optimizePlan(*Plan, exec::opt::PlanOptOptions());
  }
  std::unique_ptr<exec::DecodedPlan> Decoded;
  {
    ScopedSpan S(T, "exec.decode");
    Decoded = exec::DecodedPlan::decode(*Plan);
  }
  Counters.SpecializedKernels += Decoded->numSpecializedKernels();
  Soc.perf().onPlanCacheMiss();
  ScopedSpan S(T, RunSpan);
  return succeeded(Decoded->run(Soc, Runtime, Args, Error));
}

bool validateTraced(Tracer *T, const std::vector<MemRefDesc> &Args,
                    const MemRefDesc &OutInitial,
                    const exec::ConvRunConfig *Conv) {
  ScopedSpan S(T, "exec.reference");
  MemRefDesc Expected = exec::cloneMemRef(OutInitial);
  if (Conv) {
    exec::referenceConv2D(Args[0], Args[1], Expected, Conv->Stride,
                          Conv->Stride);
  } else {
    MemRefDesc A = exec::cloneMemRef(Args[0]), B = exec::cloneMemRef(Args[1]);
    exec::referenceMatMul(A, B, Expected);
  }
  return exec::memrefEquals(Expected, Args[2]);
}

exec::RunResult finishRun(bool Ok, bool Match, const std::string &Error,
                          const sim::SoC &Soc) {
  exec::RunResult Result;
  Result.Ok = Ok;
  Result.NumericsMatch = Ok && Match;
  Result.Error = Ok && !Match ? "numerical mismatch against the reference kernel"
                              : Error;
  Result.Report = Soc.report();
  return Result;
}

/// exec::runMatMulAxi4mlir / runConvAxi4mlir (fault-free, no spares).
exec::RunResult axi4mlirTraced(const FigPoint &P, Tracer *T,
                               TracedCounters &Counters) {
  std::string Error;
  MLIRContext Context;
  func::FuncOp Func;
  OwningOpRef Owner;
  {
    ScopedSpan S(T, "ir.build");
    registerAllDialects(Context);
    OpBuilder Builder(&Context);
    const exec::ConvRunConfig &C = P.Conv;
    Func = P.IsConv ? exec::buildConvFunc(Builder, C.Batch, C.InChannels,
                                          C.InHW, C.OutChannels, C.FilterHW,
                                          C.Stride, C.Kind)
                    : exec::buildMatMulFunc(Builder, P.MatMul.M, P.MatMul.N,
                                            P.MatMul.K, P.MatMul.Kind);
    Owner = OwningOpRef(Func.getOperation());
  }
  const exec::MatMulRunConfig &M = P.MatMul;
  parser::AcceleratorDesc Accel;
  {
    ScopedSpan S(T, "parser.config_parse");
    Accel = exec::parseSingleAccelerator(
        P.IsConv ? exec::makeConvConfigJson()
                 : exec::makeMatMulConfigJson(M.Version, M.AccelSize, M.Flow));
  }
  const sim::SoCParams &Params = P.IsConv ? P.Conv.Params : M.Params;
  transforms::LoweringOptions Options;
  Options.EnableCpuTiling = P.IsConv ? P.Conv.CpuTiling : M.CpuTiling;
  Options.CacheBytes = Params.L2SizeBytes;
  Options.Remainder = P.IsConv ? P.Conv.Remainder : M.Remainder;
  Options.CostParams = Params;
  std::vector<transforms::TilingPlan> Plans;
  if (!lowerTraced(Func, {Accel}, Options, T, Plans, Error))
    return exec::RunResult{false, false, Error, {}, {}};

  std::unique_ptr<sim::SoC> Soc;
  std::optional<runtime::DmaRuntime> Runtime;
  {
    ScopedSpan S(T, "sim.soc_setup");
    Soc = P.IsConv ? sim::makeConvSoC(P.Conv.Kind, P.Conv.Params)
                   : sim::makeMatMulSoC(M.Version, M.AccelSize, M.Kind,
                                        M.Params);
    Runtime.emplace(*Soc, P.IsConv ? P.Conv.SpecializeCopies
                                   : M.SpecializeCopies);
  }
  std::vector<MemRefDesc> Args;
  MemRefDesc OutInitial;
  {
    ScopedSpan S(T, "exec.make_data");
    Args = P.IsConv ? makeBuffers(convShapes(P.Conv), P.Conv.Kind, P.Conv.Seed)
                    : makeBuffers(matmulShapes(M), M.Kind, M.Seed);
    OutInitial = exec::cloneMemRef(Args[2]);
  }
  bool Ok = executeTraced(Func, *Soc, &*Runtime, Args, "exec.run.axi4mlir",
                          T, Counters, Error);
  bool Match = Ok && validateTraced(T, Args, OutInitial,
                                    P.IsConv ? &P.Conv : nullptr);
  return finishRun(Ok, Match, Error, *Soc);
}

/// exec::runMatMulManual / runConvManual.
exec::RunResult manualTraced(const FigPoint &P, Tracer *T) {
  const exec::MatMulRunConfig &M = P.MatMul;
  std::unique_ptr<sim::SoC> Soc;
  std::optional<runtime::DmaRuntime> Runtime;
  {
    ScopedSpan S(T, "sim.soc_setup");
    Soc = P.IsConv ? sim::makeConvSoC(P.Conv.Kind, P.Conv.Params)
                   : sim::makeMatMulSoC(M.Version, M.AccelSize, M.Kind,
                                        M.Params);
    Runtime.emplace(*Soc, /*SpecializeCopies=*/true);
  }
  std::vector<MemRefDesc> Args;
  MemRefDesc OutInitial;
  {
    ScopedSpan S(T, "exec.make_data");
    Args = P.IsConv ? makeBuffers(convShapes(P.Conv), P.Conv.Kind, P.Conv.Seed)
                    : makeBuffers(matmulShapes(M), M.Kind, M.Seed);
    OutInitial = exec::cloneMemRef(Args[2]);
  }
  bool Ok;
  {
    ScopedSpan S(T, "exec.run.manual");
    if (P.IsConv) {
      Ok = exec::runManualConv2D(*Runtime, Args[0], Args[1], Args[2],
                                 P.Conv.Stride, P.Conv.Stride);
    } else {
      exec::ManualMatMulConfig Manual;
      Manual.Version = M.Version;
      Manual.TileM = Manual.TileN = Manual.TileK = M.AccelSize;
      Manual.Flow = M.Flow;
      Ok = exec::runManualMatMul(*Runtime, Args[0], Args[1], Args[2], Manual);
    }
  }
  std::string Error =
      Ok ? "" : "manual driver protocol error: " + Runtime->errorMessage();
  bool Match = Ok && validateTraced(T, Args, OutInitial,
                                    P.IsConv ? &P.Conv : nullptr);
  return finishRun(Ok, Match, Error, *Soc);
}

/// exec::runMatMulCpuOnly.
exec::RunResult cpuTraced(const FigPoint &P, Tracer *T,
                          TracedCounters &Counters) {
  const exec::MatMulRunConfig &M = P.MatMul;
  std::string Error;
  MLIRContext Context;
  func::FuncOp Func;
  OwningOpRef Owner;
  {
    ScopedSpan S(T, "ir.build");
    registerAllDialects(Context);
    OpBuilder Builder(&Context);
    Func = exec::buildMatMulFunc(Builder, M.M, M.N, M.K, M.Kind);
    Owner = OwningOpRef(Func.getOperation());
  }
  {
    ScopedSpan S(T, "transforms.convert_named_to_generic");
    if (failed(transforms::convertNamedToGeneric(Func, Error)))
      return exec::RunResult{false, false, Error, {}, {}};
  }
  std::unique_ptr<sim::SoC> Soc;
  {
    ScopedSpan S(T, "sim.soc_setup");
    Soc = sim::makeCpuOnlySoC(M.Params);
  }
  std::vector<MemRefDesc> Args;
  MemRefDesc OutInitial;
  {
    ScopedSpan S(T, "exec.make_data");
    Args = makeBuffers(matmulShapes(M), M.Kind, M.Seed);
    OutInitial = exec::cloneMemRef(Args[2]);
  }
  bool Ok = executeTraced(Func, *Soc, nullptr, Args, "exec.run.cpu", T,
                          Counters, Error);
  bool Match = Ok && validateTraced(T, Args, OutInitial, nullptr);
  exec::RunResult Result = finishRun(Ok, Match, Error, *Soc);
  Counters.CpuL1DAccesses += Result.Report.L1DAccesses;
  return Result;
}

//===----------------------------------------------------------------------===//
// The workload
//===----------------------------------------------------------------------===//

class FigSweep : public Workload {
public:
  explicit FigSweep(uint64_t Seed)
      : Points(makeFigSweep(Seed)), Reports(Points.size()) {}

  void setUp() override {
    // What a design-space sweep sets up before its first job: the
    // accelerator description of every design point, and the dialects.
    for (const FigPoint &P : Points) {
      const exec::MatMulRunConfig &M = P.MatMul;
      Accels.push_back(exec::parseSingleAccelerator(
          P.IsConv ? exec::makeConvConfigJson()
                   : exec::makeMatMulConfigJson(M.Version, M.AccelSize,
                                                M.Flow)));
    }
    MLIRContext Context;
    registerAllDialects(Context);
  }

  void tearDown() override { Accels.clear(); }

  size_t passLength() const override { return Points.size(); }

  StepResult step(Tracer *T) override {
    size_t Index = Next++ % Points.size();
    int64_t Start = Tracer::nowNs();
    std::optional<ScopedSpan> Root;
    if (T) {
      T->setJob(Index);
      Root.emplace(T, "bench.job");
    }
    PointReports Got;
    bool Ok = runPoint(Points[Index], T, Got);
    Root.reset();
    double Ms = static_cast<double>(Tracer::nowNs() - Start) / 1e6;
    Ok = record(Index, Got, T != nullptr) && Ok;
    size_t RoundLength = Points.size() / FigRounds;
    return StepResult{1, Ok ? 0u : 1u, {Ms}, (Index + 1) % RoundLength == 0,
                      static_cast<unsigned>(Index / RoundLength)};
  }

  void restart() override { Next = 0; }

  StepResult finish() override {
    // The modeled figures cover the whole seeded list; points the timed
    // window did not reach run here, untimed.
    StepResult Result;
    for (size_t I = 0; I < Points.size(); ++I) {
      if (Reports[I])
        continue;
      PointReports Got;
      bool Ok = runPoint(Points[I], nullptr, Got);
      Ok = record(I, Got, false) && Ok;
      ++Result.Jobs;
      Result.Failed += Ok ? 0 : 1;
    }
    return Result;
  }

  LayerValues layerValues(const std::map<std::string, int64_t> &SelfNs,
                          uint64_t TracedJobs) const override {
    auto self = [&](const char *Name) {
      auto It = SelfNs.find(Name);
      return It == SelfNs.end() ? 0.0 : static_cast<double>(It->second);
    };
    LayerValues V;
    if (Counters.CpuL1DAccesses)
      V["exec.run_ns_per_l1d_access"] =
          self("exec.run.cpu") / static_cast<double>(Counters.CpuL1DAccesses);
    if (Counters.AccelDmaWords)
      V["exec.run_ns_per_dma_word"] =
          (self("exec.run.axi4mlir") + self("exec.run.manual")) /
          static_cast<double>(Counters.AccelDmaWords);
    if (TracedJobs)
      V["exec.specialized_kernels"] =
          static_cast<double>(Counters.SpecializedKernels) /
          static_cast<double>(TracedJobs);
    Modeled M = modeled();
    V["modeled_task_clock_ms"] = M.TaskClockMs;
    V["modeled_cache_refs"] = M.CacheRefs;
    V["modeled_speedup_vs_manual"] = M.SpeedupVsManual;
    V["sim.l1d_accesses"] = M.Sim.L1DAccesses;
    V["sim.cache_refs"] = M.Sim.CacheReferences;
    V["sim.cache_misses"] = M.Sim.CacheMisses;
    V["sim.dma_transfers"] = M.Sim.DmaTransfers;
    V["sim.dma_bytes"] = M.Sim.DmaBytesMoved;
    V["sim.host_cycles"] = M.Sim.HostCycles;
    V["sim.fabric_cycles"] = M.Sim.FabricCycles;
    V["sim.repeat_drift"] = Drift;
    return V;
  }

  void printReport() const override {
    Modeled M = modeled();
    std::printf("fig-sweep: %zu design points (%zu conv, %zu with a manual "
                "driver)\n",
                Points.size(), countIf([](const FigPoint &P) { return P.IsConv; }),
                countIf([](const FigPoint &P) { return P.ManualSupported; }));
    std::printf("modeled_task_clock_ms %.6f ms (modeled, AXI4MLIR total)\n",
                M.TaskClockMs);
    std::printf("modeled_cache_refs %.0f count (modeled, AXI4MLIR LLC "
                "references)\n",
                M.CacheRefs);
    std::printf("modeled_speedup_vs_manual %.6f x (modeled, geomean over %zu "
                "points)\n",
                M.SpeedupVsManual, M.ManualPoints);
    std::printf("modeled task-clock drift between repeated runs of a point: "
                "%.3g (max over %zu repeats; the cache model is indexed by "
                "host addresses)\n",
                Drift, Repeats);
  }

private:
  struct SimTotals {
    double L1DAccesses = 0, CacheReferences = 0, CacheMisses = 0,
           DmaTransfers = 0, DmaBytesMoved = 0, HostCycles = 0,
           FabricCycles = 0;
    void add(const sim::PerfReport &R) {
      L1DAccesses += static_cast<double>(R.L1DAccesses);
      CacheReferences += static_cast<double>(R.CacheReferences);
      CacheMisses += static_cast<double>(R.CacheMisses);
      DmaTransfers += static_cast<double>(R.DmaTransfers);
      DmaBytesMoved += static_cast<double>(R.DmaBytesMoved);
      HostCycles += R.HostCycles;
      FabricCycles += R.FabricCycles;
    }
  };
  struct Modeled {
    double TaskClockMs = 0, CacheRefs = 0, SpeedupVsManual = 0;
    size_t ManualPoints = 0;
    SimTotals Sim;
  };

  template <typename Pred> size_t countIf(Pred P) const {
    size_t N = 0;
    for (const FigPoint &Point : Points)
      N += P(Point) ? 1 : 0;
    return N;
  }

  static bool check(const exec::RunResult &R, const char *Variant,
                    const FigPoint &P) {
    if (R.Ok && R.NumericsMatch)
      return true;
    std::fprintf(stderr, "fig-sweep: %s failed on %s: %s\n", Variant,
                 describe(P).c_str(), R.Error.c_str());
    return false;
  }

  /// Runs every variant of \p P; untraced through the public entry points.
  bool runPoint(const FigPoint &P, Tracer *T, PointReports &Got) {
    exec::RunResult Axi, Manual, Cpu;
    if (T) {
      Axi = axi4mlirTraced(P, T, Counters);
      if (P.ManualSupported)
        Manual = manualTraced(P, T);
      if (!P.IsConv)
        Cpu = cpuTraced(P, T, Counters);
    } else if (P.IsConv) {
      Axi = exec::runConvAxi4mlir(P.Conv);
      Manual = exec::runConvManual(P.Conv);
    } else {
      Axi = exec::runMatMulAxi4mlir(P.MatMul);
      if (P.ManualSupported)
        Manual = exec::runMatMulManual(P.MatMul);
      Cpu = exec::runMatMulCpuOnly(P.MatMul);
    }
    bool Ok = check(Axi, "axi4mlir", P);
    Got.Axi4mlir = Axi.Report;
    if (P.ManualSupported) {
      Ok = check(Manual, "manual", P) && Ok;
      Got.Manual = Manual.Report;
      Got.HasManual = true;
    }
    if (!P.IsConv) {
      Ok = check(Cpu, "cpu", P) && Ok;
      Got.Cpu = Cpu.Report;
      Got.HasCpu = true;
    }
    if (T)
      Counters.AccelDmaWords +=
          (Got.Axi4mlir.DmaBytesMoved + Got.Manual.DmaBytesMoved) / 4;
    return Ok;
  }

  /// Keeps the first report of each point; a later run of the point (in
  /// particular a traced one) must reproduce its address-free counters
  /// exactly.
  bool record(size_t Index, const PointReports &Got, bool Traced) {
    if (!Reports[Index]) {
      Reports[Index] = Got;
      return true;
    }
    const PointReports &Want = *Reports[Index];
    bool Same =
        sameAddressFreeCounters(Want.Axi4mlir, Got.Axi4mlir) &&
        (!Want.HasManual || sameAddressFreeCounters(Want.Manual, Got.Manual)) &&
        (!Want.HasCpu || sameAddressFreeCounters(Want.Cpu, Got.Cpu));
    Drift = std::max({Drift, taskClockDrift(Want.Axi4mlir, Got.Axi4mlir),
                      taskClockDrift(Want.Manual, Got.Manual),
                      taskClockDrift(Want.Cpu, Got.Cpu)});
    ++Repeats;
    if (!Same)
      std::fprintf(stderr,
                   "fig-sweep: %s run of %s changed the modeled report\n",
                   Traced ? "traced" : "repeated",
                   describe(Points[Index]).c_str());
    return Same;
  }

  Modeled modeled() const {
    Modeled M;
    double LogSum = 0;
    for (const std::optional<PointReports> &R : Reports) {
      if (!R)
        continue;
      M.TaskClockMs += R->Axi4mlir.TaskClockMs;
      M.CacheRefs += static_cast<double>(R->Axi4mlir.CacheReferences);
      M.Sim.add(R->Axi4mlir);
      if (R->HasManual) {
        M.Sim.add(R->Manual);
        LogSum += std::log(R->Manual.TaskClockMs / R->Axi4mlir.TaskClockMs);
        ++M.ManualPoints;
      }
      if (R->HasCpu)
        M.Sim.add(R->Cpu);
    }
    M.SpeedupVsManual =
        M.ManualPoints ? std::exp(LogSum / static_cast<double>(M.ManualPoints))
                       : 0;
    return M;
  }

  std::vector<FigPoint> Points;
  std::vector<std::optional<PointReports>> Reports;
  std::vector<parser::AcceleratorDesc> Accels;
  TracedCounters Counters;
  /// Largest relative task-clock difference between two runs of a point.
  double Drift = 0;
  size_t Repeats = 0;
  size_t Next = 0;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeFigSweepWorkload(uint64_t Seed) {
  return std::make_unique<FigSweep>(Seed);
}
