//===- DriverGen.cpp - Compile-only driver generation ---------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One job is what `axi4mlir-opt --emit=c --verify-plan=strict
/// --plan-opt=all` does for a config and a kernel: parse the config,
/// build or parse the kernel, lower it (four passes, IR verified after
/// each), print the C driver, compile the ExecPlan, verify it strictly
/// against the accelerator's protocol model, optimize it with every pass
/// (verified between passes), verify it again and decode it. Nothing
/// executes. There is no single public entry point for this sequence, so
/// the untraced and traced runs share one function and differ only in
/// whether the spans record.
///
//===----------------------------------------------------------------------===//

#include "Jobs.h"
#include "Layers.h"

#include "analysis/PlanVerifier.h"
#include "analysis/ProtocolModel.h"
#include "codegen/CEmitter.h"
#include "dialects/InitAllDialects.h"
#include "exec/opt/PlanOpt.h"
#include "ir/Parser.h"
#include "parser/ConfigParser.h"

#include <cstdio>
#include <optional>
#include <stdexcept>

using namespace perfbench;
using namespace axi4mlir;

namespace {

constexpr const char *MatMulKernel = "linalg.matmul";
constexpr const char *ConvKernel = "linalg.conv_2d_nchw_fchw";

/// Which kernels a parsed config can lower. The checked-in examples are
/// i32, so only all-int32 configs take them.
std::string kernelsOf(const parser::SystemConfig &Config) {
  bool MatMul = false, Conv = false;
  for (const parser::AcceleratorDesc &Accel : Config.Accelerators) {
    if (Accel.DataType != "int32")
      return "";
    MatMul |= Accel.Kernel == MatMulKernel;
    Conv |= Accel.Kernel == ConvKernel;
  }
  return MatMul && Conv ? "both" : MatMul ? "matmul" : Conv ? "conv" : "";
}

struct Counters {
  uint64_t CBytes = 0;
  uint64_t Rewrites = 0;
  uint64_t Findings = 0;
  uint64_t SpecializedKernels = 0;
};

unsigned rewritesOf(const exec::opt::PlanOptStats &S) {
  return S.FoldedOperands + S.RemovedUnchargedInsts + S.RemovedChargedInsts +
         S.HoistedUnchargedInsts + S.HoistedChargedInsts + S.FlattenedLoops +
         S.CoalescedSends;
}

class DriverGen : public Workload {
public:
  DriverGen(uint64_t Seed, const std::string &Root)
      : Sources(readDriverGenSources(Root)) {
    std::vector<std::string> ConfigKernels, ExampleKernels;
    for (const SourceText &Config : Sources.Configs) {
      std::string Error;
      auto Parsed = parser::parseSystemConfig(Config.Text, &Error);
      if (failed(Parsed))
        throw std::runtime_error(Config.Name + ": " + Error);
      ConfigKernels.push_back(kernelsOf(*Parsed));
    }
    for (const SourceText &Example : Sources.Examples)
      ExampleKernels.push_back(
          Example.Text.find(ConvKernel) != std::string::npos ? "conv"
          : Example.Text.find(MatMulKernel) != std::string::npos ? "matmul"
                                                                  : "");
    Jobs = makeDriverGen(Seed, ConfigKernels, ExampleKernels);
    if (Jobs.empty())
      throw std::runtime_error("driver-gen: no config/kernel pairs");
  }

  void setUp() override {
    // A compiler user's set-up: parse every checked-in config once.
    for (const SourceText &Config : Sources.Configs) {
      auto Result = parser::parseSystemConfig(Config.Text);
      if (failed(Result))
        throw std::runtime_error(Config.Name + ": config no longer parses");
      Parsed.push_back(std::move(*Result));
    }
  }

  void tearDown() override { Parsed.clear(); }

  size_t passLength() const override { return Jobs.size(); }

  void restart() override { Next = 0; }

  StepResult step(Tracer *T) override {
    size_t Index = Next++ % Jobs.size();
    int64_t Start = Tracer::nowNs();
    std::optional<ScopedSpan> Root;
    if (T) {
      T->setJob(Index);
      Root.emplace(T, "bench.job");
    }
    std::string Error;
    bool Ok = compileJob(Jobs[Index], T, Error);
    Root.reset();
    double Ms = static_cast<double>(Tracer::nowNs() - Start) / 1e6;
    if (!Ok)
      std::fprintf(stderr, "driver-gen: %s (%s): %s\n",
                   describe(Jobs[Index]).c_str(),
                   Sources.Configs[Jobs[Index].Config].Name.c_str(),
                   Error.c_str());
    return StepResult{1, Ok ? 0u : 1u, {Ms}, Index + 1 == Jobs.size()};
  }

  LayerValues layerValues(const std::map<std::string, int64_t> &,
                          uint64_t TracedJobs) const override {
    LayerValues V;
    if (!TracedJobs)
      return V;
    double Jobs = static_cast<double>(TracedJobs);
    V["codegen.c_bytes"] = static_cast<double>(Traced.CBytes) / Jobs;
    V["exec_opt.rewrites"] = static_cast<double>(Traced.Rewrites) / Jobs;
    V["analysis.findings"] = static_cast<double>(Traced.Findings) / Jobs;
    V["exec.specialized_kernels"] =
        static_cast<double>(Traced.SpecializedKernels) / Jobs;
    return V;
  }

  void printReport() const override {
    std::printf("driver-gen: %zu compile-only jobs per pass over %zu configs "
                "and %zu examples\n",
                Jobs.size(), Sources.Configs.size(), Sources.Examples.size());
  }

private:
  /// One axi4mlir-opt --emit=c --verify-plan=strict --plan-opt=all job.
  /// Fails on any error and on any strict-verification finding.
  bool compileJob(const DriverGenJob &Job, Tracer *T, std::string &Error) {
    // The counts feed the traced run's per-layer metrics only.
    Counters Unused;
    Counters &C = T ? Traced : Unused;
    std::optional<parser::SystemConfig> Config;
    {
      ScopedSpan S(T, "parser.config_parse");
      auto Result =
          parser::parseSystemConfig(Sources.Configs[Job.Config].Text, &Error);
      if (failed(Result))
        return false;
      Config.emplace(std::move(*Result));
    }

    // Optional so the job's teardown can be timed (see the end).
    std::optional<MLIRContext> Context;
    Context.emplace();
    OwningOpRef Owner;
    bool IsConv = Job.IsConv;
    if (Job.Example >= 0) {
      ScopedSpan S(T, "ir.parse");
      registerAllDialects(*Context);
      ParserOptions Options;
      Options.BufferName = Sources.Examples[Job.Example].Name;
      auto Parsed = parseSourceString(Sources.Examples[Job.Example].Text,
                                      &*Context, &Error, Options);
      if (failed(Parsed))
        return false;
      Owner = std::move(*Parsed);
      IsConv = Sources.Examples[Job.Example].Text.find(ConvKernel) !=
               std::string::npos;
    } else {
      ScopedSpan S(T, "ir.build");
      registerAllDialects(*Context);
      OpBuilder Builder(&*Context);
      func::FuncOp Built =
          IsConv ? exec::buildConvFunc(Builder, 1, Job.InChannels, Job.InHW,
                                       Job.OutChannels, Job.FilterHW,
                                       Job.Stride, sim::ElemKind::I32)
                 : exec::buildMatMulFunc(Builder, Job.M, Job.N, Job.K,
                                         sim::ElemKind::I32);
      Owner = OwningOpRef(Built.getOperation());
    }
    func::FuncOp Func(Owner.get());

    // Every accelerator implementing the kernel is a dispatch candidate,
    // as in axi4mlir-opt.
    std::vector<parser::AcceleratorDesc> Candidates;
    for (const parser::AcceleratorDesc &Accel : Config->Accelerators)
      if (Accel.Kernel == (IsConv ? ConvKernel : MatMulKernel))
        Candidates.push_back(Accel);
    transforms::LoweringOptions Lowering;
    Lowering.CacheBytes = Config->Cpu.lastLevelCacheBytes();
    std::vector<transforms::TilingPlan> Plans;
    if (!lowerTraced(Func, Candidates, Lowering, T, Plans, Error))
      return false;
    if (Plans.empty()) {
      Error = "no tiling plan was selected";
      return false;
    }
    const parser::AcceleratorDesc &Accel =
        Candidates[Plans.front().AcceleratorIndex];

    {
      ScopedSpan S(T, "codegen.emit_c");
      auto Source = codegen::emitC(Func, &Error);
      if (failed(Source))
        return false;
      C.CBytes += Source->size();
    }

    std::unique_ptr<exec::ExecPlan> Plan;
    {
      ScopedSpan S(T, "exec.compile");
      Plan = exec::ExecPlan::compile(Func, Error);
    }
    if (!Plan)
      return false;

    std::optional<analysis::ProtocolModel> Model;
    analysis::VerifyOptions Verify;
    Verify.Strict = true;
    auto verifyStrict = [&](const char *Stage) {
      ScopedSpan S(T, "analysis.verify_plan");
      if (!Model) {
        auto Built = analysis::ProtocolModel::forAccelerator(Accel, Error);
        if (failed(Built))
          return false;
        Model.emplace(std::move(*Built));
        Verify.Model = &*Model;
      }
      analysis::VerifyResult R = analysis::verifyPlan(*Plan, Verify);
      C.Findings += R.Errors.size() + R.Warnings.size();
      if (R.ok(/*Strict=*/true))
        return true;
      Error = std::string(Stage) + " plan is not strictly clean: " +
              R.toString();
      return false;
    };
    if (!verifyStrict("compiled"))
      return false;

    {
      ScopedSpan S(T, "exec_opt.optimize");
      exec::opt::PlanOptOptions Options = exec::opt::PlanOptOptions::all();
      Options.VerifyEach = true;
      exec::opt::PlanOptStats Stats = exec::opt::optimizePlan(*Plan, Options);
      if (!Stats.VerifyError.empty()) {
        Error = "verification failed after " + Stats.VerifyFailedPass + ": " +
                Stats.VerifyError;
        return false;
      }
      C.Rewrites += rewritesOf(Stats);
    }
    if (!verifyStrict("optimized"))
      return false;

    std::unique_ptr<exec::DecodedPlan> Decoded;
    {
      ScopedSpan S(T, "exec.decode");
      Decoded = exec::DecodedPlan::decode(*Plan);
      C.SpecializedKernels += Decoded->numSpecializedKernels();
    }
    // Freeing the plans and the IR is layer work too, about 3% of a job.
    {
      ScopedSpan S(T, "exec.destroy");
      Decoded.reset();
      Plan.reset();
    }
    ScopedSpan S(T, "ir.destroy");
    Owner.reset();
    Context.reset();
    return true;
  }

  DriverGenSources Sources;
  std::vector<DriverGenJob> Jobs;
  std::vector<parser::SystemConfig> Parsed;
  Counters Traced;
  size_t Next = 0;
};

} // namespace

std::unique_ptr<Workload>
perfbench::makeDriverGenWorkload(uint64_t Seed, const std::string &Root) {
  return std::make_unique<DriverGen>(Seed, Root);
}
