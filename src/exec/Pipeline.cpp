//===- Pipeline.cpp - End-to-end driver API implementation ----------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "exec/Pipeline.h"

#include "dialects/InitAllDialects.h"
#include "dialects/Linalg.h"
#include "dialects/MemRef.h"
#include "exec/AccelConfigs.h"
#include "exec/Interpreter.h"
#include "exec/Reference.h"
#include "ir/Verifier.h"

#include <algorithm>

using namespace axi4mlir;
using namespace axi4mlir::exec;
using runtime::MemRefDesc;
using sim::MatMulAccelerator;

func::FuncOp exec::buildMatMulFunc(OpBuilder &Builder, int64_t M, int64_t N,
                                   int64_t K, sim::ElemKind Kind) {
  return buildKernelFunc(Builder, KernelShape::matmul(M, N, K), Kind);
}

func::FuncOp exec::buildConvFunc(OpBuilder &Builder, int64_t Batch,
                                 int64_t InChannels, int64_t InHW,
                                 int64_t OutChannels, int64_t FilterHW,
                                 int64_t Stride, sim::ElemKind Kind) {
  return buildKernelFunc(Builder,
                         KernelShape::conv(Batch, InChannels, InHW,
                                           OutChannels, FilterHW, Stride),
                         Kind);
}

//===----------------------------------------------------------------------===//
// The shared run path
//===----------------------------------------------------------------------===//

std::vector<int64_t> KernelShape::argumentShape(unsigned Index) const {
  if (!IsConv) // A[M][K], B[K][N], C[M][N]
    return {Index == 1 ? K : M, Index == 0 ? K : N};
  if (Index == 0)
    return {Batch, InChannels, InHW, InHW};
  if (Index == 1)
    return {OutChannels, InChannels, FilterHW, FilterHW};
  return {Batch, OutChannels, outHW(), outHW()};
}

func::FuncOp exec::buildKernelFunc(OpBuilder &Builder,
                                   const KernelShape &Shape,
                                   sim::ElemKind Kind) {
  MLIRContext *Context = Builder.getContext();
  Type Elem = Kind == sim::ElemKind::F32 ? Type::getF32(Context)
                                         : Type::getI32(Context);
  MemRefType ATy = MemRefType::get(Context, Shape.argumentShape(0), Elem);
  MemRefType BTy = MemRefType::get(Context, Shape.argumentShape(1), Elem);
  MemRefType CTy = MemRefType::get(Context, Shape.argumentShape(2), Elem);
  func::FuncOp Func = func::FuncOp::create(
      Builder, Shape.IsConv ? "conv_call" : "matmul_call", {ATy, BTy, CTy});
  OpBuilder BodyBuilder(Context);
  BodyBuilder.setInsertionPointToEnd(&Func.getBody());
  if (Shape.IsConv)
    linalg::Conv2DNchwFchwOp::create(BodyBuilder, Func.getArgument(0),
                                     Func.getArgument(1), Func.getArgument(2),
                                     Shape.Stride, Shape.Stride);
  else
    linalg::MatmulOp::create(BodyBuilder, Func.getArgument(0),
                             Func.getArgument(1), Func.getArgument(2));
  func::ReturnOp::create(BodyBuilder);
  return Func;
}

std::vector<MemRefDesc> exec::makeKernelBuffers(const KernelShape &Shape,
                                                sim::ElemKind Kind,
                                                uint32_t Seed) {
  std::vector<MemRefDesc> Args;
  for (unsigned I = 0; I < 3; ++I) {
    Args.push_back(MemRefDesc::alloc(Shape.argumentShape(I), Kind));
    fillRandom(Args.back(), Seed + I);
  }
  return Args;
}

bool exec::matchesReference(const KernelShape &Shape,
                            const std::vector<MemRefDesc> &Args,
                            const MemRefDesc &OutInitial) {
  MemRefDesc Expected = cloneMemRef(OutInitial);
  if (Shape.IsConv)
    referenceConv2D(Args[0], Args[1], Expected, Shape.Stride, Shape.Stride);
  else
    referenceMatMul(Args[0], Args[1], Expected);
  return memrefEquals(Expected, Args[2]);
}

int64_t exec::engineSizeOf(const parser::AcceleratorDesc &Accel) {
  int64_t Size = 0;
  for (int64_t Tile : Accel.AccelSize)
    Size = std::max(Size, Tile);
  return Size <= 0 ? 8 : Size;
}

std::unique_ptr<sim::SoC> exec::makeSoCFor(const parser::AcceleratorDesc &Accel,
                                           sim::ElemKind Kind,
                                           const sim::SoCParams &Params,
                                           std::string &Error) {
  if (Accel.Kernel != linalg::MatmulOp::OpName)
    return sim::makeConvSoC(Kind, Params);
  FailureOr<MatMulAccelerator::Version> Version =
      MatMulAccelerator::versionFromName(Accel.Name, Error);
  if (failed(Version))
    return nullptr;
  return sim::makeMatMulSoC(*Version, engineSizeOf(Accel), Kind, Params);
}

LogicalResult exec::armFaults(sim::SoC &Soc, const sim::FaultPlan &Faults,
                              unsigned Spares, double Score,
                              std::optional<sim::FaultInjector> &Injector,
                              std::string &Error) {
  if (Faults.empty() && Spares == 0)
    return success();
  for (unsigned I = 0; I < Spares; ++I) {
    std::unique_ptr<sim::AcceleratorModel> Spare =
        Soc.accelerator()->cloneFresh();
    if (!Spare) {
      Error = "accelerator '" + Soc.accelerator()->getName() +
              "' cannot provide spare units";
      return failure();
    }
    Soc.addSpareAccelerator(std::move(Spare), Score);
  }
  Injector.emplace(Faults);
  Soc.attachFaultInjector(&*Injector);
  return success();
}

std::shared_ptr<const DecodedPlan>
exec::compileDriver(func::FuncOp Func, const opt::PlanOptOptions &Options,
                    std::string &Error, opt::PlanOptStats *Stats) {
  std::unique_ptr<ExecPlan> Plan = ExecPlan::compile(Func, Error);
  if (!Plan)
    return nullptr;
  opt::PlanOptStats Done = opt::optimizePlan(*Plan, Options);
  if (Stats)
    *Stats = Done;
  if (!Done.VerifyError.empty()) {
    // Verify-each caught a miscompile between passes: refuse to run the
    // rejected plan.
    Error = "plan verification failed after " + Done.VerifyFailedPass +
            ": " + Done.VerifyError;
    return nullptr;
  }
  return std::shared_ptr<const DecodedPlan>(DecodedPlan::decode(*Plan));
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

namespace {

int64_t tileOf(const MatMulRunConfig &Config, int Which) {
  int64_t Tile = Which == 0   ? Config.TileM
                 : Which == 1 ? Config.TileN
                              : Config.TileK;
  return Tile ? Tile : Config.AccelSize;
}

// What differs between the matmul and conv entry points: the kernel, the
// accelerator description, the board and the hand-written driver.

KernelShape shapeOf(const MatMulRunConfig &Config) {
  return KernelShape::matmul(Config.M, Config.N, Config.K);
}

KernelShape shapeOf(const ConvRunConfig &Config) {
  return KernelShape::conv(Config.Batch, Config.InChannels, Config.InHW,
                           Config.OutChannels, Config.FilterHW, Config.Stride);
}

/// The accelerator description, as a user's config file would give it.
parser::AcceleratorDesc acceleratorOf(const MatMulRunConfig &Config) {
  return parseSingleAccelerator(
      makeMatMulConfigJson(Config.Version, Config.AccelSize, Config.Flow,
                           tileOf(Config, 0), tileOf(Config, 1),
                           tileOf(Config, 2)));
}

parser::AcceleratorDesc acceleratorOf(const ConvRunConfig &) {
  return parseSingleAccelerator(makeConvConfigJson());
}

std::unique_ptr<sim::SoC> socOf(const MatMulRunConfig &Config) {
  return sim::makeMatMulSoC(Config.Version, Config.AccelSize, Config.Kind,
                            Config.Params);
}

std::unique_ptr<sim::SoC> socOf(const ConvRunConfig &Config) {
  return sim::makeConvSoC(Config.Kind, Config.Params);
}

bool runManualDriver(runtime::DmaRuntime &Runtime,
                     std::vector<MemRefDesc> &Args,
                     const MatMulRunConfig &Config, std::string &Error) {
  ManualMatMulConfig Manual;
  Manual.Version = Config.Version;
  Manual.TileM = tileOf(Config, 0);
  Manual.TileN = tileOf(Config, 1);
  Manual.TileK = tileOf(Config, 2);
  Manual.Flow = Config.Flow;
  return runManualMatMul(Runtime, Args[0], Args[1], Args[2], Manual, &Error);
}

bool runManualDriver(runtime::DmaRuntime &Runtime,
                     std::vector<MemRefDesc> &Args,
                     const ConvRunConfig &Config, std::string &Error) {
  return runManualConv2D(Runtime, Args[0], Args[1], Args[2], Config.Stride,
                         Config.Stride, &Error);
}

/// The tail of every entry point: the reference check (unless validation
/// is off) and the counters.
RunResult finishRun(RunResult Result, bool Validate, const KernelShape &Shape,
                    const std::vector<MemRefDesc> &Args,
                    const MemRefDesc &OutInitial, const sim::SoC &Soc) {
  Result.Ok = true;
  Result.NumericsMatch =
      !Validate || matchesReference(Shape, Args, OutInitial);
  if (!Result.NumericsMatch)
    Result.Error = "numerical mismatch against the reference kernel";
  Result.Report = Soc.report();
  return Result;
}

template <typename RunConfig>
RunResult runAxi4mlir(const RunConfig &Config) {
  RunResult Result;
  KernelShape Shape = shapeOf(Config);

  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildKernelFunc(Builder, Shape, Config.Kind);
  OwningOpRef Owner(Func.getOperation());

  transforms::LoweringOptions Options;
  Options.EnableCpuTiling = Config.CpuTiling;
  Options.CacheBytes = Config.Params.L2SizeBytes;
  Options.Remainder = Config.Remainder;
  Options.CostParams = Config.Params;
  auto Plans = std::make_shared<std::vector<transforms::TilingPlan>>();
  transforms::PassManager Pipeline = transforms::buildPipeline(
      std::vector<parser::AcceleratorDesc>{acceleratorOf(Config)}, Options,
      Plans);
  if (failed(Pipeline.run(Func, Result.Error)))
    return Result;
  double Score = 0.0;
  if (!Plans->empty()) {
    Result.SelectedAccelerator = Plans->front().AcceleratorName;
    Score = Plans->front().EstimatedCostMs;
  }

  // Execute against the simulated board.
  std::unique_ptr<sim::SoC> Soc = socOf(Config);
  std::optional<sim::FaultInjector> Injector;
  if (failed(armFaults(*Soc, Config.Faults, Config.SpareAccelerators, Score,
                       Injector, Result.Error)))
    return Result;
  runtime::DmaRuntime Runtime(*Soc, Config.SpecializeCopies);
  std::vector<MemRefDesc> Args =
      makeKernelBuffers(Shape, Config.Kind, Config.Seed);
  MemRefDesc OutInitial = cloneMemRef(Args.back());
  Interpreter Interp(*Soc, &Runtime, Config.Exec);
  if (failed(Interp.run(Func, Args, Result.Error)))
    return Result;
  return finishRun(std::move(Result), Config.Validate, Shape, Args,
                   OutInitial, *Soc);
}

template <typename RunConfig>
RunResult runManual(const RunConfig &Config) {
  RunResult Result;
  KernelShape Shape = shapeOf(Config);
  std::unique_ptr<sim::SoC> Soc = socOf(Config);
  runtime::DmaRuntime Runtime(*Soc, /*SpecializeCopies=*/true);
  std::vector<MemRefDesc> Args =
      makeKernelBuffers(Shape, Config.Kind, Config.Seed);
  MemRefDesc OutInitial = cloneMemRef(Args.back());
  if (!runManualDriver(Runtime, Args, Config, Result.Error))
    return Result;
  return finishRun(std::move(Result), Config.Validate, Shape, Args,
                   OutInitial, *Soc);
}

} // namespace

RunResult exec::runMatMulAxi4mlir(const MatMulRunConfig &Config) {
  return runAxi4mlir(Config);
}

RunResult exec::runMatMulManual(const MatMulRunConfig &Config) {
  return runManual(Config);
}

RunResult exec::runConvAxi4mlir(const ConvRunConfig &Config) {
  return runAxi4mlir(Config);
}

RunResult exec::runConvManual(const ConvRunConfig &Config) {
  return runManual(Config);
}

RunResult exec::runMatMulCpuOnly(const MatMulRunConfig &Config) {
  RunResult Result;
  KernelShape Shape = shapeOf(Config);

  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildKernelFunc(Builder, Shape, Config.Kind);
  OwningOpRef Owner(Func.getOperation());
  if (failed(transforms::convertNamedToGeneric(Func, Result.Error)))
    return Result;

  std::unique_ptr<sim::SoC> Soc = sim::makeCpuOnlySoC(Config.Params);
  std::vector<MemRefDesc> Args =
      makeKernelBuffers(Shape, Config.Kind, Config.Seed);
  MemRefDesc OutInitial = cloneMemRef(Args.back());
  Interpreter Interp(*Soc, /*Runtime=*/nullptr, Config.Exec);
  if (failed(Interp.run(Func, Args, Result.Error)))
    return Result;
  return finishRun(std::move(Result), Config.Validate, Shape, Args,
                   OutInitial, *Soc);
}
