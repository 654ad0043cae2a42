//===- ExecPlanTest.cpp - Threaded plan engine vs. tree walker ------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Proves the compiled, pre-decoded ExecPlan run by the threaded engine is
/// indistinguishable from the tree-walking interpreter on both executable
/// abstraction levels (linalg.generic, axirt runtime calls): identical
/// output buffers AND bit-identical HostPerfModel counters. The threaded
/// engine is the measurement engine for every figure bench, so this
/// equivalence is what licenses using it by default. Unlowered accel ops
/// are not a driver language: both engines reject them.
///
//===----------------------------------------------------------------------===//

#include "analysis/PlanAnalyses.h"
#include "dialects/InitAllDialects.h"
#include "exec/AccelConfigs.h"
#include "exec/ExecPlan.h"
#include "exec/Interpreter.h"
#include "exec/Pipeline.h"
#include "exec/Reference.h"
#include "exec/opt/PlanOpt.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

using namespace axi4mlir;
using namespace axi4mlir::exec;
using runtime::MemRefDesc;
using V = sim::MatMulAccelerator::Version;

namespace {

/// Every counter of the perf report, compared exactly. The doubles are
/// sums accumulated in the same order on both sides, so even they must
/// match bit for bit.
void expectIdenticalReports(const sim::PerfReport &Walker,
                            const sim::PerfReport &Plan) {
  EXPECT_EQ(Walker.Instructions, Plan.Instructions);
  EXPECT_EQ(Walker.BranchInstructions, Plan.BranchInstructions);
  EXPECT_EQ(Walker.Loads, Plan.Loads);
  EXPECT_EQ(Walker.Stores, Plan.Stores);
  EXPECT_EQ(Walker.L1DAccesses, Plan.L1DAccesses);
  EXPECT_EQ(Walker.CacheReferences, Plan.CacheReferences);
  EXPECT_EQ(Walker.CacheMisses, Plan.CacheMisses);
  EXPECT_EQ(Walker.HostCycles, Plan.HostCycles);
  EXPECT_EQ(Walker.FabricCycles, Plan.FabricCycles);
  EXPECT_EQ(Walker.DmaTransfers, Plan.DmaTransfers);
  EXPECT_EQ(Walker.DmaBytesMoved, Plan.DmaBytesMoved);
  EXPECT_EQ(Walker.TaskClockMs, Plan.TaskClockMs);
}

/// Runs \p Func on \p Args through \p Mode on a fresh CPU-only system; a
/// threaded run exposes its decoded plan, binding \p Kernels micro-kernels.
sim::PerfReport runOn(ExecMode Mode, func::FuncOp Func,
                      const std::vector<MemRefDesc> &Args,
                      unsigned Kernels = 0) {
  auto Soc = sim::makeCpuOnlySoC();
  Interpreter Interp(*Soc, nullptr, Mode);
  EXPECT_EQ(Interp.decodedPlan(), nullptr);
  std::string Error;
  EXPECT_TRUE(succeeded(Interp.run(Func, Args, Error))) << Error;
  const DecodedPlan *Decoded = Interp.decodedPlan();
  EXPECT_EQ(Decoded != nullptr, Mode == ExecMode::Threaded);
  if (Decoded) {
    EXPECT_EQ(Decoded->numSpecializedKernels(), Kernels);
  }
  return Soc->report();
}

/// How far to lower the matmul before execution.
enum class Level { Generic, Axirt };

/// Lowers one matmul func to \p L. Returns false (with ADD_FAILURE) on a
/// pipeline error.
bool lowerMatMul(func::FuncOp Func, Level L,
                 const parser::AcceleratorDesc &Accel) {
  std::string Error;
  if (failed(transforms::convertNamedToGeneric(Func, Error))) {
    ADD_FAILURE() << Error;
    return false;
  }
  if (L == Level::Generic)
    return true;
  transforms::LoweringOptions Options;
  Options.EnableCpuTiling = false;
  if (failed(transforms::matchAndAnnotate(Func, Accel, Error)) ||
      failed(transforms::lowerToAccel(Func, Options, Error))) {
    ADD_FAILURE() << Error;
    return false;
  }
  if (failed(transforms::convertAccelToRuntime(Func, Error))) {
    ADD_FAILURE() << Error;
    return false;
  }
  return true;
}

/// The full equivalence check for one (level, shape) combination.
///
/// Both executors run against the SAME SoC and the SAME argument buffers
/// (refilled from fixed seeds, counters and cache reset between runs):
/// the cache simulator is keyed on real host addresses, so distinct
/// allocations would legitimately produce different line-straddle counts.
/// A warm-up run first brings the allocator to steady state so staging
/// buffers allocated mid-execution (pad remainders) recycle identical
/// addresses for both executors.
void checkMatMulEquivalence(Level L, int64_t M, int64_t N, int64_t K,
                            int64_t AccelSize,
                            sim::ElemKind Kind = sim::ElemKind::I32) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildMatMulFunc(Builder, M, N, K, Kind);
  OwningOpRef Owner(Func.getOperation());
  parser::AcceleratorDesc Accel = parseSingleAccelerator(
      makeMatMulConfigJson(V::V3, AccelSize, "Ns", 0, 0, 0,
                           Kind == sim::ElemKind::F32 ? "float32" : "int32"));
  if (!lowerMatMul(Func, L, Accel))
    return;

  auto Soc = L == Level::Generic
                 ? sim::makeCpuOnlySoC()
                 : sim::makeMatMulSoC(V::V3, AccelSize, Kind);
  std::unique_ptr<runtime::DmaRuntime> Runtime;
  if (L != Level::Generic)
    Runtime = std::make_unique<runtime::DmaRuntime>(*Soc);

  MemRefDesc A = MemRefDesc::alloc({M, K}, Kind);
  MemRefDesc B = MemRefDesc::alloc({K, N}, Kind);
  MemRefDesc C = MemRefDesc::alloc({M, N}, Kind);

  auto runOnce = [&](ExecMode Mode) -> sim::PerfReport {
    fillRandom(A, 21);
    fillRandom(B, 22);
    fillRandom(C, 23);
    Soc->resetCounters();
    Interpreter Interp(*Soc, Runtime.get(), Mode);
    std::string Error;
    EXPECT_TRUE(succeeded(Interp.run(Func, {A, B, C}, Error))) << Error;
    return Soc->report();
  };

  runOnce(ExecMode::Walker); // allocator warm-up
  sim::PerfReport Walker = runOnce(ExecMode::Walker);
  MemRefDesc WalkerC = cloneMemRef(C);
  sim::PerfReport Threaded = runOnce(ExecMode::Threaded);
  EXPECT_TRUE(memrefEquals(WalkerC, C));
  expectIdenticalReports(Walker, Threaded);
}

//===----------------------------------------------------------------------===//
// The executable abstraction levels (acceptance criterion)
//===----------------------------------------------------------------------===//

TEST(ExecPlan, GenericLevelEquivalence) {
  checkMatMulEquivalence(Level::Generic, 12, 20, 16, 8);
}

TEST(ExecPlan, GenericLevelEquivalenceF32) {
  checkMatMulEquivalence(Level::Generic, 8, 10, 12, 8, sim::ElemKind::F32);
}

/// The accel dialect is an intermediate step of the lowering, not a
/// driver: a matmul lowered only to accel ops (no convert-accel-to-runtime)
/// must fail to compile and to walk, naming the first accel op.
TEST(ExecPlan, AccelLevelIsNotExecutable) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      buildMatMulFunc(Builder, 16, 16, 16, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  parser::AcceleratorDesc Accel =
      parseSingleAccelerator(makeMatMulConfigJson(V::V3, 8, "Ns"));
  std::string Error;
  transforms::LoweringOptions Options;
  Options.EnableCpuTiling = false;
  ASSERT_TRUE(succeeded(transforms::convertNamedToGeneric(Func, Error)) &&
              succeeded(transforms::matchAndAnnotate(Func, Accel, Error)) &&
              succeeded(transforms::lowerToAccel(Func, Options, Error)))
      << Error;

  EXPECT_EQ(ExecPlan::compile(Func, Error), nullptr);
  EXPECT_NE(Error.find("unsupported operation 'accel."), std::string::npos)
      << Error;

  auto Soc = sim::makeMatMulSoC(V::V3, 8, sim::ElemKind::I32);
  runtime::DmaRuntime Runtime(*Soc);
  MemRefDesc A = MemRefDesc::alloc({16, 16});
  MemRefDesc B = MemRefDesc::alloc({16, 16});
  MemRefDesc C = MemRefDesc::alloc({16, 16});
  for (ExecMode Mode : {ExecMode::Walker, ExecMode::Threaded}) {
    Interpreter Interp(*Soc, &Runtime, Mode);
    Error.clear();
    EXPECT_TRUE(failed(Interp.run(Func, {A, B, C}, Error)));
    EXPECT_NE(Error.find("unsupported operation 'accel."), std::string::npos)
        << Error;
  }
  EXPECT_EQ(Soc->report().DmaTransfers, 0u);
}

TEST(ExecPlan, AxirtLevelEquivalence) {
  checkMatMulEquivalence(Level::Axirt, 32, 16, 24, 8);
}

/// Non-divisible extents force the pad remainder path: alloc + staged
/// memref.copy + masked accumulate through the shared strided-copy engine
/// in both executors.
TEST(ExecPlan, AxirtPartialTileEquivalence) {
  checkMatMulEquivalence(Level::Axirt, 10, 12, 9, 8);
}

/// Strided-convolution generics exercise the non-projected affine-map
/// fallback of the compiled plan (d2*s + d5 indexing).
TEST(ExecPlan, GenericConvEquivalence) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      buildConvFunc(Builder, 1, 3, 9, 2, 3, 2, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  ASSERT_TRUE(succeeded(transforms::convertNamedToGeneric(Func, Error)))
      << Error;

  MemRefDesc I = MemRefDesc::alloc({1, 3, 9, 9});
  MemRefDesc W = MemRefDesc::alloc({2, 3, 3, 3});
  MemRefDesc O = MemRefDesc::alloc({1, 2, 4, 4});
  auto runOnce = [&](ExecMode Mode) {
    fillRandom(I, 31);
    fillRandom(W, 32);
    fillRandom(O, 33);
    return runOn(Mode, Func, {I, W, O}, /*Kernels=*/1); // conv mul+add
  };
  sim::PerfReport Walker = runOnce(ExecMode::Walker);
  MemRefDesc WalkerO = cloneMemRef(O);
  sim::PerfReport Threaded = runOnce(ExecMode::Threaded);
  EXPECT_TRUE(memrefEquals(WalkerO, O));
  expectIdenticalReports(Walker, Threaded);
}

//===----------------------------------------------------------------------===//
// Plan mechanics
//===----------------------------------------------------------------------===//

TEST(ExecPlan, CompilesToFlatProgram) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildMatMulFunc(Builder, 8, 8, 8, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  ASSERT_TRUE(succeeded(transforms::convertNamedToGeneric(Func, Error)));
  auto Plan = ExecPlan::compile(Func, Error);
  ASSERT_NE(Plan, nullptr) << Error;
  EXPECT_EQ(Plan->numArguments(), 3u);
  EXPECT_GT(Plan->numInstructions(), 0u);
  EXPECT_GE(Plan->numSlots(), 3u);
}

TEST(ExecPlan, ReusedAcrossRunsWithIdenticalCounters) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildMatMulFunc(Builder, 6, 6, 6, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  ASSERT_TRUE(succeeded(transforms::convertNamedToGeneric(Func, Error)));
  auto Plan = ExecPlan::compile(Func, Error);
  ASSERT_NE(Plan, nullptr) << Error;
  auto Decoded = DecodedPlan::decode(*Plan);

  // Two executions of one plan on fresh systems: independent, identical.
  sim::PerfReport Reports[2];
  for (int Run = 0; Run < 2; ++Run) {
    auto Soc = sim::makeCpuOnlySoC();
    MemRefDesc A = MemRefDesc::alloc({6, 6});
    MemRefDesc B = MemRefDesc::alloc({6, 6});
    MemRefDesc C = MemRefDesc::alloc({6, 6});
    fillRandom(A, 1);
    fillRandom(B, 2);
    fillRandom(C, 3);
    MemRefDesc Expected = cloneMemRef(C);
    referenceMatMul(A, B, Expected);
    ASSERT_TRUE(succeeded(Decoded->run(*Soc, nullptr, {A, B, C}, Error)))
        << Error;
    EXPECT_TRUE(memrefEquals(Expected, C));
    Reports[Run] = Soc->report();
  }
  expectIdenticalReports(Reports[0], Reports[1]);
}

/// Send/wait fusion: the axirt lowering emits every start_send/start_recv
/// right before its wait, so the plan must fuse all of them — and the
/// threaded engine running it must stay observably identical to the walker.
TEST(ExecPlan, FusesSendWaitPairs) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildMatMulFunc(Builder, 16, 16, 16, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  parser::AcceleratorDesc Accel =
      parseSingleAccelerator(makeMatMulConfigJson(V::V3, 8, "Ns"));
  ASSERT_TRUE(lowerMatMul(Func, Level::Axirt, Accel));

  std::string Error;
  auto Plan = ExecPlan::compile(Func, Error);
  ASSERT_NE(Plan, nullptr) << Error;
  std::string Text = Plan->printToString();
  EXPECT_NE(Text.find(": send end="), std::string::npos) << Text;
  EXPECT_NE(Text.find(": recv len="), std::string::npos) << Text;
  EXPECT_EQ(Text.find("start_"), std::string::npos) << Text;
  EXPECT_EQ(Text.find("wait_"), std::string::npos) << Text;

  checkMatMulEquivalence(Level::Axirt, 16, 16, 16, 8);
}

TEST(ExecPlan, DiagnosticsMatchWalker) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = func::FuncOp::create(Builder, "f", {});
  OwningOpRef Owner(Func.getOperation());
  Builder.setInsertionPointToEnd(&Func.getBody());
  Builder.create("mystery.op");
  func::ReturnOp::create(Builder);

  std::string PlanError;
  EXPECT_EQ(ExecPlan::compile(Func, PlanError), nullptr);
  EXPECT_NE(PlanError.find("mystery.op"), std::string::npos);

  auto Soc = sim::makeCpuOnlySoC();
  std::string WalkerError;
  Interpreter Walker(*Soc, nullptr, ExecMode::Walker);
  EXPECT_TRUE(failed(Walker.run(Func, {}, WalkerError)));
  EXPECT_EQ(PlanError, WalkerError);
}

//===----------------------------------------------------------------------===//
// Golden disassembly: ExecPlan::print pinned before/after each optimizer
// pass (src/exec/opt) on one matmul and one conv driver.
//===----------------------------------------------------------------------===//

/// Asserts that \p Needles occur in \p Haystack in the given order.
void expectInOrder(const std::string &Haystack,
                   const std::vector<std::string> &Needles) {
  size_t Position = 0;
  for (const std::string &Needle : Needles) {
    size_t Found = Haystack.find(Needle, Position);
    ASSERT_NE(Found, std::string::npos)
        << "missing (in order): '" << Needle << "'\nafter offset "
        << Position << " in:\n"
        << Haystack;
    Position = Found + Needle.size();
  }
}

/// Lowers one small driver end to end (axirt level, no CPU tiling) and
/// compiles the plan. Matmul: 8x8x8 on the v3/4 As-flow accelerator.
/// Conv: 5x5x2 -> 3x3x2 on the conv2d_os engine.
std::unique_ptr<ExecPlan> compileGoldenDriver(MLIRContext &Context,
                                              OwningOpRef &Owner,
                                              bool Conv) {
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      Conv ? buildConvFunc(Builder, 1, 2, 5, 2, 3, 1, sim::ElemKind::I32)
           : buildMatMulFunc(Builder, 8, 8, 8, sim::ElemKind::I32);
  Owner = OwningOpRef(Func.getOperation());
  parser::AcceleratorDesc Accel = parseSingleAccelerator(
      Conv ? makeConvConfigJson() : makeMatMulConfigJson(V::V3, 4, "As"));
  transforms::LoweringOptions Options;
  Options.EnableCpuTiling = false;
  transforms::PassManager Pipeline = transforms::buildPipeline(
      std::vector<parser::AcceleratorDesc>{Accel}, Options);
  std::string Error;
  if (failed(Pipeline.run(Func, Error))) {
    ADD_FAILURE() << Error;
    return nullptr;
  }
  auto Plan = ExecPlan::compile(Func, Error);
  EXPECT_NE(Plan, nullptr) << Error;
  return Plan;
}

opt::PlanOptOptions onlyPass(const std::string &Spec) {
  opt::PlanOptOptions Options;
  std::string Error;
  EXPECT_TRUE(succeeded(opt::parsePlanOptSpec(Spec, Options, Error)))
      << Error;
  return Options;
}

TEST(PlanDisassembly, MatMulUnoptimized) {
  MLIRContext Context;
  registerAllDialects(Context);
  OwningOpRef Owner;
  auto Plan = compileGoldenDriver(Context, Owner, /*Conv=*/false);
  ASSERT_NE(Plan, nullptr);
  expectInOrder(Plan->printToString(),
                {"plan @matmul_call args=3 slots=35 insts=41",
                 "dma_init #0",
                 "%5 = copy_literal_to_dma %4 @ %3",
                 "send end=%5 off=%3",
                 "loop %9 = [%6, %7) step %8 -> @41",
                 "loop %13 = [%10, %11) step %12 -> @40",
                 "%18 = const.i 34",
                 "%19 = copy_literal_to_dma %18 @ %17",
                 "%20 = subview %0[%9, %13] sizes=[4, 4]",
                 "%21 = copy_to_dma %20 @ %19",
                 "send end=%21 off=%17",
                 "loop %22 = [%14, %15) step %16 -> @39",
                 "%24 = const.i 35",
                 "%26 = subview %1[%13, %22] sizes=[4, 4]",
                 "%28 = const.i 240",
                 "%30 = const.i 36",
                 "send end=%31 off=%23",
                 "%32 = subview %2[%9, %22] sizes=[4, 4]",
                 "recv len=%33 off=%34",
                 "copy_from_dma %32 @ %34 accumulate",
                 "end -> @23",
                 "end -> @13",
                 "end -> @9"});
}

/// fold rewrites operand references to canonical constants without
/// moving or removing a single instruction: loop bounds, staging
/// offsets, and recv offsets all read the earliest dominating constant.
TEST(PlanDisassembly, MatMulAfterFold) {
  MLIRContext Context;
  registerAllDialects(Context);
  OwningOpRef Owner;
  auto Plan = compileGoldenDriver(Context, Owner, /*Conv=*/false);
  ASSERT_NE(Plan, nullptr);
  opt::PlanOptStats Stats = opt::optimizePlan(*Plan, onlyPass("fold"));
  EXPECT_EQ(Stats.FoldedOperands, 5u);
  EXPECT_FALSE(Stats.changedCounters());
  EXPECT_EQ(Stats.RemovedUnchargedInsts, 0u);
  expectInOrder(Plan->printToString(),
                {"plan @matmul_call args=3 slots=35 insts=41",
                 "loop %9 = [%3, %7) step %8 -> @41",
                 "%19 = copy_literal_to_dma %18 @ %14",
                 "send end=%21 off=%14",
                 "recv len=%33 off=%23",
                 "copy_from_dma %32 @ %23 accumulate"});
}

/// Every constant in this driver is read, so dce finds nothing: the
/// disassembly must be byte-identical to the unoptimized plan. Same for
/// coalesce — the As-flow v3 driver has no fused-send adjacency or
/// single-trip loops.
TEST(PlanDisassembly, MatMulDceAndCoalesceAreNoOps) {
  MLIRContext Context;
  registerAllDialects(Context);
  OwningOpRef Owner;
  auto Plan = compileGoldenDriver(Context, Owner, /*Conv=*/false);
  ASSERT_NE(Plan, nullptr);
  std::string Before = Plan->printToString();

  opt::PlanOptStats Stats = opt::optimizePlan(*Plan, onlyPass("dce"));
  EXPECT_EQ(Stats.total(), 0u);
  EXPECT_EQ(Plan->printToString(), Before);

  Stats = opt::optimizePlan(*Plan, onlyPass("coalesce"));
  EXPECT_EQ(Stats.total(), 0u);
  EXPECT_EQ(Plan->printToString(), Before);
}

/// licm drains the loop-invariant constants into the preheader and
/// hoists the sB-opcode staging literal (charged) out of the inner loop;
/// the IV-dependent subviews and copies must stay put.
TEST(PlanDisassembly, MatMulAfterLicm) {
  MLIRContext Context;
  registerAllDialects(Context);
  OwningOpRef Owner;
  auto Plan = compileGoldenDriver(Context, Owner, /*Conv=*/false);
  ASSERT_NE(Plan, nullptr);
  opt::PlanOptStats Stats = opt::optimizePlan(*Plan, onlyPass("licm"));
  EXPECT_EQ(Stats.HoistedUnchargedInsts, 31u);
  EXPECT_EQ(Stats.HoistedChargedInsts, 1u);
  EXPECT_TRUE(Stats.changedCounters());
  expectInOrder(Plan->printToString(),
                {"plan @matmul_call args=3 slots=35 insts=41",
                 // Preheader: all loop constants, deepest last.
                 "%18 = const.i 34", "%24 = const.i 35",
                 "%28 = const.i 240", "%30 = const.i 36",
                 "%33 = const.i 16",
                 // Then the loop nest with only the real work inside.
                 "loop %9 = [%6, %7) step %8",
                 "loop %13 = [%10, %11) step %12",
                 "%19 = copy_literal_to_dma %18 @ %17",
                 "%20 = subview %0[%9, %13] sizes=[4, 4]",
                 "send end=%21 off=%17",
                 // The hoisted charged staging literal sits between the
                 // middle loop header and the inner loop.
                 "%25 = copy_literal_to_dma %24 @ %23",
                 "loop %22 = [%14, %15) step %16",
                 "%26 = subview %1[%13, %22] sizes=[4, 4]",
                 "send end=%31 off=%23",
                 "copy_from_dma %32 @ %34 accumulate"});
}

/// The full pipeline composes fold + licm, then dce deletes the
/// constants made dead by folding: 41 -> 31 instructions.
TEST(PlanDisassembly, MatMulAfterFullPipeline) {
  MLIRContext Context;
  registerAllDialects(Context);
  OwningOpRef Owner;
  auto Plan = compileGoldenDriver(Context, Owner, /*Conv=*/false);
  ASSERT_NE(Plan, nullptr);
  opt::PlanOptStats Stats =
      opt::optimizePlan(*Plan, opt::PlanOptOptions::all());
  EXPECT_EQ(Stats.FoldedOperands, 17u);
  EXPECT_EQ(Stats.RemovedUnchargedInsts, 10u);
  EXPECT_EQ(Stats.HoistedUnchargedInsts, 31u);
  EXPECT_EQ(Stats.HoistedChargedInsts, 1u);
  expectInOrder(Plan->printToString(),
                {"plan @matmul_call args=3 slots=35 insts=31",
                 "send end=%5 off=%3",
                 "%33 = const.i 16",
                 "loop %9 = [%3, %7) step %8 -> @31",
                 "loop %13 = [%3, %7) step %8 -> @30",
                 "%19 = copy_literal_to_dma %18 @ %3",
                 "send end=%21 off=%3",
                 "%25 = copy_literal_to_dma %24 @ %3",
                 "loop %22 = [%3, %7) step %8 -> @29",
                 "send end=%31 off=%3",
                 "recv len=%33 off=%3",
                 "copy_from_dma %32 @ %3 accumulate"});
}

TEST(PlanDisassembly, ConvUnoptimized) {
  MLIRContext Context;
  registerAllDialects(Context);
  OwningOpRef Owner;
  auto Plan = compileGoldenDriver(Context, Owner, /*Conv=*/true);
  ASSERT_NE(Plan, nullptr);
  expectInOrder(Plan->printToString(),
                {"plan @conv_call args=3 slots=48 insts=55",
                 "dma_init #0",
                 // cfg group: four chained literals, one send.
                 "%5 = copy_literal_to_dma %4 @ %3",
                 "%7 = copy_literal_to_dma %6 @ %5",
                 "%9 = copy_literal_to_dma %8 @ %7",
                 "%11 = copy_literal_to_dma %10 @ %9",
                 "send end=%11 off=%3",
                 // Output-channel loop: weights sent once per filter.
                 "loop %15 = [%12, %13) step %14 -> @55",
                 "%25 = subview %1[%15, %22, %23, %24] sizes=[1, 2, 3, 3]",
                 "send end=%26 off=%19",
                 // Spatial loops streaming input windows.
                 "loop %27 = [%16, %17) step %18 -> @42",
                 "loop %31 = [%28, %29) step %30 -> @41",
                 "%37 = subview %0[%35, %36, %27, %31] sizes=[1, 2, 3, 3]",
                 "send end=%38 off=%32",
                 "end -> @32", "end -> @28",
                 "recv len=%46 off=%47",
                 "copy_from_dma %45 @ %47 accumulate",
                 "end -> @15"});
}

/// Per-pass stats pins on the conv driver; dce and coalesce leave it
/// untouched, fold and licm each fire without changing the other's
/// domain.
TEST(PlanDisassembly, ConvPerPassStats) {
  MLIRContext Context;
  registerAllDialects(Context);

  struct Expectation {
    const char *Spec;
    size_t Folded, RemovedU, HoistedU, HoistedC;
  } Cases[] = {
      {"fold", 21, 0, 0, 0},
      {"dce", 0, 0, 0, 0},
      {"licm", 0, 0, 33, 2},
      {"coalesce", 0, 0, 0, 0},
  };
  for (const Expectation &E : Cases) {
    SCOPED_TRACE(E.Spec);
    OwningOpRef Owner;
    auto Plan = compileGoldenDriver(Context, Owner, /*Conv=*/true);
    ASSERT_NE(Plan, nullptr);
    std::string Before = Plan->printToString();
    opt::PlanOptStats Stats = opt::optimizePlan(*Plan, onlyPass(E.Spec));
    EXPECT_EQ(Stats.FoldedOperands, E.Folded);
    EXPECT_EQ(Stats.RemovedUnchargedInsts, E.RemovedU);
    EXPECT_EQ(Stats.HoistedUnchargedInsts, E.HoistedU);
    EXPECT_EQ(Stats.HoistedChargedInsts, E.HoistedC);
    EXPECT_EQ(Stats.RemovedChargedInsts, 0u);
    EXPECT_EQ(Stats.CoalescedSends, 0u);
    if (Stats.total() == 0) {
      EXPECT_EQ(Plan->printToString(), Before);
    }
  }
}

TEST(PlanDisassembly, ConvAfterFullPipeline) {
  MLIRContext Context;
  registerAllDialects(Context);
  OwningOpRef Owner;
  auto Plan = compileGoldenDriver(Context, Owner, /*Conv=*/true);
  ASSERT_NE(Plan, nullptr);
  opt::PlanOptStats Stats =
      opt::optimizePlan(*Plan, opt::PlanOptOptions::all());
  EXPECT_EQ(Stats.FoldedOperands, 47u);
  EXPECT_EQ(Stats.RemovedUnchargedInsts, 21u);
  EXPECT_EQ(Stats.HoistedUnchargedInsts, 33u);
  EXPECT_EQ(Stats.HoistedChargedInsts, 2u);
  expectInOrder(Plan->printToString(),
                {"plan @conv_call args=3 slots=48 insts=34",
                 "send end=%11 off=%3",
                 "loop %15 = [%3, %10) step %14 -> @34",
                 // Weight staging (IV-dependent) stays in the oC loop...
                 "%25 = subview %1[%15, %3, %3, %3] sizes=[1, 2, 3, 3]",
                 "send end=%26 off=%3",
                 // ...with the rC-opcode literal hoisted above the
                 // spatial nest.
                 "%34 = copy_literal_to_dma %33 @ %3",
                 "loop %27 = [%3, %6) step %14 -> @28",
                 "loop %31 = [%3, %6) step %14 -> @27",
                 "%37 = subview %0[%3, %3, %27, %31] sizes=[1, 2, 3, 3]",
                 "send end=%38 off=%3",
                 "recv len=%46 off=%3",
                 "copy_from_dma %45 @ %3 accumulate"});
}

//===----------------------------------------------------------------------===//
// Golden disassembly of the pre-decoded (dispatch-ready) form: the
// threaded engine's view of the same programs. Shared opcodes print with
// the ExecPlan::print mnemonics; specialized linalg.generic sites print
// their bound micro-kernel.
//===----------------------------------------------------------------------===//

TEST(DecodedDisassembly, AxirtMatMulDriver) {
  MLIRContext Context;
  registerAllDialects(Context);
  OwningOpRef Owner;
  auto Plan = compileGoldenDriver(Context, Owner, /*Conv=*/false);
  ASSERT_NE(Plan, nullptr);
  auto Decoded = DecodedPlan::decode(*Plan);
  ASSERT_NE(Decoded, nullptr);
  // Fully lowered driver: no linalg.generic left, so no kernels bind;
  // the program is the plan's 41 instructions plus the return sentinel.
  EXPECT_EQ(Decoded->numSpecializedKernels(), 0u);
  expectInOrder(Decoded->printToString(),
                {"dplan @matmul_call args=3 slots=35 insts=41+ret kernels=0",
                 "  0: dma_init #0",
                 "  3: %5 = copy_literal_to_dma %4 @ %3",
                 "  4: send end=%5 off=%3",
                 "  8: loop %9 = [%6, %7) step %8 -> @41",
                 " 12: loop %13 = [%10, %11) step %12 -> @40",
                 " 19: %20 = subview %0[%9, %13] sizes=[4, 4]",
                 " 21: send end=%21 off=%17",
                 " 22: loop %22 = [%14, %15) step %16 -> @39",
                 " 36: recv len=%33 off=%34",
                 " 37: copy_from_dma %32 @ %34 accumulate",
                 " 38: end -> @23",
                 " 39: end -> @13",
                 " 40: end -> @9",
                 " 41: ret"});
}

TEST(DecodedDisassembly, CpuMatMulBindsMulAddKernel) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildMatMulFunc(Builder, 4, 4, 4, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  ASSERT_TRUE(succeeded(transforms::convertNamedToGeneric(Func, Error)))
      << Error;
  auto Plan = ExecPlan::compile(Func, Error);
  ASSERT_NE(Plan, nullptr) << Error;
  auto Decoded = DecodedPlan::decode(*Plan);
  EXPECT_EQ(Decoded->numSpecializedKernels(), 1u);
  EXPECT_EQ(Decoded->printToString(),
            "dplan @matmul_call args=3 slots=8 insts=1+ret kernels=1\n"
            "    0: generic.muladd ranges=[4, 4, 4] operands=[%0, %1, %2]\n"
            "    1: ret\n");
}

TEST(DecodedDisassembly, CpuConvBindsMulAddKernel) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      buildConvFunc(Builder, 1, 2, 5, 2, 3, 1, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  ASSERT_TRUE(succeeded(transforms::convertNamedToGeneric(Func, Error)))
      << Error;
  auto Plan = ExecPlan::compile(Func, Error);
  ASSERT_NE(Plan, nullptr) << Error;
  auto Decoded = DecodedPlan::decode(*Plan);
  // Conv's strided input map (d2*s+d5) is linear in the loop dims, so
  // the same mul+add kernel binds as for matmul.
  EXPECT_EQ(Decoded->numSpecializedKernels(), 1u);
  EXPECT_EQ(Decoded->printToString(),
            "dplan @conv_call args=3 slots=8 insts=1+ret kernels=1\n"
            "    0: generic.muladd ranges=[1, 2, 3, 3, 2, 3, 3] "
            "operands=[%0, %1, %2]\n"
            "    1: ret\n");
}

//===----------------------------------------------------------------------===//
// Shared semantics (sim/Semantics.h)
//===----------------------------------------------------------------------===//

/// The parser-corpus loop whose induction variable would step past
/// INT64_MAX: the trip-count analysis and both engines stop after two.
TEST(ExecPlan, LoopStepPastInt64MaxRunsTwoIterations) {
  MLIRContext Context;
  registerAllDialects(Context);
  std::string Error;
  auto Parsed = parseSourceFile(
      AXI4MLIR_SOURCE_DIR "/tests/corpus/parser/hostile_loop_step.mlir",
      &Context, &Error);
  ASSERT_TRUE(succeeded(Parsed)) << Error;
  func::FuncOp Func(Parsed->get());
  auto Plan = ExecPlan::compile(Func, Error);
  ASSERT_NE(Plan, nullptr) << Error;
  analysis::SlotFacts Facts(Plan->numSlots());
  for (const auto &I : analysis::PlanView(*Plan).program()) {
    if (I.Code == analysis::PlanView::Op::ConstInt) {
      Facts.Known[I.Dst] = 1;
      Facts.Value[I.Dst] = I.Imm;
    } else if (I.Code == analysis::PlanView::Op::LoopBegin) {
      EXPECT_EQ(analysis::constTripCount(I, Facts), 2);
    }
  }
  for (ExecMode Mode : {ExecMode::Walker, ExecMode::Threaded}) {
    MemRefDesc Buffer = MemRefDesc::alloc({1});
    sim::PerfReport Report = runOn(Mode, Func, {Buffer});
    EXPECT_EQ(Report.BranchInstructions, 2u); // one per loop iteration
    EXPECT_EQ(Report.Stores, 2u);
  }
}

/// Every BinKind x {i32, f32} over a table of operand pairs: the walker,
/// the threaded Binary handler (scalar loop), the eltwise micro-kernel
/// (linalg.generic) and the constant folder (integer results) agree.
TEST(ExecPlan, SemanticsAgreeAcrossEngines) {
  const std::string Template = R"(func.func() ({
^bb(%arg0: $M, %arg1: $M, %arg2: $M, %arg3: $M):
  linalg.generic(%arg0, %arg1, %arg2) ({
  ^bb(%arg4: $T, %arg5: $T, %arg6: $T):
    %0 = $OP(%arg4, %arg5) : ($T, $T) -> ($T)
    linalg.yield(%0) : ($T) -> ()
  }) {indexing_maps = [affine_map<(d0) -> (d0)>, affine_map<(d0) -> (d0)>, affine_map<(d0) -> (d0)>], iterator_types = ["parallel"], num_inputs = 2} : ($M, $M, $M) -> ()
  %1 = arith.constant() {value = 0 : index} : () -> (index)
  %2 = arith.constant() {value = $N : index} : () -> (index)
  %3 = arith.constant() {value = 1 : index} : () -> (index)
  scf.for(%1, %2, %3) ({
  ^bb(%arg7: index):
    %4 = memref.load(%arg0, %arg7) : ($M, index) -> ($T)
    %5 = memref.load(%arg1, %arg7) : ($M, index) -> ($T)
    %6 = $OP(%4, %5) : ($T, $T) -> ($T)
    memref.store(%6, %arg3, %arg7) : ($T, $M, index) -> ()
    scf.yield() : () -> ()
  }) : (index, index, index) -> ()
  func.return() : () -> ()
}) {function_type = ($M, $M, $M, $M) -> (), sym_name = "table"} : () -> ())";
  const int64_t Values[] = {-7, -1, 0, 3, int64_t(1) << 20};
  const char *Names[] = {"add", "mul", "sub", "divf", "maxf"};
  for (sim::ElemKind Kind : {sim::ElemKind::I32, sim::ElemKind::F32}) {
    bool IsF32 = Kind == sim::ElemKind::F32;
    for (uint8_t Op = 0; Op < 5; ++Op) {
      std::string Name = std::string("arith.") + Names[Op] +
                         (Op < 3 ? (IsF32 ? "f" : "i") : "");
      SCOPED_TRACE(Name + (IsF32 ? " f32" : " i32"));
      // An f32 zero divisor is in the table (inf, nan); an i32 one would
      // convert inf to int64, which is undefined.
      std::vector<std::pair<int64_t, int64_t>> Pairs;
      for (int64_t A : Values)
        for (int64_t B : Values)
          if (IsF32 || Op != uint8_t(sim::BinKind::Div) || B != 0)
            Pairs.push_back({A, B});
      int64_t N = static_cast<int64_t>(Pairs.size());
      std::string Source = Template;
      for (auto [Key, Value] :
           {std::pair<std::string, std::string>{"$OP", Name},
            {"$M", "memref<" + std::to_string(N) + (IsF32 ? "xf32>" : "xi32>")},
            {"$T", IsF32 ? "f32" : "i32"},
            {"$N", std::to_string(N)}})
        for (size_t At; (At = Source.find(Key)) != std::string::npos;)
          Source.replace(At, Key.size(), Value);
      MLIRContext Context;
      registerAllDialects(Context);
      std::string Error;
      auto Parsed = parseSourceString(Source, &Context, &Error);
      ASSERT_TRUE(succeeded(Parsed)) << Error;

      // Per engine: {lhs, rhs, generic out, scalar out}.
      auto runEngine = [&](ExecMode Mode) {
        std::vector<MemRefDesc> Args;
        for (int K = 0; K < 4; ++K)
          Args.push_back(MemRefDesc::alloc({N}, Kind));
        for (int64_t P = 0; P < N; ++P) {
          Args[0].Buffer->Data[P] = sim::valueToWord(Pairs[P].first, Kind);
          Args[1].Buffer->Data[P] = sim::valueToWord(Pairs[P].second, Kind);
        }
        runOn(Mode, func::FuncOp(Parsed->get()), Args, /*Kernels=*/1);
        return Args;
      };
      std::vector<MemRefDesc> Walker = runEngine(ExecMode::Walker);
      std::vector<MemRefDesc> Threaded = runEngine(ExecMode::Threaded);
      for (int64_t P = 0; P < N; ++P) {
        SCOPED_TRACE(std::to_string(Pairs[P].first) + ", " +
                     std::to_string(Pairs[P].second));
        uint32_t Word = Walker[3].Buffer->Data[P];
        EXPECT_EQ(Walker[2].Buffer->Data[P], Word) << "walker generic";
        EXPECT_EQ(Threaded[2].Buffer->Data[P], Word) << "eltwise kernel";
        EXPECT_EQ(Threaded[3].Buffer->Data[P], Word) << "threaded Binary";
        if (IsF32)
          continue;
        analysis::PlanView::Inst I{analysis::PlanView::Op::Binary, Op, 2, 0, 1};
        analysis::SlotFacts Facts(3);
        Facts.Known = {1, 1, 0};
        Facts.Value = {Pairs[P].first, Pairs[P].second, 0};
        int64_t Folded = 0;
        ASSERT_TRUE(analysis::evalConstDst(I, Facts, Folded));
        EXPECT_EQ(sim::intToWord(Folded), Word) << "constant folder";
      }
    }
  }
}

} // namespace
