//===- Pipeline.h - End-to-end driver API -----------------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's top-level convenience API: build a linalg workload, run
/// the AXI4MLIR pipeline (or a baseline), execute it on the simulated SoC
/// and return validated perf counters. The examples and every benchmark
/// binary are built on these entry points.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_EXEC_PIPELINE_H
#define AXI4MLIR_EXEC_PIPELINE_H

#include "dialects/Func.h"
#include "dialects/Linalg.h"
#include "exec/ExecPlanRun.h"
#include "exec/ManualDrivers.h"
#include "exec/opt/PlanOpt.h"
#include "sim/SoC.h"
#include "transforms/Passes.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace axi4mlir {
namespace exec {

/// Workload + system configuration for one MatMul experiment.
struct MatMulRunConfig {
  int64_t M = 64, N = 64, K = 64;
  sim::MatMulAccelerator::Version Version =
      sim::MatMulAccelerator::Version::V3;
  /// Square accelerator size (Table I: 4, 8 or 16).
  int64_t AccelSize = 8;
  /// Optional rectangular tiles (v4 only); 0 = use AccelSize.
  int64_t TileM = 0, TileN = 0, TileK = 0;
  /// Dataflow strategy: Ns / As / Bs / Cs.
  std::string Flow = "Ns";
  /// AXI4MLIR options (ignored by manual/CPU runs).
  bool CpuTiling = true;
  bool SpecializeCopies = true;
  /// Partial-tile strategy for extents not divisible by the tile
  /// (ignored by manual/CPU runs; Reject reproduces the legacy error).
  transforms::RemainderMode Remainder = transforms::RemainderMode::Pad;
  sim::ElemKind Kind = sim::ElemKind::I32;
  sim::SoCParams Params;
  /// Validate numerics against the reference kernel (costs an extra
  /// reference execution; disable in large sweeps).
  bool Validate = true;
  uint32_t Seed = 7;
  /// Which execution engine interprets the lowered host code.
  ExecMode Exec = ExecMode::Threaded;
  /// Fault schedule + recovery policy for the run (empty events =
  /// fault-free; the injection hooks stay cold).
  sim::FaultPlan Faults;
  /// Protocol-identical spare accelerators registered as failover targets
  /// (scored by the TilingPlan modeled cost of the selected plan).
  unsigned SpareAccelerators = 0;
};

/// Result of one experiment run.
struct RunResult {
  bool Ok = false;
  bool NumericsMatch = false;
  std::string Error;
  sim::PerfReport Report;
  /// Name of the accelerator the planning layer dispatched to (empty for
  /// manual/CPU runs).
  std::string SelectedAccelerator;
};

/// Builds `func @matmul_call(%A, %B, %C)` containing one linalg.matmul.
func::FuncOp buildMatMulFunc(OpBuilder &Builder, int64_t M, int64_t N,
                             int64_t K, sim::ElemKind Kind);

/// Builds `func @conv_call(%I, %W, %O)` containing one
/// linalg.conv_2d_nchw_fchw.
func::FuncOp buildConvFunc(OpBuilder &Builder, int64_t Batch,
                           int64_t InChannels, int64_t InHW,
                           int64_t OutChannels, int64_t FilterHW,
                           int64_t Stride, sim::ElemKind Kind);

/// Full AXI4MLIR path: IR -> pipeline -> interpret on the simulated SoC.
RunResult runMatMulAxi4mlir(const MatMulRunConfig &Config);

/// Hand-written driver baseline (cpp_MANUAL).
RunResult runMatMulManual(const MatMulRunConfig &Config);

/// CPU-only execution of the tiled linalg.generic (mlir_CPU baseline).
RunResult runMatMulCpuOnly(const MatMulRunConfig &Config);

/// One ResNet-style convolution layer.
struct ConvRunConfig {
  int64_t Batch = 1, InChannels = 64, InHW = 58, OutChannels = 64,
          FilterHW = 3, Stride = 1;
  bool CpuTiling = false; // conv tiles are already output-slice shaped
  bool SpecializeCopies = true;
  transforms::RemainderMode Remainder = transforms::RemainderMode::Pad;
  sim::ElemKind Kind = sim::ElemKind::I32;
  sim::SoCParams Params;
  bool Validate = true;
  uint32_t Seed = 11;
  /// Which execution engine interprets the lowered host code.
  ExecMode Exec = ExecMode::Threaded;
  /// Fault schedule + failover spares (see MatMulRunConfig).
  sim::FaultPlan Faults;
  unsigned SpareAccelerators = 0;
};

RunResult runConvAxi4mlir(const ConvRunConfig &Config);
RunResult runConvManual(const ConvRunConfig &Config);

//===----------------------------------------------------------------------===//
// The run path every front end shares (the entry points above,
// serve::Server, axi4mlir-opt --run): one function per decision.
//===----------------------------------------------------------------------===//

/// The geometry of one kernel invocation: a matmul C[M][N] += A[M][K] x
/// B[K][N], or a conv2d O += I (*) W over NCHW input and FCHW filter with
/// square windows and one stride for both axes.
struct KernelShape {
  bool IsConv = false;
  int64_t M = 0, N = 0, K = 0;
  int64_t Batch = 1, InChannels = 0, InHW = 0, OutChannels = 0,
          FilterHW = 0, Stride = 1;

  static KernelShape matmul(int64_t M, int64_t N, int64_t K) {
    return {false, M, N, K};
  }
  static KernelShape conv(int64_t Batch, int64_t InChannels, int64_t InHW,
                          int64_t OutChannels, int64_t FilterHW,
                          int64_t Stride) {
    return {true, 0, 0, 0, Batch, InChannels, InHW, OutChannels, FilterHW,
            Stride};
  }

  /// The linalg op the shape describes.
  const char *kernelName() const {
    return IsConv ? linalg::Conv2DNchwFchwOp::OpName : linalg::MatmulOp::OpName;
  }
  /// Output height and width of the conv (no padding).
  int64_t outHW() const { return (InHW - FilterHW) / Stride + 1; }
  /// The shape of argument \p Index (0 to 2) in call order: A, B, C or
  /// input, filter, output.
  std::vector<int64_t> argumentShape(unsigned Index) const;
};

/// Builds the kernel's function: `@matmul_call(%A, %B, %C)` holding one
/// linalg.matmul, or `@conv_call(%I, %W, %O)` holding one
/// linalg.conv_2d_nchw_fchw.
func::FuncOp buildKernelFunc(OpBuilder &Builder, const KernelShape &Shape,
                             sim::ElemKind Kind);

/// Kernel data: the arguments of \p Shape, filled by fillRandom with
/// \p Seed, Seed + 1 and Seed + 2 in call order.
std::vector<runtime::MemRefDesc>
makeKernelBuffers(const KernelShape &Shape, sim::ElemKind Kind,
                  uint32_t Seed);

/// Reference check: true when the output argument (the last of \p Args)
/// equals \p OutInitial plus the reference kernel over the two operands.
bool matchesReference(const KernelShape &Shape,
                      const std::vector<runtime::MemRefDesc> &Args,
                      const runtime::MemRefDesc &OutInitial);

/// Engine size: the size of the simulated engine for \p Accel, which is
/// its largest accel_size tile (the square engines hold the full tile), or
/// 8 when the description has only sentinel entries.
int64_t engineSizeOf(const parser::AcceleratorDesc &Accel);

/// The simulated board for \p Accel: the MatMul engine of the version its
/// name encodes, sized by engineSizeOf, or the Conv2D engine. Null with
/// \p Error set when a matmul name encodes no version.
std::unique_ptr<sim::SoC> makeSoCFor(const parser::AcceleratorDesc &Accel,
                                     sim::ElemKind Kind,
                                     const sim::SoCParams &Params,
                                     std::string &Error);

/// Fault arming: registers \p Spares clones of the primary accelerator as
/// failover targets, each scored \p Score (the dispatched plan's modeled
/// cost, lower is better), and attaches an injector for \p Faults, held
/// in \p Injector. The injector must outlive the run: the SoC keeps a raw
/// pointer to it. Arms nothing when there are neither fault events nor
/// spares. Fails when the accelerator cannot provide spare units.
LogicalResult armFaults(sim::SoC &Soc, const sim::FaultPlan &Faults,
                        unsigned Spares, double Score,
                        std::optional<sim::FaultInjector> &Injector,
                        std::string &Error);

/// Driver compilation: compiles the lowered \p Func to an ExecPlan, runs
/// the plan optimizer with \p Options and pre-decodes the result, which
/// callers may share (the serve plan cache does). A plan that verify-each
/// rejects between passes is refused. Null with \p Error set on failure;
/// \p Stats, when given, receives what the optimizer did.
std::shared_ptr<const DecodedPlan>
compileDriver(func::FuncOp Func, const opt::PlanOptOptions &Options,
              std::string &Error, opt::PlanOptStats *Stats = nullptr);

} // namespace exec
} // namespace axi4mlir

#endif // AXI4MLIR_EXEC_PIPELINE_H
