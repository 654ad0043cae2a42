//===- Passes.h - AXI4MLIR transformation passes ----------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AXI4MLIR compiler pipeline (paper Fig. 4):
///
///   1. convertNamedToGeneric — linalg named ops -> linalg.generic (step 3).
///   2. matchAndAnnotate      — find generics an accelerator implements and
///                              attach the trait attributes (steps 2+3).
///   3. lowerToAccel          — tiling for CPU caches and accelerator size,
///                              loop permutation and opcode-flow placement,
///                              emitting scf loops + accel ops (steps 4+5).
///   4. convertAccelToRuntime — accel ops -> DMA runtime library calls with
///                              transfer batching (step 5 -> 6).
///
/// Passes operate on func.func roots and report errors through a string
/// (no exceptions).
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_TRANSFORMS_PASSES_H
#define AXI4MLIR_TRANSFORMS_PASSES_H

#include "dialects/Func.h"
#include "parser/AcceleratorConfig.h"
#include "support/LogicalResult.h"
#include "transforms/TilingPlan.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace axi4mlir {
namespace transforms {

/// Converts linalg.matmul / linalg.conv_2d_nchw_fchw into linalg.generic
/// with the canonical indexing maps and payload regions.
LogicalResult convertNamedToGeneric(func::FuncOp Func, std::string &Error);

/// Finds linalg.generic ops whose traits structurally match what any of
/// the \p Accels implements, computes a TilingPlan (scoring every
/// structurally-matching candidate through the cost model and picking the
/// cheapest), and attaches the AXI4MLIR trait attributes (paper Fig. 6a)
/// plus the plan attributes of the selected accelerator. Returns the
/// number of annotated ops via \p NumAnnotated and, when \p PlansOut is
/// non-null, appends the plan chosen for each annotated op.
LogicalResult matchAndAnnotate(func::FuncOp Func,
                               const std::vector<parser::AcceleratorDesc> &Accels,
                               const PlanningOptions &Options,
                               std::string &Error,
                               unsigned *NumAnnotated = nullptr,
                               std::vector<TilingPlan> *PlansOut = nullptr);

/// Single-accelerator convenience overload (pad remainders by default).
LogicalResult matchAndAnnotate(func::FuncOp Func,
                               const parser::AcceleratorDesc &Accel,
                               std::string &Error,
                               unsigned *NumAnnotated = nullptr);

/// Structural classification of a linalg.generic against the kernels the
/// accelerators implement — the same matcher matchAndAnnotate uses, exposed
/// so tools can accept already-generic kernels in their inputs.
enum class GenericKernelKind { None, MatMul, Conv2D };

/// Classifies \p Op. For Conv2D the window strides extracted from the
/// indexing maps are returned through \p StrideH / \p StrideW.
GenericKernelKind classifyGenericKernel(Operation *Op, int64_t &StrideH,
                                        int64_t &StrideW);

/// Derives a loop permutation from an opcode flow: dimensions used by send
/// tokens of outer scopes become outer loops (stationary operands' indices
/// go outermost); remaining dimensions are appended in ascending order.
std::vector<unsigned>
derivePermutationFromFlow(const accel::OpcodeFlowData &Flow,
                          const accel::OpcodeMapData &Map,
                          const std::vector<AffineMap> &IndexingMaps,
                          unsigned NumLoops);

/// Options controlling the tiling/lowering pass.
struct LoweringOptions {
  /// Emit an extra loop level tiled for the CPU's last-level cache
  /// (paper Fig. 4 step 4; disabling reproduces the no-CPU-tiling
  /// ablation).
  bool EnableCpuTiling = true;
  /// Last-level cache capacity used by the tiling heuristic.
  int64_t CacheBytes = 512 * 1024;
  /// Partial-tile strategy used when planning (pad, peel or reject).
  RemainderMode Remainder = RemainderMode::Pad;
  /// SoC calibration for the accelerator-dispatch cost model.
  sim::SoCParams CostParams;
};

/// Lowers every annotated linalg.generic into the tiled scf loop nest with
/// accel-dialect communication ops placed according to the opcode flow
/// (paper Fig. 6b / Fig. 15b).
LogicalResult lowerToAccel(func::FuncOp Func, const LoweringOptions &Options,
                           std::string &Error);

/// Lowers accel ops to DMA runtime library calls ("axirt.*" callees),
/// batching consecutive staged copies into single dma_start_send transfers.
LogicalResult convertAccelToRuntime(func::FuncOp Func, std::string &Error);

/// Runtime-library callee names emitted by convertAccelToRuntime.
namespace rtcall {
inline constexpr const char *DmaInit = "axirt.dma_init";
inline constexpr const char *CopyToDma = "axirt.copy_to_dma";
inline constexpr const char *CopyLiteralToDma = "axirt.copy_literal_to_dma";
inline constexpr const char *CopyIndexToDma = "axirt.copy_index_to_dma";
inline constexpr const char *StartSend = "axirt.start_send";
inline constexpr const char *WaitSend = "axirt.wait_send";
inline constexpr const char *StartRecv = "axirt.start_recv";
inline constexpr const char *WaitRecv = "axirt.wait_recv";
inline constexpr const char *CopyFromDma = "axirt.copy_from_dma";
} // namespace rtcall

/// A tiny pass manager: runs passes in order, verifying the IR after
/// each, collecting the first error.
class PassManager {
public:
  using PassFn = std::function<LogicalResult(func::FuncOp, std::string &)>;

  void addPass(std::string Name, PassFn Fn) {
    Passes.emplace_back(std::move(Name), std::move(Fn));
  }

  /// Runs all passes on \p Func. On failure \p Error names the failing
  /// pass.
  LogicalResult run(func::FuncOp Func, std::string &Error);

private:
  std::vector<std::pair<std::string, PassFn>> Passes;
};

/// Builds the standard AXI4MLIR pipeline over a set of candidate
/// accelerators: the match pass plans each matched kernel across all of
/// them and dispatches to the cheapest. When \p PlansOut is non-null the
/// plans selected during the run are appended to it (one per annotated
/// kernel, in walk order).
PassManager buildPipeline(std::vector<parser::AcceleratorDesc> Accels,
                          const LoweringOptions &Options,
                          std::shared_ptr<std::vector<TilingPlan>> PlansOut =
                              nullptr);

/// Builds the standard AXI4MLIR pipeline for one accelerator.
PassManager buildPipeline(const parser::AcceleratorDesc &Accel,
                          const LoweringOptions &Options);

} // namespace transforms
} // namespace axi4mlir

#endif // AXI4MLIR_TRANSFORMS_PASSES_H
