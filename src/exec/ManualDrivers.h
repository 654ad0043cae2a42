//===- ManualDrivers.h - Hand-written baseline drivers ----------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-optimized host driver code in the style of the paper's SECDA-TFLite
/// baselines ("cpp_MANUAL", Sec. IV-A): direct C++ loops over bare arrays,
/// tiled only to the accelerator size, with the fewest DMA transfers per
/// dataflow and no extra staging overhead. AXI4MLIR-generated code is
/// compared against these throughout Figs. 10-16.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_EXEC_MANUALDRIVERS_H
#define AXI4MLIR_EXEC_MANUALDRIVERS_H

#include "runtime/DmaRuntime.h"
#include "sim/MatMulAccelerator.h"

#include <string>

namespace axi4mlir {
namespace exec {

/// Configuration of one manual matmul offload.
struct ManualMatMulConfig {
  sim::MatMulAccelerator::Version Version =
      sim::MatMulAccelerator::Version::V3;
  /// Accelerator tile sizes (square unless v4).
  int64_t TileM = 8, TileN = 8, TileK = 8;
  /// Dataflow: "Ns", "As", "Bs" (v2/v3/v4) or "Cs" (v3/v4).
  std::string Flow = "Ns";
};

/// Runs C += A x B on the accelerator with hand-written driver code.
/// Problem sizes come from the descriptors; they must be positive
/// multiples of the tiles, and the version must support the flow. Returns
/// false, with the reason in \p Error when given, on a violated
/// precondition (nothing is staged then) or a protocol error.
bool runManualMatMul(runtime::DmaRuntime &Runtime,
                     const runtime::MemRefDesc &A,
                     const runtime::MemRefDesc &B, runtime::MemRefDesc &C,
                     const ManualMatMulConfig &Config,
                     std::string *Error = nullptr);

/// Runs O += conv2d(I, W) on the conv accelerator with hand-written,
/// layer-specific driver code (filter+output stationary). The output
/// shape must follow from the input, the square filter and the strides.
/// Returns false as runManualMatMul does.
bool runManualConv2D(runtime::DmaRuntime &Runtime,
                     const runtime::MemRefDesc &Input,
                     const runtime::MemRefDesc &Filter,
                     runtime::MemRefDesc &Output, int64_t StrideH,
                     int64_t StrideW, std::string *Error = nullptr);

} // namespace exec
} // namespace axi4mlir

#endif // AXI4MLIR_EXEC_MANUALDRIVERS_H
