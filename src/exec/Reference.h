//===- Reference.h - Golden reference kernels -------------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plain (uninstrumented) reference implementations used to validate the
/// numerics of every execution path: CPU-interpreted generics, manual
/// drivers, and AXI4MLIR-generated drivers must all match these.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_EXEC_REFERENCE_H
#define AXI4MLIR_EXEC_REFERENCE_H

#include "runtime/MemRefDesc.h"

#include <cstdint>
#include <random>

namespace axi4mlir {
namespace exec {

/// C += A x B over MemRef descriptors (any strides).
inline void referenceMatMul(const runtime::MemRefDesc &A,
                            const runtime::MemRefDesc &B,
                            runtime::MemRefDesc &C) {
  int64_t M = A.Sizes[0], K = A.Sizes[1], N = B.Sizes[1];
  for (int64_t I = 0; I < M; ++I) {
    for (int64_t J = 0; J < N; ++J) {
      double Sum = C.read({I, J});
      for (int64_t L = 0; L < K; ++L)
        Sum += A.read({I, L}) * B.read({L, J});
      C.write({I, J}, Sum);
    }
  }
}

/// O += conv2d(I, W), NCHW/FCHW layouts with the given strides.
inline void referenceConv2D(const runtime::MemRefDesc &Input,
                            const runtime::MemRefDesc &Filter,
                            runtime::MemRefDesc &Output, int64_t StrideH,
                            int64_t StrideW) {
  int64_t Batch = Output.Sizes[0], OutChannels = Output.Sizes[1];
  int64_t OutH = Output.Sizes[2], OutW = Output.Sizes[3];
  int64_t InChannels = Filter.Sizes[1], FilterH = Filter.Sizes[2],
          FilterW = Filter.Sizes[3];
  for (int64_t B = 0; B < Batch; ++B)
    for (int64_t OC = 0; OC < OutChannels; ++OC)
      for (int64_t OH = 0; OH < OutH; ++OH)
        for (int64_t OW = 0; OW < OutW; ++OW) {
          double Sum = Output.read({B, OC, OH, OW});
          for (int64_t IC = 0; IC < InChannels; ++IC)
            for (int64_t FH = 0; FH < FilterH; ++FH)
              for (int64_t FW = 0; FW < FilterW; ++FW)
                Sum += Input.read({B, IC, OH * StrideH + FH,
                                   OW * StrideW + FW}) *
                       Filter.read({OC, IC, FH, FW});
          Output.write({B, OC, OH, OW}, Sum);
        }
}

/// Fills a memref with small deterministic pseudo-random integers (exact
/// in both i32 and f32 arithmetic, so all paths compare bit-equal).
inline void fillRandom(runtime::MemRefDesc &Desc, uint32_t Seed) {
  std::mt19937 Rng(Seed);
  std::uniform_int_distribution<int32_t> Dist(-4, 4);
  for (uint32_t &Word : Desc.Buffer->Data) {
    int32_t V = Dist(Rng);
    Word = sim::valueToWord(V, Desc.kind());
  }
}

/// True if the two memrefs hold identical logical shapes and values.
inline bool memrefEquals(const runtime::MemRefDesc &LHS,
                         const runtime::MemRefDesc &RHS) {
  if (LHS.Sizes != RHS.Sizes)
    return false;
  std::vector<int64_t> Point(LHS.rank(), 0);
  bool Done = LHS.numElements() == 0;
  while (!Done) {
    if (LHS.read(Point) != RHS.read(Point))
      return false;
    Done = true;
    for (int D = static_cast<int>(Point.size()) - 1; D >= 0; --D) {
      if (++Point[D] < LHS.Sizes[D]) {
        Done = false;
        break;
      }
      Point[D] = 0;
    }
  }
  return true;
}

/// Deep copy of a memref's logical contents into a fresh buffer.
inline runtime::MemRefDesc cloneMemRef(const runtime::MemRefDesc &Source) {
  runtime::MemRefDesc Copy =
      runtime::MemRefDesc::alloc(Source.Sizes, Source.kind());
  std::vector<int64_t> Point(Source.rank(), 0);
  bool Done = Source.numElements() == 0;
  while (!Done) {
    Copy.at(Point) = Source.at(Point);
    Done = true;
    for (int D = static_cast<int>(Point.size()) - 1; D >= 0; --D) {
      if (++Point[D] < Source.Sizes[D]) {
        Done = false;
        break;
      }
      Point[D] = 0;
    }
  }
  return Copy;
}

} // namespace exec
} // namespace axi4mlir

#endif // AXI4MLIR_EXEC_REFERENCE_H
