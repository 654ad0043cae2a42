//===- DmaRuntime.cpp - DMA runtime library implementation ----------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "runtime/DmaRuntime.h"

#include "runtime/StridedCopy.h"

#include <cassert>

using namespace axi4mlir;
using namespace axi4mlir::runtime;

void DmaRuntime::dmaInit(const accel::DmaInitConfig &Config) {
  Soc.dma().init(Config);
}

uint64_t DmaRuntime::regionAddress(bool Input, int64_t OffsetWords) const {
  const sim::DmaEngine &Dma = static_cast<const sim::SoC &>(Soc).dma();
  const uint32_t *Base = Input ? Dma.inputRegion() : Dma.outputRegion();
  return reinterpret_cast<uint64_t>(Base + OffsetWords);
}

/// True when \p Dma is initialized and words [\p OffsetWords,
/// \p OffsetWords + \p Words) lie inside its input (\p Input) or output
/// staging region as dma_init sized it; otherwise signals an error naming
/// \p Call, the range and the region. The plan chooses the offset and the
/// config sizes the region, so neither is trusted: the sum is never formed
/// where it could overflow.
static bool checkStaging(sim::DmaEngine &Dma, const char *Call, bool Input,
                         int64_t OffsetWords, int64_t Words) {
  if (!Dma.isInitialized()) {
    Dma.signalError("dma: " + std::string(Call) + " before dma_init");
    return false;
  }
  size_t RegionWords =
      Input ? Dma.inputRegionWords() : Dma.outputRegionWords();
  uint64_t Offset = static_cast<uint64_t>(OffsetWords);
  if (OffsetWords >= 0 && Words >= 0 && Offset <= RegionWords &&
      static_cast<uint64_t>(Words) <= RegionWords - Offset)
    return true;
  Dma.signalError("dma: " + std::string(Call) + " of " +
                  std::to_string(Words) + " word(s) at offset " +
                  std::to_string(OffsetWords) + " exceeds the " +
                  std::to_string(RegionWords) + "-word " +
                  (Input ? "input" : "output") + " staging region");
  return false;
}

/// Drops size-1 dimensions from a descriptor: the rank-specialization the
/// paper applies to "known rank sizes" (Sec. IV-B). A [1, iC, 1, 1] conv
/// window collapses to a rank-1 sweep, saving per-row recursion overhead.
static MemRefDesc collapseUnitDims(const MemRefDesc &Desc) {
  MemRefDesc Collapsed;
  Collapsed.Buffer = Desc.Buffer;
  Collapsed.Offset = Desc.Offset;
  for (unsigned I = 0; I < Desc.rank(); ++I) {
    if (Desc.Sizes[I] == 1)
      continue;
    Collapsed.Sizes.push_back(Desc.Sizes[I]);
    Collapsed.Strides.push_back(Desc.Strides[I]);
  }
  return Collapsed;
}

/// Rows shorter than this gain nothing from memcpy (call setup dominates);
/// the generic path handles them — this is why fHW==1 convolution layers
/// cannot leverage the specialization (paper Sec. IV-D).
static constexpr int64_t MinProfitableRowElements = 2;

static bool rowsAreProfitable(const MemRefDesc &Desc) {
  return Desc.innermostContiguous() &&
         (Desc.rank() == 0 ||
          Desc.Sizes.back() >= MinProfitableRowElements);
}

/// Row-major contiguous strides over \p Sizes: the layout of the DMA
/// staging regions. Written into \p Strides (MaxCopyRank capacity).
static void contiguousStrides(const std::vector<int64_t> &Sizes,
                              int64_t *Strides) {
  unsigned Rank = Sizes.size();
  assert(Rank <= detail::MaxCopyRank && "region copy rank beyond cap");
  int64_t Running = 1;
  for (unsigned I = Rank; I > 0; --I) {
    Strides[I - 1] = Running;
    Running *= Sizes[I - 1];
  }
}

int64_t DmaRuntime::copyToDmaRegion(const MemRefDesc &Source,
                                    int64_t OffsetWords) {
  if (!checkStaging(Soc.dma(), "copy_to_dma_region", /*Input=*/true,
                    OffsetWords, Source.numElements()))
    return OffsetWords;
  MemRefDesc Collapsed = collapseUnitDims(Source);
  int64_t RegionStrides[detail::MaxCopyRank];
  contiguousStrides(Collapsed.Sizes, RegionStrides);

  StridedCopyRequest Req;
  Req.Rank = Collapsed.rank();
  Req.Sizes = Collapsed.Sizes.data();
  Req.Src = {Collapsed.Buffer->Data.data() + Collapsed.Offset,
             Collapsed.addressOf(Collapsed.Offset),
             Collapsed.Strides.data()};
  Req.Dst = {Soc.dma().inputRegion() + OffsetWords,
             regionAddress(/*Input=*/true, OffsetWords), RegionStrides};
  Req.RowMemcpy = SpecializeCopies && rowsAreProfitable(Collapsed);
  stridedCopy(Soc.perf(), Req);
  return OffsetWords + Collapsed.numElements();
}

int64_t DmaRuntime::copyLiteralToDmaRegion(int32_t Literal,
                                           int64_t OffsetWords) {
  if (!checkStaging(Soc.dma(), "copy_literal_to_dma_region", /*Input=*/true,
                    OffsetWords, 1))
    return OffsetWords;
  Soc.dma().inputRegion()[OffsetWords] = static_cast<uint32_t>(Literal);
  Soc.perf().onScalarStore(regionAddress(/*Input=*/true, OffsetWords), 4);
  Soc.perf().onArith(1);
  return OffsetWords + 1;
}

sim::AccelStatus DmaRuntime::dmaStartSend(int64_t LengthWords,
                                          int64_t OffsetWords) {
  return Soc.dma().startSend(static_cast<size_t>(LengthWords),
                             static_cast<size_t>(OffsetWords));
}

sim::AccelStatus DmaRuntime::dmaWaitSendCompletion() {
  return Soc.dma().waitSendCompletion();
}

sim::AccelStatus DmaRuntime::dmaStartRecv(int64_t LengthWords,
                                          int64_t OffsetWords) {
  return Soc.dma().startRecv(static_cast<size_t>(LengthWords),
                             static_cast<size_t>(OffsetWords));
}

sim::AccelStatus DmaRuntime::dmaWaitRecvCompletion() {
  return Soc.dma().waitRecvCompletion();
}

void DmaRuntime::copyFromDmaRegion(const MemRefDesc &OriginalDest,
                                   int64_t OffsetWords, bool Accumulate) {
  if (!checkStaging(Soc.dma(), "copy_from_dma_region", /*Input=*/false,
                    OffsetWords, OriginalDest.numElements()))
    return;
  MemRefDesc Dest = collapseUnitDims(OriginalDest);
  int64_t RegionStrides[detail::MaxCopyRank];
  contiguousStrides(Dest.Sizes, RegionStrides);

  StridedCopyRequest Req;
  Req.Rank = Dest.rank();
  Req.Sizes = Dest.Sizes.data();
  Req.Src = {Soc.dma().outputRegion() + OffsetWords,
             regionAddress(/*Input=*/false, OffsetWords), RegionStrides};
  Req.Dst = {Dest.Buffer->Data.data() + Dest.Offset,
             Dest.addressOf(Dest.Offset), Dest.Strides.data()};
  Req.Mode = !Accumulate ? CopyMode::Overwrite
             : Dest.kind() == sim::ElemKind::F32 ? CopyMode::AccumulateF32
                                                 : CopyMode::AccumulateI32;
  Req.RowMemcpy = SpecializeCopies && rowsAreProfitable(Dest);
  stridedCopy(Soc.perf(), Req);
}
