//===- PlanAnalyses.cpp - Shared ExecPlan analyses ------------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/PlanAnalyses.h"

#include "sim/Semantics.h"

#include <algorithm>

using namespace axi4mlir;
using namespace axi4mlir::analysis;

using Inst = PlanView::Inst;
using Op = PlanView::Op;
using BinKind = PlanView::BinKind;

const char *PlanView::opName(Op Code) {
  switch (Code) {
  case Op::ConstInt:
    return "const";
  case Op::ConstFloat:
    return "constf";
  case Op::Binary:
    return "binary";
  case Op::IndexCast:
    return "index_cast";
  case Op::LoopBegin:
    return "loop";
  case Op::LoopEnd:
    return "end";
  case Op::Alloc:
    return "alloc";
  case Op::Dealloc:
    return "dealloc";
  case Op::Load:
    return "load";
  case Op::Store:
    return "store";
  case Op::Copy:
    return "copy";
  case Op::SubView:
    return "subview";
  case Op::Generic:
    return "generic";
  case Op::CallDmaInit:
    return "dma_init";
  case Op::CallCopyToDma:
    return "copy_to_dma";
  case Op::CallCopyLiteralToDma:
    return "copy_literal_to_dma";
  case Op::CallStartSend:
    return "send";
  case Op::CallWaitSend:
    return "wait_send";
  case Op::CallStartRecv:
    return "recv";
  case Op::CallWaitRecv:
    return "wait_recv";
  case Op::CallCopyFromDma:
    return "copy_from_dma";
  case Op::CallSendFused:
    return "send_fused";
  case Op::CallRecvFused:
    return "recv_fused";
  }
  return "<invalid>";
}

bool analysis::evalConstDst(const Inst &I, const SlotFacts &Facts,
                            int64_t &Out) {
  switch (I.Code) {
  case Op::ConstInt:
    Out = I.Imm;
    return true;
  case Op::IndexCast:
    if (!Facts.isConst(I.A))
      return false;
    Out = Facts.Value[I.A];
    return true;
  case Op::Binary: {
    if ((I.Sub & PlanView::BinFloatResult) || !Facts.isConst(I.A) ||
        !Facts.isConst(I.B))
      return false;
    BinKind Kind = static_cast<BinKind>(I.Sub & 0x7);
    if (Kind == BinKind::Div && Facts.Value[I.B] == 0)
      return false;
    Out = sim::toInt(sim::applyBinary(
        Kind, static_cast<double>(Facts.Value[I.A]),
        static_cast<double>(Facts.Value[I.B])));
    return true;
  }
  case Op::CallCopyLiteralToDma:
    // Result is the end offset: offset + one staged word.
    return Facts.isConst(I.B) && rangeEnd(Facts.Value[I.B], 1, Out);
  case Op::CallCopyToDma:
    return Facts.isConst(I.B) && I.A >= 0 && Facts.SizeKnown[I.A] &&
           rangeEnd(Facts.Value[I.B], Facts.Count[I.A], Out);
  default:
    return false;
  }
}

int64_t analysis::constTripCount(const Inst &LoopBegin,
                                 const SlotFacts &Facts) {
  if (!Facts.isConst(LoopBegin.A) || !Facts.isConst(LoopBegin.B) ||
      !Facts.isConst(LoopBegin.C))
    return -1;
  int64_t Step = Facts.Value[LoopBegin.C];
  if (Step <= 0)
    return -1;
  return sim::tripCount(Facts.Value[LoopBegin.A], Facts.Value[LoopBegin.B],
                        Step);
}

bool analysis::inputWriteRange(const Inst &I, const SlotFacts &Facts,
                               WordRange &R) {
  if (I.Code != Op::CallCopyLiteralToDma && I.Code != Op::CallCopyToDma)
    return false;
  // The instruction's result is its staging end offset.
  int64_t End = 0;
  if (!evalConstDst(I, Facts, End))
    return false;
  R = {Facts.Value[I.B], End};
  return true;
}

bool analysis::sendRange(const Inst &I, const SlotFacts &Facts,
                         WordRange &R) {
  if (!Facts.isConst(I.A) || !Facts.isConst(I.B))
    return false;
  R = {Facts.Value[I.B], Facts.Value[I.A]}; // B = offset, A = end offset
  return true;
}

int64_t analysis::inputRegionWords(const PlanView &Plan) {
  if (Plan.dmaConfigs().empty())
    return 0;
  int64_t Words = -1;
  for (const accel::DmaInitConfig &C : Plan.dmaConfigs()) {
    int64_t W = C.InputBufferSize / 4;
    Words = Words < 0 ? W : std::min(Words, W);
  }
  return std::max<int64_t>(Words, 0);
}

int64_t analysis::outputRegionWords(const PlanView &Plan) {
  if (Plan.dmaConfigs().empty())
    return 0;
  int64_t Words = -1;
  for (const accel::DmaInitConfig &C : Plan.dmaConfigs()) {
    int64_t W = C.OutputBufferSize / 4;
    Words = Words < 0 ? W : std::min(Words, W);
  }
  return std::max<int64_t>(Words, 0);
}

int64_t analysis::staticElementCount(const PlanView &Plan, const Inst &I) {
  int64_t Count = 1;
  if (I.Code == Op::SubView) {
    if (I.Aux < 0 ||
        static_cast<size_t>(I.Aux) >= Plan.subViews().size())
      return -1;
    for (int64_t S : Plan.subViews()[I.Aux].StaticSizes)
      if (__builtin_mul_overflow(Count, S, &Count))
        return -1;
    return Count;
  }
  if (I.Code == Op::Alloc) {
    if (I.Aux < 0 || static_cast<size_t>(I.Aux) >= Plan.allocs().size())
      return -1;
    for (int64_t S : Plan.allocs()[I.Aux].Shape)
      if (__builtin_mul_overflow(Count, S, &Count))
        return -1;
    return Count;
  }
  return -1;
}
