//===- ExecPlan.cpp - Compiled host-code execution plans ------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "exec/ExecPlan.h"

#include "dialects/Arith.h"
#include "dialects/Linalg.h"
#include "dialects/MemRef.h"
#include "dialects/SCF.h"
#include "runtime/StridedCopy.h"
#include "transforms/Passes.h"

#include <map>
#include <ostream>
#include <sstream>

using namespace axi4mlir;
using namespace axi4mlir::exec;

//===----------------------------------------------------------------------===//
// Compilation
//===----------------------------------------------------------------------===//

namespace axi4mlir {
namespace exec {

/// Lowers operations into ExecPlan instructions, numbering SSA values into
/// dense slots as it goes.
struct ExecPlanBuilder {
  ExecPlan &Plan;
  std::map<detail::ValueImpl *, int32_t> Slots;
  std::string Error;

  explicit ExecPlanBuilder(ExecPlan &Plan) : Plan(Plan) {}

  int32_t slot(Value V) {
    auto Inserted =
        Slots.try_emplace(V.getImpl(), static_cast<int32_t>(Plan.NumSlots));
    if (Inserted.second)
      ++Plan.NumSlots;
    return Inserted.first->second;
  }

  LogicalResult fail(std::string Message) {
    if (Error.empty())
      Error = std::move(Message);
    return failure();
  }

  static bool isTerminator(const std::string &Name) {
    return Name == "func.return" || Name == "scf.yield" ||
           Name == "linalg.yield";
  }

  /// Compiles \p TheBlock's operations up to (excluding) the first
  /// terminator, which is reported through \p Terminator.
  LogicalResult compileBlock(Block &TheBlock, std::vector<ExecPlan::Inst> &Out,
                             Operation **Terminator) {
    *Terminator = nullptr;
    for (Operation *Op : TheBlock.getOperations()) {
      if (isTerminator(Op->getName())) {
        *Terminator = Op;
        return success();
      }
      if (failed(compileOp(Op, Out)))
        return failure();
    }
    return success();
  }

  LogicalResult compileOp(Operation *Op, std::vector<ExecPlan::Inst> &Out);
  LogicalResult compileGeneric(Operation *Op,
                               std::vector<ExecPlan::Inst> &Out);
  LogicalResult compileCall(Operation *Op, std::vector<ExecPlan::Inst> &Out);
};

} // namespace exec
} // namespace axi4mlir

LogicalResult ExecPlanBuilder::compileOp(Operation *Op,
                                         std::vector<ExecPlan::Inst> &Out) {
  using Inst = ExecPlan::Inst;
  using PlanOp = ExecPlan::Op;
  const std::string &Name = Op->getName();
  Inst I;

  //===--------------------------------------------------------------------===//
  // arith
  //===--------------------------------------------------------------------===//
  if (Name == "arith.constant") {
    Attribute ValueAttr = Op->getAttr("value");
    I.Dst = slot(Op->getResult(0));
    if (ValueAttr.getKind() == Attribute::Kind::Float) {
      I.Code = PlanOp::ConstFloat;
      I.FImm = ValueAttr.getFloatValue();
    } else {
      I.Code = PlanOp::ConstInt;
      I.Imm = ValueAttr.getIntValue();
    }
    Out.push_back(I);
    return success();
  }
  if (Name.rfind("arith.", 0) == 0 && Op->getNumOperands() == 2) {
    sim::BinKind Kind;
    if (!sim::arithBinKind(Name, Kind))
      return fail("unsupported arith op '" + Name + "'");
    I.Code = PlanOp::Binary;
    I.Sub = static_cast<uint8_t>(Kind);
    if (Op->getResult(0).getType().isFloat())
      I.Sub |= ExecPlan::BinFloatResult;
    I.A = slot(Op->getOperand(0));
    I.B = slot(Op->getOperand(1));
    I.Dst = slot(Op->getResult(0));
    Out.push_back(I);
    return success();
  }
  if (Name == "arith.index_cast") {
    I.Code = PlanOp::IndexCast;
    I.A = slot(Op->getOperand(0));
    I.Dst = slot(Op->getResult(0));
    Out.push_back(I);
    return success();
  }

  //===--------------------------------------------------------------------===//
  // scf.for: flattened to LoopBegin/LoopEnd over a contiguous body span.
  //===--------------------------------------------------------------------===//
  if (Name == scf::ForOp::OpName) {
    scf::ForOp For(Op);
    I.Code = PlanOp::LoopBegin;
    I.A = slot(For.getLowerBound());
    I.B = slot(For.getUpperBound());
    I.C = slot(For.getStep());
    I.Dst = slot(For.getInductionVar());
    size_t BeginPc = Out.size();
    Out.push_back(I);
    Operation *Terminator = nullptr;
    if (failed(compileBlock(*For.getBody(), Out, &Terminator)))
      return failure();
    Inst End;
    End.Code = PlanOp::LoopEnd;
    End.Dst = I.Dst;
    End.B = I.B;
    End.C = I.C;
    End.Aux = static_cast<int32_t>(BeginPc + 1);
    Out.push_back(End);
    Out[BeginPc].Aux = static_cast<int32_t>(Out.size());
    return success();
  }

  //===--------------------------------------------------------------------===//
  // memref
  //===--------------------------------------------------------------------===//
  if (Name == memref::AllocOp::OpName) {
    memref::AllocOp Alloc(Op);
    MemRefType Ty = Alloc.getType();
    ExecPlan::AllocPlan Info;
    Info.Shape = Ty.getShape();
    Info.Kind = Ty.getElementType().isFloat() ? sim::ElemKind::F32
                                              : sim::ElemKind::I32;
    I.Code = PlanOp::Alloc;
    I.Aux = static_cast<int32_t>(Plan.Allocs.size());
    I.Dst = slot(Op->getResult(0));
    Plan.Allocs.push_back(std::move(Info));
    Out.push_back(I);
    return success();
  }
  if (Name == memref::DeallocOp::OpName) {
    I.Code = PlanOp::Dealloc;
    Out.push_back(I);
    return success();
  }
  if (Name == memref::LoadOp::OpName || Name == memref::StoreOp::OpName) {
    bool IsLoad = Name == memref::LoadOp::OpName;
    I.Code = IsLoad ? PlanOp::Load : PlanOp::Store;
    unsigned FirstIndex = IsLoad ? 1 : 2;
    if (IsLoad) {
      I.A = slot(Op->getOperand(0));
      I.Dst = slot(Op->getResult(0));
    } else {
      I.A = slot(Op->getOperand(0)); // stored value
      I.B = slot(Op->getOperand(1)); // memref
    }
    I.Aux = static_cast<int32_t>(Plan.SlotPool.size());
    for (unsigned Idx = FirstIndex; Idx < Op->getNumOperands(); ++Idx)
      Plan.SlotPool.push_back(slot(Op->getOperand(Idx)));
    I.Sub = static_cast<uint8_t>(Op->getNumOperands() - FirstIndex);
    Out.push_back(I);
    return success();
  }
  if (Name == memref::CopyOp::OpName) {
    I.Code = PlanOp::Copy;
    I.A = slot(Op->getOperand(0));
    I.B = slot(Op->getOperand(1));
    Out.push_back(I);
    return success();
  }
  if (Name == memref::SubViewOp::OpName) {
    memref::SubViewOp SubView(Op);
    ExecPlan::SubViewPlan Info;
    Info.PoolOffset = static_cast<int32_t>(Plan.SlotPool.size());
    for (unsigned Idx = 1; Idx < Op->getNumOperands(); ++Idx)
      Plan.SlotPool.push_back(slot(Op->getOperand(Idx)));
    Info.NumOffsets = Op->getNumOperands() - 1;
    Info.StaticSizes = SubView.getStaticSizes();
    I.Code = PlanOp::SubView;
    I.A = slot(Op->getOperand(0));
    I.Aux = static_cast<int32_t>(Plan.SubViews.size());
    I.Dst = slot(Op->getResult(0));
    Plan.SubViews.push_back(std::move(Info));
    Out.push_back(I);
    return success();
  }

  //===--------------------------------------------------------------------===//
  // linalg / calls
  //===--------------------------------------------------------------------===//
  if (Name == linalg::GenericOp::OpName)
    return compileGeneric(Op, Out);
  if (Name == func::CallOp::OpName)
    return compileCall(Op, Out);

  return fail("interpreter: unsupported operation '" + Name + "'");
}

LogicalResult
ExecPlanBuilder::compileGeneric(Operation *Op,
                                std::vector<ExecPlan::Inst> &Out) {
  linalg::GenericOp Generic(Op);
  ExecPlan::GenericPlan G;
  G.Ranges = Generic.getStaticLoopRanges();
  if (G.Ranges.empty())
    return fail("linalg.generic with non-static loop ranges");
  if (G.Ranges.size() > runtime::detail::MaxCopyRank)
    return fail("linalg.generic loop nest deeper than the supported " +
                std::to_string(runtime::detail::MaxCopyRank) + " loops");
  G.NumInputs = Generic.getNumInputs();

  for (unsigned Idx = 0; Idx < Op->getNumOperands(); ++Idx) {
    ExecPlan::OperandPlan P;
    P.Slot = slot(Op->getOperand(Idx));
    AffineMap Map = Generic.getIndexingMap(Idx);
    P.Projected = Map.isProjectedPermutation();
    if (P.Projected) {
      for (unsigned R = 0; R < Map.getNumResults(); ++R)
        P.DimPos.push_back(Map.getResult(R).getPosition());
    } else {
      P.Exprs = Map.getResults();
    }
    G.Operands.push_back(std::move(P));
  }

  Block &Body = Generic.getBody();
  for (unsigned Idx = 0; Idx < Body.getNumArguments(); ++Idx)
    G.BodyArgSlots.push_back(slot(Body.getArgument(Idx)));

  Operation *Terminator = nullptr;
  if (failed(compileBlock(Body, G.Body, &Terminator)))
    return failure();
  if (Terminator && Terminator->getName() == linalg::YieldOp::OpName)
    for (unsigned O = 0; O < Terminator->getNumOperands(); ++O)
      G.YieldSlots.push_back(slot(Terminator->getOperand(O)));

  ExecPlan::Inst I;
  I.Code = ExecPlan::Op::Generic;
  I.Aux = static_cast<int32_t>(Plan.Generics.size());
  Plan.Generics.push_back(std::move(G));
  Out.push_back(I);
  return success();
}

LogicalResult ExecPlanBuilder::compileCall(Operation *Op,
                                           std::vector<ExecPlan::Inst> &Out) {
  using PlanOp = ExecPlan::Op;
  namespace rt = transforms::rtcall;
  const std::string Callee = func::CallOp(Op).getCallee();
  ExecPlan::Inst I;

  if (Callee == rt::DmaInit) {
    I.Code = PlanOp::CallDmaInit;
    I.Aux = static_cast<int32_t>(Plan.DmaConfigs.size());
    Plan.DmaConfigs.push_back(Op->getAttr("dma_config").getDmaConfigValue());
  } else if (Callee == rt::CopyToDma) {
    I.Code = PlanOp::CallCopyToDma;
    I.A = slot(Op->getOperand(0));
    I.B = slot(Op->getOperand(1));
    I.Dst = slot(Op->getResult(0));
  } else if (Callee == rt::CopyLiteralToDma || Callee == rt::CopyIndexToDma) {
    I.Code = PlanOp::CallCopyLiteralToDma;
    I.A = slot(Op->getOperand(0));
    I.B = slot(Op->getOperand(1));
    I.Dst = slot(Op->getResult(0));
  } else if (Callee == rt::StartSend) {
    I.Code = PlanOp::CallStartSend;
    I.A = slot(Op->getOperand(0));
    I.B = slot(Op->getOperand(1));
  } else if (Callee == rt::WaitSend) {
    I.Code = PlanOp::CallWaitSend;
  } else if (Callee == rt::StartRecv) {
    I.Code = PlanOp::CallStartRecv;
    I.A = slot(Op->getOperand(0));
    I.B = slot(Op->getOperand(1));
  } else if (Callee == rt::WaitRecv) {
    I.Code = PlanOp::CallWaitRecv;
  } else if (Callee == rt::CopyFromDma) {
    I.Code = PlanOp::CallCopyFromDma;
    I.A = slot(Op->getOperand(0));
    I.B = slot(Op->getOperand(1));
    I.Sub = Op->getAttr("accumulate").getIntValue() != 0 ? 1 : 0;
  } else {
    return fail("unknown runtime callee '" + Callee + "'");
  }
  Out.push_back(I);
  return success();
}

/// Peephole over the flat program: an axirt start_send immediately
/// followed by its wait_send (the only shape convert-accel-to-runtime
/// emits for the blocking driver) collapses into one fused instruction;
/// likewise for recv. Loop PC targets are remapped; a deleted wait is
/// never a jump target (it always sits right after its start, which a
/// LoopBegin/LoopEnd boundary would separate).
void ExecPlan::fuseTransferPairs(std::vector<ExecPlan::Inst> &Program) {
  std::vector<int32_t> NewIndex(Program.size() + 1, 0);
  std::vector<ExecPlan::Inst> Out;
  Out.reserve(Program.size());
  for (size_t Pc = 0; Pc < Program.size(); ++Pc) {
    NewIndex[Pc] = static_cast<int32_t>(Out.size());
    ExecPlan::Inst I = Program[Pc];
    bool FuseSend = I.Code == Op::CallStartSend &&
                    Pc + 1 < Program.size() &&
                    Program[Pc + 1].Code == Op::CallWaitSend;
    bool FuseRecv = I.Code == Op::CallStartRecv &&
                    Pc + 1 < Program.size() &&
                    Program[Pc + 1].Code == Op::CallWaitRecv;
    if (FuseSend || FuseRecv) {
      I.Code = FuseSend ? Op::CallSendFused : Op::CallRecvFused;
      Out.push_back(I);
      NewIndex[Pc + 1] = static_cast<int32_t>(Out.size());
      ++Pc; // the wait is absorbed
      continue;
    }
    Out.push_back(I);
  }
  NewIndex[Program.size()] = static_cast<int32_t>(Out.size());
  for (ExecPlan::Inst &I : Out)
    if (I.Code == Op::LoopBegin || I.Code == Op::LoopEnd)
      I.Aux = NewIndex[I.Aux];
  Program = std::move(Out);
}

std::unique_ptr<ExecPlan> ExecPlan::compile(func::FuncOp Func,
                                            std::string &Error) {
  std::unique_ptr<ExecPlan> Plan(new ExecPlan());
  ExecPlanBuilder Builder(*Plan);
  Plan->FuncName = Func.getFuncName();
  Block &Entry = Func.getBody();
  Plan->NumArgs = Entry.getNumArguments();
  // Arguments occupy the first slots in order.
  for (unsigned Idx = 0; Idx < Plan->NumArgs; ++Idx)
    Builder.slot(Entry.getArgument(Idx));
  Operation *Terminator = nullptr;
  if (failed(Builder.compileBlock(Entry, Plan->Program, &Terminator))) {
    Error = Builder.Error.empty() ? "plan compilation failure"
                                  : Builder.Error;
    return nullptr;
  }
  fuseTransferPairs(Plan->Program);
  return Plan;
}

//===----------------------------------------------------------------------===//
// Disassembly
//===----------------------------------------------------------------------===//

namespace {

void printIndexList(std::ostream &OS, const std::vector<int32_t> &Pool,
                    int32_t Offset, uint32_t Count) {
  OS << '[';
  for (uint32_t K = 0; K < Count; ++K) {
    if (K)
      OS << ", ";
    OS << '%' << Pool[static_cast<size_t>(Offset) + K];
  }
  OS << ']';
}

} // namespace

void ExecPlan::print(std::ostream &OS) const {
  OS << "plan @" << FuncName << " args=" << NumArgs << " slots=" << NumSlots
     << " insts=" << Program.size() << "\n";
  for (size_t Pc = 0; Pc < Program.size(); ++Pc) {
    const Inst &I = Program[Pc];
    OS << "  ";
    // Fixed-width PC keeps goldens aligned without depending on locale.
    if (Pc < 10)
      OS << ' ';
    if (Pc < 100)
      OS << ' ';
    OS << Pc << ": ";
    switch (I.Code) {
    case Op::ConstInt:
      OS << '%' << I.Dst << " = const.i " << I.Imm;
      break;
    case Op::ConstFloat: {
      std::ostringstream Tmp;
      Tmp << I.FImm;
      OS << '%' << I.Dst << " = const.f " << Tmp.str();
      break;
    }
    case Op::Binary:
      OS << '%' << I.Dst << " = "
         << sim::binKindName(static_cast<BinKind>(I.Sub & 0x7))
         << ((I.Sub & BinFloatResult) ? ".f %" : ".i %") << I.A << ", %"
         << I.B;
      break;
    case Op::IndexCast:
      OS << '%' << I.Dst << " = index_cast %" << I.A;
      break;
    case Op::LoopBegin:
      OS << "loop %" << I.Dst << " = [%" << I.A << ", %" << I.B << ") step %"
         << I.C << " -> @" << I.Aux;
      break;
    case Op::LoopEnd:
      OS << "end -> @" << I.Aux;
      break;
    case Op::Alloc: {
      const AllocPlan &Info = Allocs[I.Aux];
      OS << '%' << I.Dst << " = alloc ";
      for (int64_t Dim : Info.Shape)
        OS << Dim << 'x';
      OS << (Info.Kind == sim::ElemKind::F32 ? "f32" : "i32");
      break;
    }
    case Op::Dealloc:
      OS << "dealloc";
      break;
    case Op::Load:
      OS << '%' << I.Dst << " = load %" << I.A;
      printIndexList(OS, SlotPool, I.Aux, I.Sub);
      break;
    case Op::Store:
      OS << "store %" << I.A << " -> %" << I.B;
      printIndexList(OS, SlotPool, I.Aux, I.Sub);
      break;
    case Op::Copy:
      OS << "copy %" << I.A << " -> %" << I.B;
      break;
    case Op::SubView: {
      const SubViewPlan &Info = SubViews[I.Aux];
      OS << '%' << I.Dst << " = subview %" << I.A;
      printIndexList(OS, SlotPool, Info.PoolOffset, Info.NumOffsets);
      OS << " sizes=[";
      for (size_t K = 0; K < Info.StaticSizes.size(); ++K)
        OS << (K ? ", " : "") << Info.StaticSizes[K];
      OS << ']';
      break;
    }
    case Op::Generic: {
      const GenericPlan &G = Generics[I.Aux];
      OS << "generic ranges=[";
      for (size_t K = 0; K < G.Ranges.size(); ++K)
        OS << (K ? ", " : "") << G.Ranges[K];
      OS << "] operands=[";
      for (size_t K = 0; K < G.Operands.size(); ++K)
        OS << (K ? ", " : "") << '%' << G.Operands[K].Slot;
      OS << "] body=" << G.Body.size();
      break;
    }
    case Op::CallDmaInit:
      OS << "dma_init #" << I.Aux;
      break;
    case Op::CallCopyToDma:
      OS << '%' << I.Dst << " = copy_to_dma %" << I.A << " @ %" << I.B;
      break;
    case Op::CallCopyLiteralToDma:
      OS << '%' << I.Dst << " = copy_literal_to_dma %" << I.A << " @ %"
         << I.B;
      break;
    case Op::CallStartSend:
      OS << "start_send end=%" << I.A << " off=%" << I.B;
      break;
    case Op::CallWaitSend:
      OS << "wait_send";
      break;
    case Op::CallStartRecv:
      OS << "start_recv len=%" << I.A << " off=%" << I.B;
      break;
    case Op::CallWaitRecv:
      OS << "wait_recv";
      break;
    case Op::CallCopyFromDma:
      OS << "copy_from_dma %" << I.A << " @ %" << I.B
         << (I.Sub ? " accumulate" : "");
      break;
    case Op::CallSendFused:
      OS << "send end=%" << I.A << " off=%" << I.B;
      break;
    case Op::CallRecvFused:
      OS << "recv len=%" << I.A << " off=%" << I.B;
      break;
    }
    OS << "\n";
  }
}

std::string ExecPlan::printToString() const {
  std::ostringstream OS;
  print(OS);
  return OS.str();
}
