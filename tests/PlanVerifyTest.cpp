//===- PlanVerifyTest.cpp - Static plan verifier mutation tests -----------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract that keeps the static verifier (src/analysis) honest:
/// every compiled plan in the repository verifies clean at every
/// optimizer stage, and a known-good plan corrupted along each mutation
/// class the verifier claims to catch — swapped jump targets, staging
/// copies escaping the DMA region, dropped transfer waits, protocol
/// (opcode-stream) violations, use-before-def, out-of-range slots,
/// non-positive loop steps — is rejected with an instruction-level
/// diagnostic. Mutations go through PlanView's explicit escape hatch;
/// nothing executes.
///
//===----------------------------------------------------------------------===//

#include "analysis/PlanVerifier.h"
#include "analysis/PlanView.h"
#include "analysis/ProtocolModel.h"
#include "dialects/InitAllDialects.h"
#include "exec/AccelConfigs.h"
#include "exec/ExecPlan.h"
#include "exec/Pipeline.h"
#include "exec/opt/PlanOpt.h"
#include "ir/Parser.h"
#include "transforms/Passes.h"

#include <gtest/gtest.h>

using namespace axi4mlir;
using namespace axi4mlir::exec;
using analysis::PlanView;
using V = sim::MatMulAccelerator::Version;
using POp = PlanView::Op;
using Inst = PlanView::Inst;

namespace {

/// Builds an 16x16x16 i32 matmul, lowers it to the axirt runtime-call
/// level against a v3 8-tile accelerator, and compiles the ExecPlan the
/// tests then corrupt. Returns nullptr (with ADD_FAILURE) on any error.
std::unique_ptr<ExecPlan> compilePlan(parser::AcceleratorDesc &AccelOut,
                                      const std::string &Flow = "Ns") {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      buildMatMulFunc(Builder, 16, 16, 16, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  AccelOut = parseSingleAccelerator(makeMatMulConfigJson(V::V3, 8, Flow));

  std::string Error;
  transforms::LoweringOptions Options;
  Options.EnableCpuTiling = false;
  if (failed(transforms::convertNamedToGeneric(Func, Error)) ||
      failed(transforms::matchAndAnnotate(Func, AccelOut, Error)) ||
      failed(transforms::lowerToAccel(Func, Options, Error)) ||
      failed(transforms::convertAccelToRuntime(Func, Error))) {
    ADD_FAILURE() << "lowering failed: " << Error;
    return nullptr;
  }
  auto Plan = ExecPlan::compile(Func, Error);
  if (!Plan)
    ADD_FAILURE() << "plan compilation failed: " << Error;
  return Plan;
}

/// Index of the first instruction matching \p Pred, or -1.
template <typename Pred> int64_t findInst(ExecPlan &Plan, Pred &&P) {
  std::vector<Inst> &Program = PlanView::mutableProgram(Plan);
  for (size_t I = 0; I < Program.size(); ++I)
    if (P(Program[I]))
      return static_cast<int64_t>(I);
  return -1;
}

/// True when some error diagnostic contains \p Needle; on failure prints
/// everything the verifier reported.
void expectError(const analysis::VerifyResult &Result,
                 const std::string &Needle) {
  for (const analysis::PlanDiag &D : Result.Errors) {
    if (D.Message.find(Needle) != std::string::npos) {
      // Instruction-level: the diagnostic names a pc (or is a whole-plan
      // end-state finding, which still carries the pc of the culprit).
      EXPECT_TRUE(D.Message.rfind("pc ", 0) == 0 || D.Pc < 0)
          << D.Message;
      return;
    }
  }
  ADD_FAILURE() << "no error diagnostic contains '" << Needle << "'; got:\n"
                << Result.toString();
}

//===----------------------------------------------------------------------===//
// Positive: everything in the repo verifies clean, at every stage
//===----------------------------------------------------------------------===//

TEST(PlanVerify, CleanPlanVerifiesAtEveryStage) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);

  std::string ModelError;
  auto Model = analysis::ProtocolModel::forAccelerator(Accel, ModelError);
  ASSERT_TRUE(succeeded(Model)) << ModelError;
  analysis::VerifyOptions Options;
  Options.Model = &*Model;

  analysis::VerifyResult Compiled = analysis::verifyPlan(*Plan, Options);
  EXPECT_TRUE(Compiled.Errors.empty()) << Compiled.toString();
  EXPECT_TRUE(Compiled.Warnings.empty()) << Compiled.toString();

  // Verify-each between fold -> licm -> coalesce -> dce must stay clean,
  // and the final optimized plan must re-verify including the protocol.
  opt::PlanOptOptions OptOptions = opt::PlanOptOptions::all();
  OptOptions.VerifyEach = true;
  opt::PlanOptStats Stats = opt::optimizePlan(*Plan, OptOptions);
  EXPECT_GT(Stats.total(), 0u);
  EXPECT_TRUE(Stats.VerifyError.empty())
      << "after " << Stats.VerifyFailedPass << ": " << Stats.VerifyError;
  analysis::VerifyResult Optimized = analysis::verifyPlan(*Plan, Options);
  EXPECT_TRUE(Optimized.Errors.empty()) << Optimized.toString();
}

//===----------------------------------------------------------------------===//
// Mutation classes (each must be rejected with a pc-level diagnostic)
//===----------------------------------------------------------------------===//

TEST(PlanVerify, SwappedJumpTargetRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  int64_t Loop =
      findInst(*Plan, [](const Inst &I) { return I.Code == POp::LoopBegin; });
  ASSERT_GE(Loop, 0) << "expected a loop in the lowered plan";
  // Retarget the zero-trip jump one instruction early: it no longer
  // points just past this loop's end.
  PlanView::mutableProgram(*Plan)[Loop].Aux -= 1;
  expectError(analysis::verifyPlan(*Plan), "jump target");
}

TEST(PlanVerify, StagingCopyOutsideDmaRegionRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  ASSERT_FALSE(PlanView::mutableDmaConfigs(*Plan).empty());
  // Shrink the DMA input window to two words: the 8x8 tile staging
  // copies now provably overflow the region.
  PlanView::mutableDmaConfigs(*Plan)[0].InputBufferSize = 8;
  expectError(analysis::verifyPlan(*Plan), "holds only");
}

TEST(PlanVerify, DroppedWaitRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  // Demote the first fused send (start+wait in one dispatch) to a bare
  // start: its completion is never awaited. Same fields, no pc shifts.
  int64_t Send = findInst(
      *Plan, [](const Inst &I) { return I.Code == POp::CallSendFused; });
  ASSERT_GE(Send, 0) << "expected a fused send in the lowered plan";
  PlanView::mutableProgram(*Plan)[Send].Code = POp::CallStartSend;
  analysis::VerifyResult Result = analysis::verifyPlan(*Plan);
  ASSERT_FALSE(Result.Errors.empty());
  bool Found = false;
  for (const analysis::PlanDiag &D : Result.Errors)
    Found = Found ||
            D.Message.find("still outstanding") != std::string::npos ||
            D.Message.find("never awaited") != std::string::npos;
  EXPECT_TRUE(Found) << Result.toString();
}

TEST(PlanVerify, CorruptedOpcodeStreamRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  std::string ModelError;
  auto Model = analysis::ProtocolModel::forAccelerator(Accel, ModelError);
  ASSERT_TRUE(succeeded(Model)) << ModelError;
  analysis::VerifyOptions Options;
  Options.Model = &*Model;

  // Rewrite the staged sA opcode literal (0x22) to a word the v3 FSM
  // does not accept: the modeled accelerator sees a bogus opcode.
  int64_t BadConst = findInst(*Plan, [](const Inst &I) {
    return I.Code == POp::ConstInt && I.Imm == 0x22;
  });
  ASSERT_GE(BadConst, 0) << "expected the sA opcode literal";
  PlanView::mutableProgram(*Plan)[BadConst].Imm = 0x77;
  expectError(analysis::verifyPlan(*Plan, Options), "not supported");
}

TEST(PlanVerify, UseBeforeDefRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  int64_t Copy = findInst(
      *Plan, [](const Inst &I) { return I.Code == POp::CallCopyToDma; });
  ASSERT_GE(Copy, 0) << "expected a staging copy in the lowered plan";
  // Slots are SSA: reading the instruction's own (not yet written)
  // end-offset result as the start offset is a definite use-before-def.
  Inst &I = PlanView::mutableProgram(*Plan)[Copy];
  I.B = I.Dst;
  expectError(analysis::verifyPlan(*Plan), "before any definition");
}

TEST(PlanVerify, SlotOutOfRangeRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  int64_t Const =
      findInst(*Plan, [](const Inst &I) { return I.Code == POp::ConstInt; });
  ASSERT_GE(Const, 0);
  PlanView::mutableProgram(*Plan)[Const].Dst =
      static_cast<int32_t>(analysis::PlanView(*Plan).numSlots()) + 7;
  expectError(analysis::verifyPlan(*Plan), "outside the plan's");
}

TEST(PlanVerify, NonPositiveLoopStepRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  std::vector<Inst> &Program = PlanView::mutableProgram(*Plan);
  int64_t Loop =
      findInst(*Plan, [](const Inst &I) { return I.Code == POp::LoopBegin; });
  ASSERT_GE(Loop, 0);
  int32_t StepSlot = Program[Loop].C;
  int64_t StepConst = findInst(*Plan, [&](const Inst &I) {
    return I.Code == POp::ConstInt && I.Dst == StepSlot;
  });
  ASSERT_GE(StepConst, 0) << "expected a constant loop step";
  Program[StepConst].Imm = 0;
  expectError(analysis::verifyPlan(*Plan), "not positive");
}

//===----------------------------------------------------------------------===//
// Verify-each wiring: the optimizer refuses to hand back a corrupt plan
//===----------------------------------------------------------------------===//

TEST(PlanVerify, VerifyEachReportsCorruptInput) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  PlanView::mutableDmaConfigs(*Plan)[0].InputBufferSize = 8;
  opt::PlanOptOptions Options = opt::PlanOptOptions::all();
  Options.VerifyEach = true;
  opt::PlanOptStats Stats = opt::optimizePlan(*Plan, Options);
  ASSERT_FALSE(Stats.VerifyError.empty());
  EXPECT_FALSE(Stats.VerifyFailedPass.empty());
  EXPECT_NE(Stats.VerifyError.find("holds only"), std::string::npos)
      << Stats.VerifyError;
}

//===----------------------------------------------------------------------===//
// Staged-region semantics: what the protocol model sees of the region
//===----------------------------------------------------------------------===//

/// Parses a runtime-level (axirt.*) function body with one memref<8xi32>
/// argument, compiles it and verifies it against a v3 matmul model with
/// 4x4 tiles (an sA opcode, 0x22, opens a 16-word data burst).
analysis::VerifyResult verifyRuntimeBody(const std::string &Body) {
  std::string Source =
      "func.func() ({\n"
      "^bb(%arg0: memref<8xi32>):\n"
      "  func.call() {callee = \"axirt.dma_init\", dma_config = "
      "dma_config<id = 0, in = 0x42/262144, out = 0x40042/262144>} : "
      "() -> ()\n" +
      Body +
      "  func.return() : () -> ()\n"
      "}) {function_type = (memref<8xi32>) -> (), sym_name = \"f\"} : "
      "() -> ()\n";
  MLIRContext Context;
  registerAllDialects(Context);
  std::string Error;
  auto Parsed = parseSourceString(Source, &Context, &Error);
  if (failed(Parsed)) {
    ADD_FAILURE() << Error;
    return {};
  }
  auto Plan = ExecPlan::compile(func::FuncOp(Parsed->get()), Error);
  if (!Plan) {
    ADD_FAILURE() << Error;
    return {};
  }
  analysis::ProtocolModel Model = analysis::ProtocolModel::matmul(V::V3, 4);
  analysis::VerifyOptions Options;
  Options.Model = &Model;
  return analysis::verifyPlan(*Plan, Options);
}

/// Diagnostics (errors, then warnings) containing \p Needle.
std::vector<std::string> findingsWith(const analysis::VerifyResult &R,
                                      const std::string &Needle) {
  std::vector<std::string> Out;
  for (const auto *List : {&R.Errors, &R.Warnings})
    for (const analysis::PlanDiag &D : *List)
      if (D.Message.find(Needle) != std::string::npos)
        Out.push_back(D.Message);
  return Out;
}

/// Stages an 8-word tile (%buf) at [0, 8); %end is its end offset.
const char *StageEightWords =
    "  %c0 = arith.constant() {value = 0 : index} : () -> (index)\n"
    "  %buf = memref.alloc() : () -> (memref<8xi32>)\n"
    "  %end = func.call(%buf, %c0) {callee = \"axirt.copy_to_dma\"} : "
    "(memref<8xi32>, index) -> (index)\n";
const char *SendFromZero =
    "  func.call(%end, %c0) {callee = \"axirt.start_send\"} : "
    "(index, index) -> ()\n"
    "  func.call() {callee = \"axirt.wait_send\"} : () -> ()\n";

TEST(PlanVerify, LiteralInsideDataRunSplitsIt) {
  // Data [0, 8), then the sA opcode over word 3: the FSM sees 3 data
  // words while idle, the opcode, then 4 of its 16 payload words.
  analysis::VerifyResult R = verifyRuntimeBody(
      std::string(StageEightWords) +
      "  %c3 = arith.constant() {value = 3 : index} : () -> (index)\n"
      "  %sa = arith.constant() {value = 34 : i32} : () -> (i32)\n"
      "  %e1 = func.call(%sa, %c3) {callee = "
      "\"axirt.copy_literal_to_dma\"} : (i32, index) -> (index)\n" +
      SendFromZero);
  EXPECT_EQ(findingsWith(R, "data burst of").size(), 1u) << R.toString();
  expectError(R, "data burst of 3 words streamed while the accelerator "
                 "expects an opcode");
  expectError(R, "program ends with the accelerator mid-burst (12 payload "
                 "words outstanding");
}

TEST(PlanVerify, AdjacentCopiesStreamAsOneDataBurst) {
  // Two copies staging [0, 8) and [8, 16) back to back form one run: a
  // single 16-word burst reaches the idle FSM, not two of 8.
  analysis::VerifyResult R = verifyRuntimeBody(
      std::string(StageEightWords) +
      "  %end2 = func.call(%buf, %end) {callee = "
      "\"axirt.copy_to_dma\"} : (memref<8xi32>, index) -> (index)\n"
      "  func.call(%end2, %c0) {callee = \"axirt.start_send\"} : "
      "(index, index) -> ()\n"
      "  func.call() {callee = \"axirt.wait_send\"} : () -> ()\n");
  EXPECT_EQ(findingsWith(R, "data burst of").size(), 1u) << R.toString();
  expectError(R, "data burst of 16 words streamed");
}

TEST(PlanVerify, UnstagedWordsWarnOnceWithFirstOffset) {
  // Only the sA opcode at 0 and data at [3, 5) are staged; the send
  // streams [0, 8), so words 1-2 and 5-7 were never staged.
  analysis::VerifyResult R = verifyRuntimeBody(
      "  %c0 = arith.constant() {value = 0 : index} : () -> (index)\n"
      "  %c3 = arith.constant() {value = 3 : index} : () -> (index)\n"
      "  %c8 = arith.constant() {value = 8 : index} : () -> (index)\n"
      "  %sa = arith.constant() {value = 34 : i32} : () -> (i32)\n"
      "  %e0 = func.call(%sa, %c0) {callee = "
      "\"axirt.copy_literal_to_dma\"} : (i32, index) -> (index)\n"
      "  %two = memref.alloc() : () -> (memref<2xi32>)\n"
      "  %e1 = func.call(%two, %c3) {callee = \"axirt.copy_to_dma\"} : "
      "(memref<2xi32>, index) -> (index)\n"
      "  func.call(%c8, %c0) {callee = \"axirt.start_send\"} : "
      "(index, index) -> ()\n"
      "  func.call() {callee = \"axirt.wait_send\"} : () -> ()\n");
  std::vector<std::string> Unstaged = findingsWith(R, "never staged");
  ASSERT_EQ(Unstaged.size(), 1u) << R.toString();
  EXPECT_NE(Unstaged[0].find("(first at offset 1)"), std::string::npos)
      << Unstaged[0];
  // Everything after the opcode went into its 16-word burst: 7 words.
  expectError(R, "mid-burst (9 payload words outstanding");
}

TEST(PlanVerify, UnknownTripLoopStagingTurnsWordsUnknown) {
  // Data staged only inside a loop whose trip count depends on an
  // argument: after the loop the words may be staged or not, so they
  // are unknown. The idle FSM stops tracking at the first one, instead
  // of reporting a data burst (staged on every path) or unstaged words.
  analysis::VerifyResult R = verifyRuntimeBody(
      "  %c0 = arith.constant() {value = 0 : index} : () -> (index)\n"
      "  %c1 = arith.constant() {value = 1 : index} : () -> (index)\n"
      "  %c8 = arith.constant() {value = 8 : index} : () -> (index)\n"
      "  %v = memref.load(%arg0, %c0) : (memref<8xi32>, index) -> (i32)\n"
      "  %n = arith.index_cast(%v) : (i32) -> (index)\n"
      "  %buf = memref.alloc() : () -> (memref<8xi32>)\n"
      "  scf.for(%c0, %n, %c1) ({\n"
      "  ^bb(%i: index):\n"
      "    %e = func.call(%buf, %c0) {callee = \"axirt.copy_to_dma\"} : "
      "(memref<8xi32>, index) -> (index)\n"
      "    scf.yield() : () -> ()\n"
      "  }) : (index, index, index) -> ()\n"
      "  func.call(%c8, %c0) {callee = \"axirt.start_send\"} : "
      "(index, index) -> ()\n"
      "  func.call() {callee = \"axirt.wait_send\"} : () -> ()\n");
  EXPECT_TRUE(R.Errors.empty()) << R.toString();
  EXPECT_TRUE(findingsWith(R, "never staged").empty()) << R.toString();
  EXPECT_EQ(findingsWith(R, "stopped statically tracking").size(), 1u)
      << R.toString();
}

} // namespace
