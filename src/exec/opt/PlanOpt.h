//===- PlanOpt.h - ExecPlan optimizer pass pipeline -------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pass pipeline over compiled ExecPlans, in the spirit of a JIT's IR
/// optimizer: many small semantics-preserving rewrites, each with an
/// explicit legality/counter contract that the differential equivalence
/// harness (tests/PlanEquivalenceFuzzTest.cpp) pins run by run.
///
/// Passes and their contracts (always: bit-identical output buffers):
///
///   * fold — constant stride/index folding through the pooled operand
///     lists: operand references to slots with a known constant value are
///     rewritten to the earliest dominating constant slot holding the same
///     value (plus copy-propagation through index_cast). Only *references*
///     change, never the executed instruction sequence, so every modeled
///     counter is bit-identical.
///   * dce — removes dead uncharged pure instructions (constants and
///     index_casts whose result is never read), constant zero-trip loops
///     (counter-identical: their bodies never executed), and dead staging
///     writes whose byte range is fully overwritten before any DMA send
///     can read it (charged: counters improve; Stats.RemovedChargedInsts
///     tells the harness which assertion applies).
///   * licm — hoists loop-invariant instructions in front of the loop:
///     constants/index_casts unconditionally (uncharged — counters stay
///     bit-identical), charged pure ops (arith, subview) and idempotent
///     constant-range staging writes only when the loop has a known
///     positive constant trip count and, for staging writes, the written
///     range is disjoint from every other staging write in the loop and
///     no overlapping send precedes the write in the body. Host counters
///     improve monotonically; DMA transfer count and bytes are identical.
///   * coalesce — flattens constant single-trip loops and merges adjacent
///     same-region sends into one larger burst by relocating the second
///     send's staging writes right behind the first send's range. The
///     merged burst streams the identical word sequence (the accelerator
///     FSMs are burst-boundary independent), so buffers and DmaBytesMoved
///     are identical while DmaTransfers and host dispatch shrink. Cache
///     counters may shift either way (staging lands at other region
///     addresses), so only the cache-free counters are contracted.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_EXEC_OPT_PLANOPT_H
#define AXI4MLIR_EXEC_OPT_PLANOPT_H

#include "support/LogicalResult.h"

#include <string>

namespace axi4mlir {
namespace exec {

class ExecPlan;

namespace opt {

/// Per-pass enable flags for the plan optimizer pipeline.
struct PlanOptOptions {
  bool Fold = false;
  bool Dce = false;
  bool Licm = false;
  bool Coalesce = false;

  /// Run the static verifier (src/analysis/PlanVerifier) over the plan
  /// after every pass that changed it; the first verification failure is
  /// recorded in PlanOptStats::VerifyError and stops the pipeline. This
  /// is a pure compile-time check (never charged per run); Debug builds
  /// default it on so every test exercises the verifier, Release builds
  /// leave it to explicit opt-in (the fuzzers and --verify-each).
#ifdef NDEBUG
  bool VerifyEach = false;
#else
  bool VerifyEach = true;
#endif

  static PlanOptOptions none() { return {}; }
  static PlanOptOptions all() {
    PlanOptOptions Options;
    Options.Fold = Options.Dce = Options.Licm = Options.Coalesce = true;
    return Options;
  }
  bool any() const { return Fold || Dce || Licm || Coalesce; }
};

/// Parses a `--plan-opt` specification: "none", "all", or a comma list of
/// pass names out of {fold, dce, licm, coalesce}. On failure \p Error
/// names the offending token.
LogicalResult parsePlanOptSpec(const std::string &Spec,
                               PlanOptOptions &Options, std::string &Error);

/// What the pipeline did — the equivalence harness uses these to decide
/// which counter contract applies to a given run.
struct PlanOptStats {
  /// fold: operand references rewritten to canonical constant slots.
  unsigned FoldedOperands = 0;
  /// dce: removed instructions that charge no perf events (counters stay
  /// bit-identical).
  unsigned RemovedUnchargedInsts = 0;
  /// dce: removed charged instructions (dead staging writes, zero-trip
  /// loop bookkeeping is uncharged and counted above). When nonzero the
  /// counters improve instead of matching bit-exactly.
  unsigned RemovedChargedInsts = 0;
  /// licm: hoisted uncharged instructions (constants/index_casts).
  unsigned HoistedUnchargedInsts = 0;
  /// licm: hoisted charged instructions (arith/subview/staging writes).
  unsigned HoistedChargedInsts = 0;
  /// coalesce: constant single-trip loops flattened away.
  unsigned FlattenedLoops = 0;
  /// coalesce: send pairs merged into one burst (each saves one DMA
  /// transfer).
  unsigned CoalescedSends = 0;

  /// With PlanOptOptions::VerifyEach: the first verifier diagnostic hit
  /// between passes (empty when every stage verified clean), and the pass
  /// that produced the offending plan.
  std::string VerifyError;
  std::string VerifyFailedPass;

  bool changedCounters() const {
    return RemovedChargedInsts || HoistedChargedInsts || FlattenedLoops ||
           CoalescedSends;
  }
  unsigned total() const {
    return FoldedOperands + RemovedUnchargedInsts + RemovedChargedInsts +
           HoistedUnchargedInsts + HoistedChargedInsts + FlattenedLoops +
           CoalescedSends;
  }
};

/// Runs the enabled passes over \p Plan in the canonical order
/// fold -> licm -> coalesce -> dce, repeating until a whole round changes
/// nothing (each pass is monotone, so this terminates). Returns aggregate
/// statistics.
PlanOptStats optimizePlan(ExecPlan &Plan, const PlanOptOptions &Options);

} // namespace opt
} // namespace exec
} // namespace axi4mlir

#endif // AXI4MLIR_EXEC_OPT_PLANOPT_H
