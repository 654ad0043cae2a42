//===- Interpreter.h - Host-code IR interpreter -----------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes lowered host code (scf/arith/memref + runtime calls) against
/// the simulated SoC, charging the cost model for every host action. It
/// stands in for running the cross-compiled binary on the PYNQ-Z2: the
/// perf counters it produces correspond to what the paper measures with
/// perf (Sec. IV).
///
/// Two abstraction levels are executable:
///   * linalg.generic directly (the mlir_CPU baseline),
///   * axirt.* runtime calls (batched transfers; the fully lowered driver
///     that codegen::emitC prints).
/// The accel dialect is an intermediate step of the lowering, not a
/// driver: an unlowered accel.* op fails with "unsupported operation".
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_EXEC_INTERPRETER_H
#define AXI4MLIR_EXEC_INTERPRETER_H

#include "dialects/Func.h"
#include "exec/ExecPlanRun.h"
#include "exec/opt/PlanOpt.h"
#include "runtime/DmaRuntime.h"
#include "support/LogicalResult.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace axi4mlir {
namespace exec {

/// Interprets one func.func against a simulated system. By default the
/// function is compiled into an ExecPlan, optimized, pre-decoded into
/// dispatch-ready form and executed through the threaded-dispatch engine;
/// the decoded program is memoized across run() calls on the same
/// function. ExecMode::Walker selects the tree walker instead: the
/// reference the equivalence tests hold the threaded engine to (identical
/// buffers and perf counters).
class Interpreter {
public:
  /// \p Runtime may be null for CPU-only functions (no axirt calls).
  Interpreter(sim::SoC &Soc, runtime::DmaRuntime *Runtime,
              ExecMode Mode = ExecMode::Threaded);
  ~Interpreter();

  /// Enables plan-optimizer passes (src/exec/opt) for subsequent runs.
  /// Off by default to preserve the bit-identical threaded-vs-walker
  /// counter guarantee. Clears the plan memo.
  void setPlanOptions(const opt::PlanOptOptions &Options);
  /// What the optimizer did to the memoized plan.
  const opt::PlanOptStats &planOptStats() const { return Memo.Stats; }

  /// Runs \p Func with memref arguments bound to \p Arguments. In
  /// threaded mode the decoded plan of the last function run is memoized,
  /// so running the same function again skips recompilation. Memo
  /// hits/misses/replacements are charged to the SoC's HostPerfModel
  /// PlanCacheHits/Misses/Evictions counters (counters only, no cycles).
  LogicalResult run(func::FuncOp Func,
                    const std::vector<runtime::MemRefDesc> &Arguments,
                    std::string &Error);

  /// The pre-decoded program of the memoized plan, or null until a
  /// threaded-mode run() has populated it. For introspection
  /// (disassembly goldens, kernel-specialization counts).
  const DecodedPlan *decodedPlan() const { return Memo.Decoded.get(); }

private:
  LogicalResult executeBlock(Block &TheBlock);
  LogicalResult executeOp(Operation *Op);
  LogicalResult executeLinalgGeneric(Operation *Op);
  LogicalResult executeRuntimeCall(Operation *Op);

  Cell &value(Value V) { return Env[V.getImpl()]; }
  int64_t intValue(Value V) { return value(V).I; }
  const runtime::MemRefDesc &memrefValue(Value V) { return value(V).M; }
  LogicalResult fail(const std::string &Message) {
    if (ErrorMessage.empty())
      ErrorMessage = Message;
    return failure();
  }

  sim::SoC &Soc;
  runtime::DmaRuntime *Runtime;
  ExecMode Mode;
  opt::PlanOptOptions PlanOptions;
  /// The decoded plan of the last function run. The fingerprint (op
  /// address, name, structural argument types, top-level op count)
  /// invalidates on the realistic staleness cases; callers mutating a
  /// function body in place without changing any of those must use a
  /// fresh Interpreter.
  struct PlanMemo {
    std::shared_ptr<const DecodedPlan> Decoded;
    Operation *For = nullptr;
    std::string FuncName;
    size_t TopLevelOps = 0;
    std::vector<Type> ArgTypes;
    opt::PlanOptStats Stats;
  };
  PlanMemo Memo;
  std::map<detail::ValueImpl *, Cell> Env;
  std::string ErrorMessage;
};

} // namespace exec
} // namespace axi4mlir

#endif // AXI4MLIR_EXEC_INTERPRETER_H
