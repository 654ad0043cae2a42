//===- PassManager.cpp - Pass pipeline driver -----------------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "transforms/Passes.h"

#include "ir/Verifier.h"

using namespace axi4mlir;
using namespace axi4mlir::transforms;

LogicalResult PassManager::run(func::FuncOp Func, std::string &Error) {
  for (auto &[Name, Fn] : Passes) {
    if (failed(Fn(Func, Error))) {
      Error = "pass '" + Name + "' failed: " + Error;
      return failure();
    }
    if (failed(verify(Func.getOperation(), Error))) {
      Error = "IR verification failed after pass '" + Name + "': " + Error;
      return failure();
    }
  }
  return success();
}

PassManager transforms::buildPipeline(
    std::vector<parser::AcceleratorDesc> Accels,
    const LoweringOptions &Options,
    std::shared_ptr<std::vector<TilingPlan>> PlansOut) {
  PlanningOptions Planning;
  Planning.Mode = Options.Remainder;
  Planning.Params = Options.CostParams;

  PassManager PM;
  PM.addPass("convert-named-to-generic",
             [](func::FuncOp Func, std::string &Error) {
               return convertNamedToGeneric(Func, Error);
             });
  PM.addPass("match-and-annotate",
             [Accels = std::move(Accels), Planning,
              PlansOut](func::FuncOp Func, std::string &Error) {
               return matchAndAnnotate(Func, Accels, Planning, Error,
                                       /*NumAnnotated=*/nullptr,
                                       PlansOut.get());
             });
  PM.addPass("lower-to-accel",
             [Options](func::FuncOp Func, std::string &Error) {
               return lowerToAccel(Func, Options, Error);
             });
  PM.addPass("convert-accel-to-runtime",
             [](func::FuncOp Func, std::string &Error) {
               return convertAccelToRuntime(Func, Error);
             });
  return PM;
}

PassManager transforms::buildPipeline(const parser::AcceleratorDesc &Accel,
                                      const LoweringOptions &Options) {
  return buildPipeline(std::vector<parser::AcceleratorDesc>{Accel}, Options);
}
