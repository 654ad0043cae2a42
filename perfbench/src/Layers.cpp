//===- Layers.cpp - Traced calls shared by the workloads ------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "ir/Verifier.h"

using namespace perfbench;
using namespace axi4mlir;

bool perfbench::lowerTraced(func::FuncOp Func,
                            const std::vector<parser::AcceleratorDesc> &Accels,
                            const transforms::LoweringOptions &Options,
                            Tracer *T,
                            std::vector<transforms::TilingPlan> &Plans,
                            std::string &Error) {
  transforms::PlanningOptions Planning;
  Planning.Mode = Options.Remainder;
  Planning.Params = Options.CostParams;
  auto verified = [&](LogicalResult Pass) {
    if (failed(Pass))
      return false;
    ScopedSpan S(T, "ir.verify");
    return succeeded(verify(Func.getOperation(), Error));
  };
  {
    ScopedSpan S(T, "transforms.convert_named_to_generic");
    if (!verified(transforms::convertNamedToGeneric(Func, Error)))
      return false;
  }
  {
    ScopedSpan S(T, "transforms.match_and_annotate");
    if (!verified(transforms::matchAndAnnotate(Func, Accels, Planning, Error,
                                               nullptr, &Plans)))
      return false;
  }
  {
    ScopedSpan S(T, "transforms.lower_to_accel");
    if (!verified(transforms::lowerToAccel(Func, Options, Error)))
      return false;
  }
  ScopedSpan S(T, "transforms.convert_accel_to_runtime");
  return verified(transforms::convertAccelToRuntime(Func, Error));
}
