//===- Layers.h - Traced calls shared by the workloads ----------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Trace.h"
#include "transforms/Passes.h"

#include <string>
#include <vector>

namespace perfbench {

/// The four lowering passes with IR verification after each, exactly as
/// transforms::buildPipeline + PassManager::run apply them, one span per
/// pass and per verification. Fills \p Plans like the pipeline's PlansOut.
bool lowerTraced(axi4mlir::func::FuncOp Func,
                 const std::vector<axi4mlir::parser::AcceleratorDesc> &Accels,
                 const axi4mlir::transforms::LoweringOptions &Options,
                 Tracer *T, std::vector<axi4mlir::transforms::TilingPlan> &Plans,
                 std::string &Error);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
