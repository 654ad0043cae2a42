//===- SoC.h - Bundled system simulator -------------------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SoC bundles one host perf model, one accelerator model and one DMA
/// engine — the simulated equivalent of the paper's PYNQ-Z2 board. Factory
/// helpers build the Table I accelerator variants and the Conv2D engine.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_SIM_SOC_H
#define AXI4MLIR_SIM_SOC_H

#include "sim/ConvAccelerator.h"
#include "sim/DmaEngine.h"
#include "sim/MatMulAccelerator.h"

#include <memory>
#include <vector>

namespace axi4mlir {
namespace sim {

/// A complete simulated system: CPU cost model + accelerator + DMA.
class SoC {
public:
  SoC(std::unique_ptr<AcceleratorModel> TheAccel, const SoCParams &Params)
      : Params(Params), Perf(Params), Accel(std::move(TheAccel)),
        Dma(&Perf, Accel.get()) {}

  /// A CPU-only system (no accelerator); DMA unusable.
  explicit SoC(const SoCParams &Params)
      : Params(Params), Perf(Params), Accel(nullptr), Dma(&Perf, nullptr) {}

  const SoCParams &params() const { return Params; }
  HostPerfModel &perf() { return Perf; }
  AcceleratorModel *accelerator() { return Accel.get(); }
  DmaEngine &dma() { return Dma; }
  const DmaEngine &dma() const { return Dma; }

  PerfReport report() const { return Perf.report(); }
  void resetCounters() { Perf.reset(); }

  /// Binds \p Injector (caller-owned, may be nullptr to detach) to the DMA
  /// engine and the accelerator model, re-arming the recovery layer for a
  /// fresh run.
  void attachFaultInjector(FaultInjector *Injector) {
    Dma.attachFaultInjector(Injector);
    if (Accel)
      Accel->attachFaultInjector(Injector);
  }

  /// Takes ownership of a failover target. \p Score ranks it against other
  /// spares (lower is better — pass the TilingPlan modeled cost). The
  /// spare must be protocol-identical to the primary: the compiled
  /// driver's opcode stream is re-staged onto it verbatim after failover.
  void addSpareAccelerator(std::unique_ptr<AcceleratorModel> Spare,
                           double Score) {
    Dma.addSpare(Spare.get(), Score);
    SpareAccels.push_back(std::move(Spare));
  }

private:
  SoCParams Params;
  HostPerfModel Perf;
  std::unique_ptr<AcceleratorModel> Accel;
  std::vector<std::unique_ptr<AcceleratorModel>> SpareAccels;
  DmaEngine Dma;
};

/// Builds a simulated board hosting a MatMul accelerator of the given
/// Table I version/size.
inline std::unique_ptr<SoC>
makeMatMulSoC(MatMulAccelerator::Version Ver, int64_t Size,
              ElemKind Kind = ElemKind::I32, SoCParams Params = SoCParams()) {
  auto Accel = std::make_unique<MatMulAccelerator>(Ver, Size, Kind, Params);
  return std::make_unique<SoC>(std::move(Accel), Params);
}

/// Builds a simulated board hosting the Conv2D accelerator.
inline std::unique_ptr<SoC> makeConvSoC(ElemKind Kind = ElemKind::I32,
                                        SoCParams Params = SoCParams()) {
  auto Accel = std::make_unique<ConvAccelerator>(Kind, Params);
  return std::make_unique<SoC>(std::move(Accel), Params);
}

/// Builds a CPU-only system (for the mlir_CPU baselines).
inline std::unique_ptr<SoC> makeCpuOnlySoC(SoCParams Params = SoCParams()) {
  return std::make_unique<SoC>(Params);
}

} // namespace sim
} // namespace axi4mlir

#endif // AXI4MLIR_SIM_SOC_H
