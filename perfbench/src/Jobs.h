//===- Jobs.h - Seeded job generators and the workload interface -*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything a workload feeds the program is generated here from the
/// workload seed, before timing starts; the program only ever receives
/// the generated job lists. The same seed yields an identical list (the
/// generator is a fixed SplitMix64 stream, not a standard-library
/// distribution, so lists also agree across toolchains).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_JOBS_H
#define PERFBENCH_JOBS_H

#include "Trace.h"
#include "exec/Pipeline.h"
#include "serve/Server.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: tiny, fast and fully specified.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform integer in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }
  template <typename T> void shuffle(std::vector<T> &Items) {
    for (size_t I = Items.size(); I > 1; --I)
      std::swap(Items[I - 1], Items[next() % I]);
  }

private:
  uint64_t State;
};

//===----------------------------------------------------------------------===//
// fig-sweep
//===----------------------------------------------------------------------===//

/// One paper design point: a Table I MatMul accelerator and flow at a
/// MatMul shape, or a ResNet-style convolution layer.
struct FigPoint {
  bool IsConv = false;
  axi4mlir::exec::MatMulRunConfig MatMul;
  axi4mlir::exec::ConvRunConfig Conv;
  /// The hand-written matmul driver needs tile-divisible dims.
  bool ManualSupported = false;
};

/// The list is FigRounds rounds of equal composition, one per size class
/// rotation, each with FigLargePerRound points of the large class and
/// FigConvPerRound conv layers (about one point in six).
constexpr size_t FigRounds = 3;
constexpr size_t FigLargePerRound = 2;
constexpr size_t FigConvPerRound = 7;

std::vector<FigPoint> makeFigSweep(uint64_t Seed);
std::string describe(const FigPoint &Point);

//===----------------------------------------------------------------------===//
// driver-gen
//===----------------------------------------------------------------------===//

/// A checked-in text file, read once before timing.
struct SourceText {
  std::string Name;
  std::string Text;
};

/// The checked-in configs/*.json and examples/*.mlir, in name order.
struct DriverGenSources {
  std::vector<SourceText> Configs;
  std::vector<SourceText> Examples;
};

/// Reads the checked-in sources below \p Root; throws std::runtime_error
/// when a directory is missing or empty.
DriverGenSources readDriverGenSources(const std::string &Root);

/// One compile-only job: a config and either a checked-in example or a
/// kernel built at a seeded shape.
struct DriverGenJob {
  size_t Config = 0;
  /// Index into DriverGenSources::Examples, or -1 for a built kernel.
  int Example = -1;
  bool IsConv = false;
  int64_t M = 0, N = 0, K = 0;
  int64_t InChannels = 0, InHW = 0, OutChannels = 0, FilterHW = 0,
          Stride = 1;
};

/// Draws jobs over every config/example pairing whose kernel the config
/// can lower. Which kernel each file holds is decided by the caller
/// (\p ConfigKernels / \p ExampleKernels hold "matmul", "conv" or "both").
std::vector<DriverGenJob>
makeDriverGen(uint64_t Seed, const std::vector<std::string> &ConfigKernels,
              const std::vector<std::string> &ExampleKernels);
std::string describe(const DriverGenJob &Job);

//===----------------------------------------------------------------------===//
// serve-mixed
//===----------------------------------------------------------------------===//

/// A matmul+conv job stream over a small shape set.
std::vector<axi4mlir::serve::JobRequest> makeServeStream(uint64_t Seed);
std::string describe(const axi4mlir::serve::JobRequest &Request);

//===----------------------------------------------------------------------===//
// Workload interface
//===----------------------------------------------------------------------===//

/// What one step of the closed loop did.
struct StepResult {
  unsigned Jobs = 0;
  unsigned Failed = 0;
  /// Host latency of each job in milliseconds.
  std::vector<double> LatencyMs;
  /// The step completed a block: a stretch of the list with the same mix
  /// of work as every other block (a fig-sweep round, a pass otherwise).
  bool EndsBlock = false;
  /// Which block of the list the step belongs to; blocks with the same
  /// number run the same jobs.
  unsigned Block = 0;
};

/// A per-layer value the workload derives from its own counters.
using LayerValues = std::map<std::string, double>;

class Workload {
public:
  virtual ~Workload() = default;

  /// The program's set-up for this workload (config parse, pool
  /// construction). Timed and repeated for `setup_s` in a forked child,
  /// each time after tearDown().
  virtual void setUp() = 0;

  /// Releases what setUp() built (untimed). The steps do not depend on
  /// set-up having run; serve-mixed builds a pool on demand.
  virtual void tearDown() = 0;

  /// Runs the next step of the seeded job list, cycling through it. With
  /// a tracer every call into a layer is wrapped in a span; without one
  /// the program's own public entry points are called.
  virtual StepResult step(Tracer *T) = 0;

  /// Rewinds to the start of the seeded list (and, for a server, ends the
  /// current pass), so each timed phase starts from the same job.
  virtual void restart() = 0;

  /// Called once timing is over: completes whatever the modeled figures
  /// need, untimed. Returns the jobs it ran and how many failed a check.
  virtual StepResult finish() { return {}; }

  /// Jobs in one pass of the seeded list.
  virtual size_t passLength() const = 0;

  /// Per-layer values derived from counters, given the traced run's self
  /// time per span name and the number of traced jobs.
  virtual LayerValues layerValues(const std::map<std::string, int64_t> &SelfNs,
                                  uint64_t TracedJobs) const = 0;

  /// Human-readable lines (modeled figures, fault-path counts).
  virtual void printReport() const {}
};

std::unique_ptr<Workload> makeFigSweepWorkload(uint64_t Seed);
std::unique_ptr<Workload> makeDriverGenWorkload(uint64_t Seed,
                                                const std::string &Root);
std::unique_ptr<Workload> makeServeMixedWorkload(uint64_t Seed,
                                                 const std::string &Root);

} // namespace perfbench

#endif // PERFBENCH_JOBS_H
