//===- CacheSim.h - Two-level set-associative cache simulator ---*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A functional two-level (L1D + shared L2) write-allocate LRU cache
/// simulator keyed on host virtual addresses. It produces the
/// `cache-references` and `cache-misses` counters the paper reports via
/// perf (Figs. 12 & 16): every L1 access is a cache reference; misses walk
/// into L2 and then DRAM, charging the cost-model penalties.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_SIM_CACHESIM_H
#define AXI4MLIR_SIM_CACHESIM_H

#include "sim/CostModel.h"

#include <cstdint>
#include <vector>

namespace axi4mlir {
namespace sim {

/// One set-associative level with LRU replacement.
class CacheLevel {
public:
  CacheLevel(int64_t SizeBytes, int64_t Associativity, int64_t LineBytes);

  /// Accesses the line containing \p Address. Returns true on hit; on miss
  /// the line is installed (write-allocate, no dirty modeling needed for
  /// counter reproduction).
  bool access(uint64_t Address);

  void reset();

private:
  int64_t LineBytes;
  uint64_t NumSets;
  int64_t Ways;
  /// Shift/mask fast paths when line size and set count are powers of two
  /// (the common configuration); -1 disables and falls back to division.
  /// Purely an implementation speedup — hit/miss behavior is unchanged.
  int LineShift = -1;
  int SetShift = -1;
  uint64_t SetMask = 0;
  /// Tags[set * Ways + way]; 0 = invalid. LRU order per set is maintained
  /// by keeping the most recently used tag first.
  std::vector<uint64_t> Tags;
};

/// The two-level hierarchy with reference/miss counters.
class CacheSim {
public:
  explicit CacheSim(const SoCParams &Params);

  /// Simulates a scalar access of \p Bytes at \p Address (straddling
  /// accesses touch each line once). Returns the miss-penalty cycles.
  uint64_t access(uint64_t Address, unsigned Bytes);

  /// Simulates a bulk access of \p Bytes starting at \p Address, touching
  /// each cache line exactly once — the behaviour of a vectorized memcpy
  /// (paper Sec. IV-B: "there will only be [a couple of] cache references
  /// to fetch the cache line"). Returns total miss-penalty cycles.
  uint64_t accessRange(uint64_t Address, uint64_t Bytes);

  void reset();

  uint64_t getReferences() const { return References; }
  uint64_t getL1Misses() const { return L1Misses; }
  uint64_t getL2Misses() const { return L2Misses; }

private:
  uint64_t accessLine(uint64_t LineAddress);

  SoCParams Params;
  CacheLevel L1;
  CacheLevel L2;
  int LineShift; ///< log2(CacheLineBytes), or -1 for the division path.
  uint64_t References = 0;
  uint64_t L1Misses = 0;
  uint64_t L2Misses = 0;
};

} // namespace sim
} // namespace axi4mlir

#endif // AXI4MLIR_SIM_CACHESIM_H
