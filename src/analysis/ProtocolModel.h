//===- ProtocolModel.h - Abstract accelerator FSM models --------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Word-accurate abstract models of the simulated accelerator FSMs
/// (MatMul v1-v4, Conv2D), built on the static introspection hooks the
/// real engines expose (versionSupportsOpcode / burstWordsFor /
/// isSupportedOpcode). The protocol checker streams the words a plan or
/// a config flow would send — each word classified as a compile-time
/// constant, tile data, or unknown — and the model reports, statically,
/// the mistakes that today die mid-simulation: unsupported opcodes, data
/// streamed while the FSM expects an opcode (flow reordered after data),
/// bursts that overrun or underrun the tile dimensions, cfg tiles that
/// do not fit the internal buffers, and receives with no modeled output
/// pending.
///
/// The model is deliberately conservative: the moment a word it cannot
/// classify lands in a position that steers the FSM (an unknown opcode
/// word, an unknown burst length), it gives up rather than guess, and
/// the checker reports the spot only in strict mode.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_ANALYSIS_PROTOCOLMODEL_H
#define AXI4MLIR_ANALYSIS_PROTOCOLMODEL_H

#include "sim/ConvAccelerator.h"
#include "sim/MatMulAccelerator.h"
#include "support/LogicalResult.h"

#include <cstdint>
#include <string>

namespace axi4mlir {
namespace parser {
struct AcceleratorDesc;
} // namespace parser

namespace analysis {

/// One abstract 32-bit word streamed to the accelerator.
struct AbstractWord {
  enum class Kind : uint8_t {
    Const,  ///< compile-time constant (opcode literals, cfg payload)
    Data,   ///< tile payload word with unknown value
    Unknown ///< runtime-dependent word (loop index, dynamic dim)
  };
  Kind K = Kind::Unknown;
  int64_t Value = 0;

  static AbstractWord constant(int64_t V) {
    return {Kind::Const, V};
  }
  static AbstractWord data() { return {Kind::Data, 0}; }
  static AbstractWord unknown() { return {Kind::Unknown, 0}; }
};

/// Abstract FSM over the accelerator's input stream. Feed methods return
/// an error message ("" when the stream is still legal); once the model
/// gives up (`gaveUp()`), further feeds are accepted silently.
class ProtocolModel {
public:
  /// Builds the model of the engine every run path simulates for
  /// \p Accel: matmul version from the accelerator name's `_vN` token and
  /// size from exec::engineSizeOf, conv with the default window buffer.
  /// Fails (with \p Error) for unknown kernels or names.
  static FailureOr<ProtocolModel>
  forAccelerator(const parser::AcceleratorDesc &Accel, std::string &Error);

  static ProtocolModel matmul(sim::MatMulAccelerator::Version Ver,
                              int64_t Size);
  static ProtocolModel conv();

  /// Streams one word.
  std::string feedWord(const AbstractWord &W);
  /// Streams \p Count consecutive data words (< 0 = unknown count).
  std::string feedData(int64_t Count);
  /// Models a receive of \p Words output words (< 0 = unknown).
  std::string feedRecv(int64_t Words);

  /// True when the FSM sits in Idle with no partial burst: the protocol
  /// is at a clean boundary (loop bodies must return here to be safe to
  /// repeat).
  bool atOpcodeBoundary() const { return St == State::Idle; }
  /// Modeled output words awaiting a receive (-1 = unknown).
  int64_t pendingOutputWords() const { return PendingOut; }
  /// Payload words left in the current data burst (0 outside one). The
  /// FSM ignores their values, so words of any kind consume them exactly
  /// as `feedData` does.
  int64_t dataBurstWordsLeft() const {
    return St == State::Burst ? Remaining : 0;
  }
  bool gaveUp() const { return St == State::GaveUp; }
  /// Human-readable state for diagnostics.
  std::string stateDescription() const;

  /// State equality, used to prove loop bodies protocol-invariant.
  bool operator==(const ProtocolModel &O) const;
  bool operator!=(const ProtocolModel &O) const { return !(*this == O); }

  /// True when both models sit at the same FSM position with the same
  /// configuration. The output accumulators (pending words, accumulated
  /// conv values) are deliberately excluded: a loop body that emits
  /// without receiving is protocol-stable even though its accumulators
  /// grow each iteration.
  bool sameFsmPosition(const ProtocolModel &O) const;

  /// Folds the per-iteration accumulator delta into this state. \p
  /// AfterNext is the state one further iteration produced from *this*;
  /// \p TotalIters is the loop's trip count (< 0 = unknown).
  void extrapolateAccumulators(const ProtocolModel &AfterNext,
                               int64_t TotalIters);

  /// Stops tracking. The checker calls this at merge points it cannot
  /// reconcile (protocol-unstable loop bodies, untrackable regions).
  void invalidate() { giveUp(); }

private:
  enum class Engine : uint8_t { MatMul, Conv };
  enum class State : uint8_t { Idle, Burst, Cfg, GaveUp };

  std::string startMatMulOpcode(uint32_t Opcode);
  std::string startConvOpcode(uint32_t Opcode);
  std::string finishBurst();
  void giveUp() { St = State::GaveUp; }

  Engine Eng = Engine::MatMul;
  State St = State::Idle;
  uint32_t CurOpcode = 0;
  int64_t Remaining = 0; ///< payload words left in the current burst

  // MatMul configuration (tiles; -1 = unknown after an untracked cfg).
  sim::MatMulAccelerator::Version Ver = sim::MatMulAccelerator::Version::V1;
  int64_t Capacity = 0;
  int64_t TileM = 0, TileK = 0, TileN = 0;
  int64_t CfgWords[3] = {0, 0, 0};
  int64_t CfgFill = 0;

  // Conv configuration.
  int64_t MaxWindowWords = sim::ConvAccelerator::DefaultMaxWindowWords;
  int64_t ConvIC = 1, ConvFS = 1; ///< -1 = unknown
  int64_t ConvAccWords = 0;       ///< accumulated output values (-1 unknown)

  int64_t PendingOut = 0; ///< modeled output FIFO words (-1 unknown)
};

} // namespace analysis
} // namespace axi4mlir

#endif // AXI4MLIR_ANALYSIS_PROTOCOLMODEL_H
