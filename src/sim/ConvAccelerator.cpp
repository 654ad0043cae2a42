//===- ConvAccelerator.cpp - Conv2D accelerator implementation ------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/ConvAccelerator.h"

#include <algorithm>
#include <cassert>

using namespace axi4mlir;
using namespace axi4mlir::sim;
using namespace axi4mlir::sim::opcodes;

ConvAccelerator::ConvAccelerator(ElemKind Kind, const SoCParams &Params,
                                 int64_t MaxWindowWords)
    : Kind(Kind), Params(Params), MaxWindowWords(MaxWindowWords) {
  reset();
}

void ConvAccelerator::reset() {
  AcceleratorModel::reset();
  InputChannels = 1;
  FilterSize = 1;
  Filter.clear();
  Window.clear();
  OutputAcc.clear();
  St = State::Idle;
  BurstFill = 0;
  BurstExpected = 0;
  WindowsComputed = 0;
}

void ConvAccelerator::consumeWord(uint32_t Word) {
  if (droppingInput(1))
    return;
  switch (St) {
  case State::Idle:
    if (opcodeFaultRefusal(Word))
      return;
    startOpcode(Word);
    return;
  case State::ReadFilterSize:
    FilterSize = static_cast<int32_t>(Word);
    if (FilterSize <= 0 || windowWords() > MaxWindowWords)
      signalError("conv2d: filter size exceeds accelerator window buffer");
    St = State::Idle;
    return;
  case State::ReadInputChannels:
    InputChannels = static_cast<int32_t>(Word);
    if (InputChannels <= 0 || windowWords() > MaxWindowWords)
      signalError("conv2d: iC exceeds accelerator window buffer");
    St = State::Idle;
    return;
  case State::ReadFilter:
  case State::ReadWindow: {
    uint32_t *Dst = St == State::ReadFilter ? Filter.data() : Window.data();
    Dst[BurstFill] = Word;
    if (++BurstFill == BurstExpected)
      finishBurst();
    return;
  }
  }
}

void ConvAccelerator::consumeBurst(const uint32_t *Words, size_t Count) {
  while (Count > 0) {
    if (droppingInput(Count))
      return; // drop the rest, like the word path
    if (St != State::ReadFilter && St != State::ReadWindow) {
      // Opcodes and single-word configuration states step the FSM.
      consumeWord(*Words++);
      --Count;
      continue;
    }
    // Filter/window data bursts stream straight into the buffer.
    size_t Take = std::min(Count, BurstExpected - BurstFill);
    uint32_t *Dst = St == State::ReadFilter ? Filter.data() : Window.data();
    std::memcpy(Dst + BurstFill, Words, Take * sizeof(uint32_t));
    Words += Take;
    Count -= Take;
    if ((BurstFill += Take) == BurstExpected)
      finishBurst();
  }
}

bool ConvAccelerator::isSupportedOpcode(uint32_t Opcode) {
  switch (Opcode) {
  case CONV_SET_FS:
  case CONV_SET_IC:
  case CONV_SF:
  case CONV_SICO:
  case CONV_RO:
    return true;
  default:
    return false;
  }
}

void ConvAccelerator::startOpcode(uint32_t Opcode) {
  BurstFill = 0;
  switch (Opcode) {
  case CONV_SET_FS:
    St = State::ReadFilterSize;
    return;
  case CONV_SET_IC:
    St = State::ReadInputChannels;
    return;
  case CONV_SF:
    St = State::ReadFilter;
    BurstExpected = static_cast<size_t>(windowWords());
    Filter.resize(BurstExpected);
    // Loading a new filter starts a new output slice.
    OutputAcc.clear();
    return;
  case CONV_SICO:
    St = State::ReadWindow;
    BurstExpected = static_cast<size_t>(windowWords());
    Window.resize(BurstExpected);
    return;
  case CONV_RO: {
    reserveOutput(OutputAcc.size());
    if (Kind == ElemKind::F32)
      for (double Value : OutputAcc)
        pushOutput(valueToWord<ElemKind::F32>(Value));
    else
      for (double Value : OutputAcc)
        pushOutput(valueToWord<ElemKind::I32>(Value));
    OutputAcc.clear();
    St = State::Idle;
    return;
  }
  default:
    signalError("conv2d: unsupported opcode " + formatOpcode(Opcode));
    return;
  }
}

template <ElemKind K> double ConvAccelerator::windowDot() const {
  // Inner product of the window against the filter -> one output value.
  // f32 adds products in stream order; i32 accumulates exactly in 64-bit
  // integers (SIMD-friendly; exact wherever the double-rounded reference
  // sum was representable).
  const uint32_t *W = Window.data();
  const uint32_t *F = Filter.data();
  size_t E = Window.size();
  if constexpr (K == ElemKind::F32) {
    double Sum = 0;
    for (size_t I = 0; I < E; ++I)
      Sum += wordToValue<K>(W[I]) * wordToValue<K>(F[I]);
    return Sum;
  } else {
    uint64_t Sum = 0;
    for (size_t I = 0; I < E; ++I)
      Sum += static_cast<uint64_t>(wordToInt(W[I]) * wordToInt(F[I]));
    return static_cast<double>(static_cast<int64_t>(Sum));
  }
}

void ConvAccelerator::finishBurst() {
  if (St == State::ReadFilter) {
    // The filter streamed straight into place; nothing to commit.
  } else if (St != State::ReadWindow) {
    // Out-of-protocol use; diagnosable in every build type.
    signalError("conv2d: finishBurst outside a data burst "
                "(protocol violation)");
  } else {
    if (Filter.size() != Window.size()) {
      signalError("conv2d: window size does not match loaded filter");
    } else {
      OutputAcc.push_back(Kind == ElemKind::F32 ? windowDot<ElemKind::F32>()
                                                : windowDot<ElemKind::I32>());
      chargeCompute(2.0 * static_cast<double>(windowWords()) /
                    convOpsPerCycle());
      ++WindowsComputed;
    }
  }
  BurstFill = 0;
  St = State::Idle;
}
