//===- Semantics.h - Numeric semantics shared by every engine ---*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of the numeric semantics that the tree walker, the
/// threaded plan engine and its micro-kernels, the plan analyses' constant
/// folder, the reference kernels and the accelerator datapaths all share:
///
///   * element word <-> value conversion (i32 and f32 stream words),
///   * the binary arith ops (BinKind) and the `arith.*` name -> op map,
///   * scf.for trip-count and induction-variable stepping.
///
/// Value model: integer and index values are carried as int64; f32
/// elements, and both operands inside binary arithmetic, as double. A
/// binary op computes in double; an integer result truncates toward zero
/// back to int64, and storing an integer keeps its low 32 bits.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_SIM_SEMANTICS_H
#define AXI4MLIR_SIM_SEMANTICS_H

#include <cstdint>
#include <limits>
#include <string>

namespace axi4mlir {
namespace sim {

/// Element interpretation of the 32-bit stream words.
enum class ElemKind { I32, F32 };

//===----------------------------------------------------------------------===//
// Element words
//===----------------------------------------------------------------------===//

/// Bit-level conversions between stream words and f32 values.
inline float wordToFloat(uint32_t Word) {
  float Result;
  __builtin_memcpy(&Result, &Word, sizeof(Result));
  return Result;
}
inline uint32_t floatToWord(float Value) {
  uint32_t Result;
  __builtin_memcpy(&Result, &Value, sizeof(Result));
  return Result;
}

/// i32 element word -> integer value (sign-extended).
inline int64_t wordToInt(uint32_t Word) { return static_cast<int32_t>(Word); }
/// Integer value -> i32 element word (its low 32 bits).
inline uint32_t intToWord(int64_t Value) {
  return static_cast<uint32_t>(static_cast<int32_t>(Value));
}
/// The integer result of double arithmetic (truncation toward zero).
inline int64_t toInt(double Value) { return static_cast<int64_t>(Value); }

/// Element word -> value, carried as double.
template <ElemKind Kind> inline double wordToValue(uint32_t Word) {
  if constexpr (Kind == ElemKind::F32)
    return static_cast<double>(wordToFloat(Word));
  else
    return static_cast<double>(wordToInt(Word));
}
inline double wordToValue(uint32_t Word, ElemKind Kind) {
  return Kind == ElemKind::F32 ? wordToValue<ElemKind::F32>(Word)
                               : wordToValue<ElemKind::I32>(Word);
}

/// Value carried as double -> element word.
template <ElemKind Kind> inline uint32_t valueToWord(double Value) {
  if constexpr (Kind == ElemKind::F32)
    return floatToWord(static_cast<float>(Value));
  else
    return intToWord(toInt(Value));
}
inline uint32_t valueToWord(double Value, ElemKind Kind) {
  return Kind == ElemKind::F32 ? valueToWord<ElemKind::F32>(Value)
                               : valueToWord<ElemKind::I32>(Value);
}

/// `Acc += Word` in element kind \p Kind (accumulating receives).
template <ElemKind Kind>
inline uint32_t accumulateWord(uint32_t Acc, uint32_t Word) {
  if constexpr (Kind == ElemKind::F32)
    return floatToWord(wordToFloat(Acc) + wordToFloat(Word));
  else
    return static_cast<uint32_t>(static_cast<int32_t>(Acc) +
                                 static_cast<int32_t>(Word));
}
inline uint32_t accumulateWord(uint32_t Acc, uint32_t Word, ElemKind Kind) {
  return Kind == ElemKind::F32 ? accumulateWord<ElemKind::F32>(Acc, Word)
                               : accumulateWord<ElemKind::I32>(Acc, Word);
}

//===----------------------------------------------------------------------===//
// Binary arith ops
//===----------------------------------------------------------------------===//

/// The binary ops the engines execute (the low three bits of a plan
/// Binary instruction's Sub field).
enum class BinKind : uint8_t { Add = 0, Mul, Sub, Div, Max };

/// Maps an `arith.*` op name to its BinKind; false for any other name.
inline bool arithBinKind(const std::string &Name, BinKind &Kind) {
  if (Name == "arith.addf" || Name == "arith.addi")
    Kind = BinKind::Add;
  else if (Name == "arith.mulf" || Name == "arith.muli")
    Kind = BinKind::Mul;
  else if (Name == "arith.subf" || Name == "arith.subi")
    Kind = BinKind::Sub;
  else if (Name == "arith.divf")
    Kind = BinKind::Div;
  else if (Name == "arith.maxf")
    Kind = BinKind::Max;
  else
    return false;
  return true;
}

/// Disassembly mnemonic ("bin?" for an out-of-range kind).
inline const char *binKindName(BinKind Kind) {
  switch (Kind) {
  case BinKind::Add:
    return "add";
  case BinKind::Mul:
    return "mul";
  case BinKind::Sub:
    return "sub";
  case BinKind::Div:
    return "div";
  case BinKind::Max:
    return "max";
  }
  return "bin?";
}

/// One binary op over operands carried as double (0 for an out-of-range
/// kind).
inline double applyBinary(BinKind Kind, double A, double B) {
  switch (Kind) {
  case BinKind::Add:
    return A + B;
  case BinKind::Mul:
    return A * B;
  case BinKind::Sub:
    return A - B;
  case BinKind::Div:
    return A / B;
  case BinKind::Max:
    return A > B ? A : B;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// scf.for
//===----------------------------------------------------------------------===//

/// Iterations of `for (Iv = Lb; Iv < Ub; Iv += Step)` with \p Step > 0,
/// computed without overflow (saturating at INT64_MAX).
inline int64_t tripCount(int64_t Lb, int64_t Ub, int64_t Step) {
  if (Lb >= Ub)
    return 0;
  uint64_t Span = static_cast<uint64_t>(Ub) - static_cast<uint64_t>(Lb);
  uint64_t Trips = (Span - 1) / static_cast<uint64_t>(Step) + 1;
  constexpr uint64_t Max = std::numeric_limits<int64_t>::max();
  return static_cast<int64_t>(Trips > Max ? Max : Trips);
}

/// Steps \p Iv to the next iteration; false (Iv unchanged) when the loop
/// exits, including when `Iv + Step` would pass INT64_MAX (and so, every
/// bound).
inline bool nextInductionVar(int64_t &Iv, int64_t Step, int64_t Ub) {
  int64_t Next = 0;
  if (__builtin_add_overflow(Iv, Step, &Next) || Next >= Ub)
    return false;
  Iv = Next;
  return true;
}

} // namespace sim
} // namespace axi4mlir

#endif // AXI4MLIR_SIM_SEMANTICS_H
