//===- ManualDriversTest.cpp - Hand-written baseline driver tests ---------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "exec/ManualDrivers.h"
#include "exec/Pipeline.h"
#include "exec/Reference.h"

#include <gtest/gtest.h>

using namespace axi4mlir;
using namespace axi4mlir::exec;
using runtime::MemRefDesc;
using V = sim::MatMulAccelerator::Version;

namespace {

struct Problem {
  MemRefDesc A, B, C, Expected;

  Problem(int64_t M, int64_t N, int64_t K, uint32_t Seed) {
    A = MemRefDesc::alloc({M, K});
    B = MemRefDesc::alloc({K, N});
    C = MemRefDesc::alloc({M, N});
    fillRandom(A, Seed);
    fillRandom(B, Seed + 1);
    fillRandom(C, Seed + 2);
    Expected = cloneMemRef(C);
    referenceMatMul(A, B, Expected);
  }
};

void expectManualMatches(V Version, int64_t Size, const std::string &Flow,
                         int64_t M, int64_t N, int64_t K) {
  Problem P(M, N, K, 17);
  auto Soc = sim::makeMatMulSoC(Version, Size);
  runtime::DmaRuntime Runtime(*Soc);
  ManualMatMulConfig Config;
  Config.Version = Version;
  Config.TileM = Config.TileN = Config.TileK = Size;
  Config.Flow = Flow;
  ASSERT_TRUE(runManualMatMul(Runtime, P.A, P.B, P.C, Config))
      << Runtime.errorMessage();
  EXPECT_TRUE(memrefEquals(P.Expected, P.C))
      << "v" << static_cast<int>(Version) << " " << Flow;
}

TEST(ManualMatMul, V1Ns) { expectManualMatches(V::V1, 4, "Ns", 16, 16, 16); }
TEST(ManualMatMul, V2Ns) { expectManualMatches(V::V2, 8, "Ns", 24, 16, 32); }
TEST(ManualMatMul, V2As) { expectManualMatches(V::V2, 8, "As", 24, 16, 32); }
TEST(ManualMatMul, V2Bs) { expectManualMatches(V::V2, 8, "Bs", 24, 16, 32); }
TEST(ManualMatMul, V3Ns) { expectManualMatches(V::V3, 8, "Ns", 16, 24, 32); }
TEST(ManualMatMul, V3As) { expectManualMatches(V::V3, 8, "As", 16, 24, 32); }
TEST(ManualMatMul, V3Bs) { expectManualMatches(V::V3, 8, "Bs", 16, 24, 32); }
TEST(ManualMatMul, V3Cs) { expectManualMatches(V::V3, 8, "Cs", 16, 24, 32); }

TEST(ManualMatMul, V4RectangularTiles) {
  Problem P(32, 16, 64, 23);
  auto Soc = sim::makeMatMulSoC(V::V4, 16);
  runtime::DmaRuntime Runtime(*Soc);
  ManualMatMulConfig Config;
  Config.Version = V::V4;
  Config.TileM = 16;
  Config.TileN = 8;
  Config.TileK = 32;
  Config.Flow = "Cs";
  ASSERT_TRUE(runManualMatMul(Runtime, P.A, P.B, P.C, Config))
      << Runtime.errorMessage();
  EXPECT_TRUE(memrefEquals(P.Expected, P.C));
}

TEST(ManualMatMul, StationaryFlowsMoveLessData) {
  auto run = [&](const std::string &Flow) {
    Problem P(32, 32, 32, 5);
    auto Soc = sim::makeMatMulSoC(V::V3, 8);
    runtime::DmaRuntime Runtime(*Soc);
    ManualMatMulConfig Config;
    Config.Version = V::V3;
    Config.TileM = Config.TileN = Config.TileK = 8;
    Config.Flow = Flow;
    EXPECT_TRUE(runManualMatMul(Runtime, P.A, P.B, P.C, Config));
    return Soc->report().DmaBytesMoved;
  };
  uint64_t Ns = run("Ns"), As = run("As"), Cs = run("Cs");
  EXPECT_LT(As, Ns);
  EXPECT_LT(Cs, Ns);
}

/// Preconditions are failures, not asserts: in a release build a violated
/// one used to stage tiles past the matrices' edges and report success.
RunResult runManualMatMulPoint(int64_t M, int64_t N, int64_t K, V Version,
                               const std::string &Flow) {
  MatMulRunConfig Config;
  Config.M = M;
  Config.N = N;
  Config.K = K;
  Config.Version = Version;
  Config.AccelSize = 8;
  Config.Flow = Flow;
  return runMatMulManual(Config);
}

TEST(ManualMatMul, RejectsNonDivisibleShape) {
  RunResult R = runManualMatMulPoint(60, 52, 72, V::V3, "As");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("M (60) is not a positive multiple of the tile (8)"),
            std::string::npos)
      << R.Error;
}

TEST(ManualMatMul, RejectsFlowTheVersionLacks) {
  RunResult R = runManualMatMulPoint(16, 16, 16, V::V1, "As");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("flow 'As' is not supported on v1"),
            std::string::npos)
      << R.Error;
}

TEST(ManualMatMul, RejectsTilesOverflowingTheDmaRegion) {
  // Two 256x256 operand tiles stage 131077 words per send; the manual
  // driver's input region holds 65536.
  MemRefDesc A = MemRefDesc::alloc({256, 256});
  MemRefDesc B = MemRefDesc::alloc({256, 256});
  MemRefDesc C = MemRefDesc::alloc({256, 256});
  auto Soc = sim::makeMatMulSoC(V::V4, 256);
  runtime::DmaRuntime Runtime(*Soc);
  ManualMatMulConfig Config;
  Config.Version = V::V4;
  Config.TileM = Config.TileN = Config.TileK = 256;
  std::string Error;
  EXPECT_FALSE(runManualMatMul(Runtime, A, B, C, Config, &Error));
  EXPECT_NE(Error.find("tiles 256x256x256 do not fit the DMA regions"),
            std::string::npos)
      << Error;
}

TEST(ManualConv, RejectsOutputShapeNotFollowingFromStride) {
  // 9x9 input, 3x3 filter, stride 2: the output is 4x4, not 3x3.
  MemRefDesc I = MemRefDesc::alloc({1, 3, 9, 9});
  MemRefDesc W = MemRefDesc::alloc({2, 3, 3, 3});
  MemRefDesc O = MemRefDesc::alloc({1, 2, 3, 3});
  auto Soc = sim::makeConvSoC();
  runtime::DmaRuntime Runtime(*Soc);
  std::string Error;
  EXPECT_FALSE(runManualConv2D(Runtime, I, W, O, 2, 2, &Error));
  EXPECT_NE(Error.find("output H (3) does not follow from the input, filter "
                       "and stride (expected 4)"),
            std::string::npos)
      << Error;
  EXPECT_EQ(Soc->report().DmaTransfers, 0u);
}

TEST(ManualConv, RejectsOutputSliceOverflowingTheDmaRegion) {
  // A 400x400 output slice is 160000 words; the output region holds
  // 131072.
  MemRefDesc I = MemRefDesc::alloc({1, 1, 400, 400});
  MemRefDesc W = MemRefDesc::alloc({1, 1, 1, 1});
  MemRefDesc O = MemRefDesc::alloc({1, 1, 400, 400});
  auto Soc = sim::makeConvSoC();
  runtime::DmaRuntime Runtime(*Soc);
  std::string Error;
  EXPECT_FALSE(runManualConv2D(Runtime, I, W, O, 1, 1, &Error));
  EXPECT_NE(Error.find("output slice does not fit the DMA regions"),
            std::string::npos)
      << Error;
}

TEST(ManualConv, MatchesReferenceStride1And2) {
  for (int64_t Stride : {1, 2}) {
    MemRefDesc I = MemRefDesc::alloc({1, 4, 11, 11});
    MemRefDesc W = MemRefDesc::alloc({3, 4, 3, 3});
    int64_t OutHW = (11 - 3) / Stride + 1;
    MemRefDesc O = MemRefDesc::alloc({1, 3, OutHW, OutHW});
    fillRandom(I, 31);
    fillRandom(W, 32);
    fillRandom(O, 33);
    MemRefDesc Expected = cloneMemRef(O);
    referenceConv2D(I, W, Expected, Stride, Stride);

    auto Soc = sim::makeConvSoC();
    runtime::DmaRuntime Runtime(*Soc);
    ASSERT_TRUE(runManualConv2D(Runtime, I, W, O, Stride, Stride))
        << Runtime.errorMessage();
    EXPECT_TRUE(memrefEquals(Expected, O)) << "stride " << Stride;
  }
}

TEST(ManualConv, UnitFilter) {
  // fHW == 1 (the pointwise layers of Fig. 16).
  MemRefDesc I = MemRefDesc::alloc({1, 6, 5, 5});
  MemRefDesc W = MemRefDesc::alloc({4, 6, 1, 1});
  MemRefDesc O = MemRefDesc::alloc({1, 4, 3, 3});
  fillRandom(I, 41);
  fillRandom(W, 42);
  MemRefDesc Expected = cloneMemRef(O);
  referenceConv2D(I, W, Expected, 2, 2);

  auto Soc = sim::makeConvSoC();
  runtime::DmaRuntime Runtime(*Soc);
  ASSERT_TRUE(runManualConv2D(Runtime, I, W, O, 2, 2))
      << Runtime.errorMessage();
  EXPECT_TRUE(memrefEquals(Expected, O));
}

} // namespace
