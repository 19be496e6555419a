//===- tests/OpsWrapperTest.cpp - SPMD operator layer tests ---------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Tests the VInt/VFloat/VMask operator wrappers that kernels are written
// against, and the dynamic-operation counting that stands in for Intel Pin
// (Fig 7's dotted lines).
//
//===----------------------------------------------------------------------===//

#include "simd/Atomics.h"
#include "simd/Targets.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

using namespace egacs;
using namespace egacs::simd;

namespace {

using BK = ScalarBackend<8>;

std::vector<std::int32_t> lanes(VInt<BK> V) {
  std::vector<std::int32_t> Out(BK::Width);
  BK::store(Out.data(), V.V);
  return Out;
}

TEST(OpsWrappers, ArithmeticOperators) {
  VInt<BK> A = programIndex<BK>();
  VInt<BK> B = splat<BK>(3);
  EXPECT_EQ(lanes(A + B), (std::vector<std::int32_t>{3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(lanes(A - B),
            (std::vector<std::int32_t>{-3, -2, -1, 0, 1, 2, 3, 4}));
  EXPECT_EQ(lanes(A * B), (std::vector<std::int32_t>{0, 3, 6, 9, 12, 15, 18, 21}));
  EXPECT_EQ(lanes(A << 2), (std::vector<std::int32_t>{0, 4, 8, 12, 16, 20, 24, 28}));
  EXPECT_EQ(lanes((A << 2) >> 2), lanes(A));
  EXPECT_EQ(lanes(A & splat<BK>(1)),
            (std::vector<std::int32_t>{0, 1, 0, 1, 0, 1, 0, 1}));
  EXPECT_EQ(lanes(A | splat<BK>(8)),
            (std::vector<std::int32_t>{8, 9, 10, 11, 12, 13, 14, 15}));
  EXPECT_EQ(lanes(A ^ A), (std::vector<std::int32_t>(8, 0)));
}

TEST(OpsWrappers, ComparisonOperatorsYieldMasks) {
  VInt<BK> A = programIndex<BK>();
  VInt<BK> Four = splat<BK>(4);
  EXPECT_EQ(maskBits(A < Four), 0x0full);
  EXPECT_EQ(maskBits(A <= Four), 0x1full);
  EXPECT_EQ(maskBits(A > Four), 0xe0ull);
  EXPECT_EQ(maskBits(A >= Four), 0xf0ull);
  EXPECT_EQ(maskBits(A == Four), 0x10ull);
  EXPECT_EQ(maskBits(A != Four), 0xefull);
}

TEST(OpsWrappers, MaskAlgebraOperators) {
  VMask<BK> A = maskFromBits<BK>(0b11001010);
  VMask<BK> B = maskFromBits<BK>(0b10011001);
  EXPECT_EQ(maskBits(A & B), 0b10001000ull);
  EXPECT_EQ(maskBits(A | B), 0b11011011ull);
  EXPECT_EQ(maskBits(~A), 0b00110101ull);
  EXPECT_EQ(maskBits(andNot(A, B)), 0b01000010ull);
  EXPECT_EQ(popcount(A), 4);
  EXPECT_TRUE(any(A));
  EXPECT_FALSE(all(A));
  EXPECT_TRUE(all(maskAll<BK>()));
  EXPECT_FALSE(any(maskNone<BK>()));
}

TEST(OpsWrappers, SelectAndMinMax) {
  // GCC 12 with -O2+ and -mavx512f miscompiles fully-constant 8 x i32
  // value construction in this test (SLP-vectorized into a broadcast of
  // the first element; which expression gets hit is stack-layout
  // dependent). Two defenses: expected values live in static .rodata
  // arrays instead of brace-literal vectors, and the splat seeds are
  // volatile so the compare/select chain cannot be constant-folded.
  volatile std::int32_t FourV = 4, OneV = 1, ZeroV = 0;
  VInt<BK> A = programIndex<BK>();
  VInt<BK> B = splat<BK>(FourV);
  static const std::int32_t ExpMin[8] = {0, 1, 2, 3, 4, 4, 4, 4};
  static const std::int32_t ExpMax[8] = {4, 4, 4, 4, 4, 5, 6, 7};
  static const std::int32_t ExpSel[8] = {1, 1, 1, 1, 0, 0, 0, 0};
  EXPECT_EQ(lanes(vmin<BK>(A, B)),
            std::vector<std::int32_t>(ExpMin, ExpMin + 8));
  EXPECT_EQ(lanes(vmax<BK>(A, B)),
            std::vector<std::int32_t>(ExpMax, ExpMax + 8));
  EXPECT_EQ(lanes(select<BK>(A < B, splat<BK>(OneV), splat<BK>(ZeroV))),
            std::vector<std::int32_t>(ExpSel, ExpSel + 8));
}

TEST(OpsWrappers, VariableShift) {
  // 1 << lane-index builds the per-lane bit masks the bitmap frontier
  // uses; a count of 32+ saturates to zero (vpsllvd semantics).
  volatile std::int32_t OneV = 1, BigV = 33;
  VInt<BK> Bits = shlv<BK>(splat<BK>(OneV), programIndex<BK>());
  static const std::int32_t ExpBits[8] = {1, 2, 4, 8, 16, 32, 64, 128};
  EXPECT_EQ(lanes(Bits), std::vector<std::int32_t>(ExpBits, ExpBits + 8));
  EXPECT_EQ(lanes(shlv<BK>(programIndex<BK>(), splat<BK>(BigV))),
            std::vector<std::int32_t>(8, 0));
}

TEST(OpsWrappers, FloatOperators) {
  VFloat<BK> A = splatF<BK>(2.0f);
  VFloat<BK> B = toFloat<BK>(programIndex<BK>());
  float Out[8];
  BK::storeF(Out, (A * B + A).V);
  for (int I = 0; I < 8; ++I)
    EXPECT_FLOAT_EQ(Out[I], 2.0f * I + 2.0f);
  EXPECT_EQ(maskBits(B < splatF<BK>(3.5f)), 0x0full);
  EXPECT_EQ(maskBits(B > splatF<BK>(3.5f)), 0xf0ull);
  EXPECT_EQ(lanes(toInt<BK>(B)), lanes(programIndex<BK>()));
}

TEST(OpsWrappers, ReductionsRespectMasks) {
  VInt<BK> A = programIndex<BK>(); // 0..7, total 28
  EXPECT_EQ(reduceAdd<BK>(A, maskAll<BK>()), 28);
  EXPECT_EQ(reduceAdd<BK>(A, maskFromBits<BK>(0b10000001)), 7);
  EXPECT_EQ(reduceMin<BK>(A, maskFromBits<BK>(0b11110000), 999), 4);
  EXPECT_EQ(reduceMax<BK>(A, maskNone<BK>(), -1), -1);
}

//===----------------------------------------------------------------------===//
// Dynamic-operation counting (the Pin stand-in).
//===----------------------------------------------------------------------===//

TEST(OpCounting, CountsOnlyWhenEnabled) {
#ifndef EGACS_STATS
  GTEST_SKIP() << "stats compiled out";
#endif
  statsReset();
  setOpCounting(false);
  VInt<BK> A = programIndex<BK>();
  VInt<BK> B = A + A;
  (void)B;
  EXPECT_EQ(statGet(Stat::SpmdOps), 0u);

  setOpCounting(true);
  StatsSnapshot Before = StatsSnapshot::capture();
  VInt<BK> C = A + A;     // 1 op
  VInt<BK> D = C * A;     // 1 op
  VMask<BK> M = D > A;    // 1 op
  (void)M;
  StatsSnapshot Delta = StatsSnapshot::capture() - Before;
  setOpCounting(false);
  EXPECT_EQ(Delta.get(Stat::SpmdOps), 3u);
  statsReset();
}

TEST(OpCounting, GathersAndScattersCountedSeparately) {
#ifndef EGACS_STATS
  GTEST_SKIP() << "stats compiled out";
#endif
  statsReset();
  setOpCounting(true);
  std::vector<std::int32_t> Base(64, 1);
  VInt<BK> Idx = programIndex<BK>();
  StatsSnapshot Before = StatsSnapshot::capture();
  VInt<BK> V = gather<BK>(Base.data(), Idx, maskAll<BK>());
  scatter<BK>(Base.data(), Idx, V, maskAll<BK>());
  StatsSnapshot Delta = StatsSnapshot::capture() - Before;
  setOpCounting(false);
  EXPECT_EQ(Delta.get(Stat::GatherOps), 1u);
  EXPECT_EQ(Delta.get(Stat::ScatterOps), 1u);
  EXPECT_EQ(Delta.get(Stat::SpmdOps), 2u);
  statsReset();
}

//===----------------------------------------------------------------------===//
// Target registry.
//===----------------------------------------------------------------------===//

TEST(TargetRegistry, NamesAreUniqueAndStable) {
  std::set<std::string> Names;
  for (TargetKind Kind : AllTargets)
    EXPECT_TRUE(Names.insert(targetName(Kind)).second)
        << "duplicate target name " << targetName(Kind);
  EXPECT_STREQ(targetName(TargetKind::Avx512x16), "avx512skx-i32x16");
  EXPECT_STREQ(targetName(TargetKind::Scalar1), "scalar-i32x1");
}

TEST(TargetRegistry, ScalarTargetsAlwaysSupported) {
  EXPECT_TRUE(targetSupported(TargetKind::Scalar1));
  EXPECT_TRUE(targetSupported(TargetKind::Scalar16));
}

TEST(TargetRegistry, DispatchSelectsMatchingWidth) {
  auto WidthOf = [](TargetKind Kind) {
    return dispatchTarget(Kind, [&]<typename B>() { return B::Width; });
  };
  EXPECT_EQ(WidthOf(TargetKind::Scalar1), 1);
  EXPECT_EQ(WidthOf(TargetKind::Scalar8), 8);
#ifdef EGACS_HAVE_AVX2
  if (targetSupported(TargetKind::Avx2x16)) {
    EXPECT_EQ(WidthOf(TargetKind::Avx2x16), 16);
  }
#endif
#ifdef EGACS_HAVE_AVX512
  if (targetSupported(TargetKind::Avx512x8)) {
    EXPECT_EQ(WidthOf(TargetKind::Avx512x8), 8);
  }
#endif
}

} // namespace
