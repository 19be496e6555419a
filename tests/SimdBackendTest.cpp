//===- tests/SimdBackendTest.cpp - Backend conformance tests --------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Every SIMD backend is property-tested against lane-wise scalar semantics:
// for random inputs and random masks, each operation must produce exactly
// what a per-lane loop produces. The scalar backend is additionally the
// semantics oracle for the SPMD wrapper layer.
//
//===----------------------------------------------------------------------===//

#include "AllBackends.h"
#include "simd/Ops.h"
#include "simd/Targets.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

using namespace egacs;
using namespace egacs::simd;

namespace {

template <typename BK> struct LaneData {
  static constexpr int W = BK::Width;
  std::int32_t A[64];
  std::int32_t B[64];
  bool M[64];

  void randomize(Xoshiro256 &Rng, std::int32_t Lo = -1000,
                 std::int32_t Hi = 1000) {
    for (int I = 0; I < W; ++I) {
      A[I] = Lo + static_cast<std::int32_t>(
                      Rng.nextBounded(static_cast<std::uint64_t>(Hi - Lo)));
      B[I] = Lo + static_cast<std::int32_t>(
                      Rng.nextBounded(static_cast<std::uint64_t>(Hi - Lo)));
      M[I] = Rng.nextBounded(2) != 0;
    }
  }

  typename BK::VInt vecA() const { return BK::load(A); }
  typename BK::VInt vecB() const { return BK::load(B); }
  typename BK::Mask mask() const {
    std::uint64_t Bits = 0;
    for (int I = 0; I < W; ++I)
      if (M[I])
        Bits |= std::uint64_t(1) << I;
    return BK::maskFromBits(Bits);
  }
};

template <typename BK>
std::vector<std::int32_t> toLanes(typename BK::VInt V) {
  std::vector<std::int32_t> Out(BK::Width);
  BK::store(Out.data(), V);
  return Out;
}

template <typename BK>
std::vector<bool> toLanesMask(typename BK::Mask M) {
  std::uint64_t Bits = BK::maskBits(M);
  std::vector<bool> Out(BK::Width);
  for (int I = 0; I < BK::Width; ++I)
    Out[I] = (Bits >> I) & 1;
  return Out;
}

template <typename BK> class SimdBackendTest : public ::testing::Test {};

TYPED_TEST_SUITE(SimdBackendTest, AllBackends);

TYPED_TEST(SimdBackendTest, SplatAndIota) {
  using BK = TypeParam;
  auto Lanes = toLanes<BK>(BK::splat(42));
  for (int I = 0; I < BK::Width; ++I)
    EXPECT_EQ(Lanes[I], 42);
  auto Iota = toLanes<BK>(BK::iota());
  for (int I = 0; I < BK::Width; ++I)
    EXPECT_EQ(Iota[I], I);
}

TYPED_TEST(SimdBackendTest, Arithmetic) {
  using BK = TypeParam;
  Xoshiro256 Rng(11);
  LaneData<BK> D;
  for (int Round = 0; Round < 50; ++Round) {
    D.randomize(Rng);
    auto Add = toLanes<BK>(BK::add(D.vecA(), D.vecB()));
    auto Sub = toLanes<BK>(BK::sub(D.vecA(), D.vecB()));
    auto Mul = toLanes<BK>(BK::mul(D.vecA(), D.vecB()));
    auto Min = toLanes<BK>(BK::min(D.vecA(), D.vecB()));
    auto Max = toLanes<BK>(BK::max(D.vecA(), D.vecB()));
    for (int I = 0; I < BK::Width; ++I) {
      EXPECT_EQ(Add[I], D.A[I] + D.B[I]);
      EXPECT_EQ(Sub[I], D.A[I] - D.B[I]);
      EXPECT_EQ(Mul[I], D.A[I] * D.B[I]);
      EXPECT_EQ(Min[I], std::min(D.A[I], D.B[I]));
      EXPECT_EQ(Max[I], std::max(D.A[I], D.B[I]));
    }
  }
}

TYPED_TEST(SimdBackendTest, Logic) {
  using BK = TypeParam;
  Xoshiro256 Rng(12);
  LaneData<BK> D;
  for (int Round = 0; Round < 50; ++Round) {
    D.randomize(Rng, 0, 1 << 20);
    auto And = toLanes<BK>(BK::and_(D.vecA(), D.vecB()));
    auto Or = toLanes<BK>(BK::or_(D.vecA(), D.vecB()));
    auto Xor = toLanes<BK>(BK::xor_(D.vecA(), D.vecB()));
    int Sh = static_cast<int>(Rng.nextBounded(31));
    auto Shl = toLanes<BK>(BK::shl(D.vecA(), Sh));
    auto Shr = toLanes<BK>(BK::shr(D.vecA(), Sh));
    for (int I = 0; I < BK::Width; ++I) {
      EXPECT_EQ(And[I], D.A[I] & D.B[I]);
      EXPECT_EQ(Or[I], D.A[I] | D.B[I]);
      EXPECT_EQ(Xor[I], D.A[I] ^ D.B[I]);
      EXPECT_EQ(Shl[I], D.A[I] << Sh);
      EXPECT_EQ(Shr[I], static_cast<std::int32_t>(
                            static_cast<std::uint32_t>(D.A[I]) >> Sh));
    }
  }
}

// Per-lane variable shift: vpsllvd semantics (counts unsigned, >= 32 gives
// zero). Counts are drawn past 32 on purpose to pin the saturation case.
TYPED_TEST(SimdBackendTest, VariableShift) {
  using BK = TypeParam;
  Xoshiro256 Rng(21);
  LaneData<BK> D, S;
  for (int Round = 0; Round < 50; ++Round) {
    D.randomize(Rng, 0, 1 << 20);
    S.randomize(Rng, 0, 40);
    auto Shl = toLanes<BK>(BK::shlv(D.vecA(), S.vecA()));
    for (int I = 0; I < BK::Width; ++I) {
      std::uint32_t C = static_cast<std::uint32_t>(S.A[I]);
      std::int32_t Want =
          C >= 32 ? 0
                  : static_cast<std::int32_t>(
                        static_cast<std::uint32_t>(D.A[I]) << C);
      EXPECT_EQ(Shl[I], Want);
    }
  }
}

TYPED_TEST(SimdBackendTest, Comparisons) {
  using BK = TypeParam;
  Xoshiro256 Rng(13);
  LaneData<BK> D;
  for (int Round = 0; Round < 50; ++Round) {
    D.randomize(Rng, -5, 5); // narrow range provokes equal lanes
    auto Eq = toLanesMask<BK>(BK::cmpEq(D.vecA(), D.vecB()));
    auto Ne = toLanesMask<BK>(BK::cmpNe(D.vecA(), D.vecB()));
    auto Lt = toLanesMask<BK>(BK::cmpLt(D.vecA(), D.vecB()));
    auto Le = toLanesMask<BK>(BK::cmpLe(D.vecA(), D.vecB()));
    auto Gt = toLanesMask<BK>(BK::cmpGt(D.vecA(), D.vecB()));
    for (int I = 0; I < BK::Width; ++I) {
      EXPECT_EQ(Eq[I], D.A[I] == D.B[I]);
      EXPECT_EQ(Ne[I], D.A[I] != D.B[I]);
      EXPECT_EQ(Lt[I], D.A[I] < D.B[I]);
      EXPECT_EQ(Le[I], D.A[I] <= D.B[I]);
      EXPECT_EQ(Gt[I], D.A[I] > D.B[I]);
    }
  }
}

TYPED_TEST(SimdBackendTest, SelectAndMaskAlgebra) {
  using BK = TypeParam;
  Xoshiro256 Rng(14);
  LaneData<BK> D, E;
  for (int Round = 0; Round < 50; ++Round) {
    D.randomize(Rng);
    E.randomize(Rng);
    auto Sel = toLanes<BK>(BK::select(D.mask(), D.vecA(), D.vecB()));
    for (int I = 0; I < BK::Width; ++I)
      EXPECT_EQ(Sel[I], D.M[I] ? D.A[I] : D.B[I]);

    auto MAnd = toLanesMask<BK>(BK::maskAnd(D.mask(), E.mask()));
    auto MOr = toLanesMask<BK>(BK::maskOr(D.mask(), E.mask()));
    auto MNot = toLanesMask<BK>(BK::maskNot(D.mask()));
    auto MAndNot = toLanesMask<BK>(BK::maskAndNot(D.mask(), E.mask()));
    int ExpectPop = 0;
    bool ExpectAny = false, ExpectAll = true;
    for (int I = 0; I < BK::Width; ++I) {
      EXPECT_EQ(MAnd[I], D.M[I] && E.M[I]);
      EXPECT_EQ(MOr[I], D.M[I] || E.M[I]);
      EXPECT_EQ(MNot[I], !D.M[I]);
      EXPECT_EQ(MAndNot[I], D.M[I] && !E.M[I]);
      ExpectPop += D.M[I];
      ExpectAny = ExpectAny || D.M[I];
      ExpectAll = ExpectAll && D.M[I];
    }
    EXPECT_EQ(BK::popcount(D.mask()), ExpectPop);
    EXPECT_EQ(BK::any(D.mask()), ExpectAny);
    EXPECT_EQ(BK::all(D.mask()), ExpectAll);
  }
}

TYPED_TEST(SimdBackendTest, MaskBitsRoundTrip) {
  using BK = TypeParam;
  Xoshiro256 Rng(15);
  for (int Round = 0; Round < 100; ++Round) {
    std::uint64_t Bits =
        Rng.next() & ((BK::Width == 64 ? ~0ull : (1ull << BK::Width) - 1));
    EXPECT_EQ(BK::maskBits(BK::maskFromBits(Bits)), Bits);
  }
  EXPECT_EQ(BK::maskBits(BK::maskAll()),
            BK::Width == 64 ? ~0ull : (1ull << BK::Width) - 1);
  EXPECT_EQ(BK::maskBits(BK::maskNone()), 0u);
  for (int N = 0; N <= BK::Width; ++N)
    EXPECT_EQ(BK::popcount(BK::maskFirstN(N)), N);
}

TYPED_TEST(SimdBackendTest, GatherScatter) {
  using BK = TypeParam;
  Xoshiro256 Rng(16);
  constexpr int TableSize = 997;
  std::vector<std::int32_t> Base(TableSize);
  for (int I = 0; I < TableSize; ++I)
    Base[I] = I * 3 + 1;

  LaneData<BK> D;
  for (int Round = 0; Round < 50; ++Round) {
    D.randomize(Rng, 0, TableSize);
    auto G = toLanes<BK>(BK::gather(Base.data(), D.vecA(), D.mask()));
    for (int I = 0; I < BK::Width; ++I)
      if (D.M[I])
        EXPECT_EQ(G[I], Base[static_cast<std::size_t>(D.A[I])]);

    std::vector<std::int32_t> Target(TableSize, -1);
    std::vector<std::int32_t> Expected(TableSize, -1);
    BK::scatter(Target.data(), D.vecA(), D.vecB(), D.mask());
    // Scalar model: later active lanes win on index collisions.
    for (int I = 0; I < BK::Width; ++I)
      if (D.M[I])
        Expected[static_cast<std::size_t>(D.A[I])] = D.B[I];
    // On collision the scatter order is lane order in all our backends.
    EXPECT_EQ(Target, Expected);
  }
}

TYPED_TEST(SimdBackendTest, MaskedLoadStore) {
  using BK = TypeParam;
  Xoshiro256 Rng(17);
  LaneData<BK> D;
  for (int Round = 0; Round < 20; ++Round) {
    D.randomize(Rng);
    auto Loaded = toLanes<BK>(BK::maskedLoad(D.A, D.mask()));
    for (int I = 0; I < BK::Width; ++I)
      if (D.M[I])
        EXPECT_EQ(Loaded[I], D.A[I]);

    std::int32_t Out[64];
    for (int I = 0; I < BK::Width; ++I)
      Out[I] = -7;
    BK::maskedStore(Out, D.vecB(), D.mask());
    for (int I = 0; I < BK::Width; ++I)
      EXPECT_EQ(Out[I], D.M[I] ? D.B[I] : -7);
  }
}

TYPED_TEST(SimdBackendTest, Reductions) {
  using BK = TypeParam;
  Xoshiro256 Rng(18);
  LaneData<BK> D;
  for (int Round = 0; Round < 50; ++Round) {
    D.randomize(Rng);
    std::int32_t ExpectSum = 0;
    std::int32_t ExpectMin = 1 << 30, ExpectMax = -(1 << 30);
    for (int I = 0; I < BK::Width; ++I) {
      if (!D.M[I])
        continue;
      ExpectSum += D.A[I];
      ExpectMin = std::min(ExpectMin, D.A[I]);
      ExpectMax = std::max(ExpectMax, D.A[I]);
    }
    EXPECT_EQ(BK::reduceAdd(D.vecA(), D.mask()), ExpectSum);
    EXPECT_EQ(BK::reduceMin(D.vecA(), D.mask(), 1 << 30), ExpectMin);
    EXPECT_EQ(BK::reduceMax(D.vecA(), D.mask(), -(1 << 30)), ExpectMax);
  }
}

TYPED_TEST(SimdBackendTest, PackedStoreActive) {
  using BK = TypeParam;
  Xoshiro256 Rng(19);
  LaneData<BK> D;
  for (int Round = 0; Round < 50; ++Round) {
    D.randomize(Rng);
    std::int32_t Out[64];
    for (int I = 0; I < 64; ++I)
      Out[I] = -1;
    int N = BK::packedStoreActive(Out, D.vecA(), D.mask());
    std::vector<std::int32_t> Expected;
    for (int I = 0; I < BK::Width; ++I)
      if (D.M[I])
        Expected.push_back(D.A[I]);
    ASSERT_EQ(N, static_cast<int>(Expected.size()));
    for (int I = 0; I < N; ++I)
      EXPECT_EQ(Out[I], Expected[static_cast<std::size_t>(I)]);
    // No write past the packed region.
    for (int I = N; I < 64; ++I)
      EXPECT_EQ(Out[I], -1);
  }
}

TYPED_TEST(SimdBackendTest, Compact) {
  using BK = TypeParam;
  Xoshiro256 Rng(20);
  LaneData<BK> D;
  for (int Round = 0; Round < 50; ++Round) {
    D.randomize(Rng);
    auto Lanes = toLanes<BK>(BK::compact(D.vecA(), D.mask()));
    std::vector<std::int32_t> Expected;
    for (int I = 0; I < BK::Width; ++I)
      if (D.M[I])
        Expected.push_back(D.A[I]);
    for (std::size_t I = 0; I < Expected.size(); ++I)
      EXPECT_EQ(Lanes[I], Expected[I]);
  }
}

TYPED_TEST(SimdBackendTest, ExtractInsert) {
  using BK = TypeParam;
  Xoshiro256 Rng(21);
  LaneData<BK> D;
  D.randomize(Rng);
  for (int I = 0; I < BK::Width; ++I)
    EXPECT_EQ(BK::extract(D.vecA(), I), D.A[I]);
  // Lanes are written through a spilled lane array and reloaded once (the
  // backends have no per-lane insert; see "Lane access" in simd/Ops.h).
  auto A = spill(VInt<BK>(D.vecA()));
  for (int I = 0; I < BK::Width; ++I)
    EXPECT_EQ(A[I], D.A[I]);
  for (int I = 0; I < BK::Width; ++I)
    A[I] = I * 10;
  auto V = reload(A).V;
  for (int I = 0; I < BK::Width; ++I)
    EXPECT_EQ(BK::extract(V, I), I * 10);
}

TYPED_TEST(SimdBackendTest, FloatOps) {
  using BK = TypeParam;
  Xoshiro256 Rng(22);
  float A[64], B[64];
  for (int Round = 0; Round < 20; ++Round) {
    for (int I = 0; I < BK::Width; ++I) {
      A[I] = Rng.nextFloat() * 100.0f + 0.5f;
      B[I] = Rng.nextFloat() * 100.0f + 0.5f;
    }
    auto Va = BK::loadF(A);
    auto Vb = BK::loadF(B);
    float Add[64], Mul[64], Div[64];
    BK::storeF(Add, BK::addF(Va, Vb));
    BK::storeF(Mul, BK::mulF(Va, Vb));
    BK::storeF(Div, BK::divF(Va, Vb));
    for (int I = 0; I < BK::Width; ++I) {
      EXPECT_FLOAT_EQ(Add[I], A[I] + B[I]);
      EXPECT_FLOAT_EQ(Mul[I], A[I] * B[I]);
      EXPECT_FLOAT_EQ(Div[I], A[I] / B[I]);
    }
    auto LtMask = toLanesMask<BK>(BK::cmpLtF(Va, Vb));
    for (int I = 0; I < BK::Width; ++I)
      EXPECT_EQ(LtMask[I], A[I] < B[I]);

    float SumAll = 0.0f;
    for (int I = 0; I < BK::Width; ++I)
      SumAll += A[I];
    EXPECT_NEAR(BK::reduceAddF(Va, BK::maskAll()), SumAll,
                1e-3f * BK::Width);
  }
}

TYPED_TEST(SimdBackendTest, FloatGatherScatter) {
  using BK = TypeParam;
  Xoshiro256 Rng(23);
  constexpr int TableSize = 499;
  std::vector<float> Base(TableSize);
  for (int I = 0; I < TableSize; ++I)
    Base[I] = static_cast<float>(I) * 0.25f;

  LaneData<BK> D;
  for (int Round = 0; Round < 20; ++Round) {
    D.randomize(Rng, 0, TableSize);
    float Out[64];
    BK::storeF(Out, BK::gatherF(Base.data(), D.vecA(), D.mask()));
    for (int I = 0; I < BK::Width; ++I)
      if (D.M[I])
        EXPECT_FLOAT_EQ(Out[I], Base[static_cast<std::size_t>(D.A[I])]);

    std::vector<float> Target(TableSize, -1.0f);
    std::vector<float> Expected(TableSize, -1.0f);
    BK::scatterF(Target.data(), D.vecA(), BK::toFloat(D.vecB()), D.mask());
    // On index collisions the later active lane wins (lane order), matching
    // every backend's scatter lowering.
    for (int I = 0; I < BK::Width; ++I)
      if (D.M[I])
        Expected[static_cast<std::size_t>(D.A[I])] =
            static_cast<float>(D.B[I]);
    EXPECT_EQ(Target, Expected);
  }
}

TYPED_TEST(SimdBackendTest, IntFloatConversion) {
  using BK = TypeParam;
  Xoshiro256 Rng(24);
  LaneData<BK> D;
  D.randomize(Rng, -100, 100);
  float AsF[64];
  BK::storeF(AsF, BK::toFloat(D.vecA()));
  for (int I = 0; I < BK::Width; ++I)
    EXPECT_FLOAT_EQ(AsF[I], static_cast<float>(D.A[I]));
  auto RoundTrip = toLanes<BK>(BK::toInt(BK::toFloat(D.vecA())));
  for (int I = 0; I < BK::Width; ++I)
    EXPECT_EQ(RoundTrip[I], D.A[I]);
}

} // namespace
