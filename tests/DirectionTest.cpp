//===- tests/DirectionTest.cpp - Direction-optimizing traversal tests -----===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Covers the direction-optimizing traversal engine: the Direction knob and
// its parser, the word-packed SIMD BitmapFrontier (edge sizes, conversion
// determinism), the push op-count-neutrality guarantee (Direction::Push must
// leave the Fig 7 instruction counts byte-for-byte untouched), the v3 binary
// cache transpose trailer. Pull and hybrid runs of every direction-capable
// kernel x layout x sched x graph are certified by the DirectionParity suite
// of ConfigGridTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"
#include "graph/GraphView.h"
#include "graph/Loader.h"
#include "kernels/Kernels.h"
#include "simd/Backend.h"
#include "simd/Targets.h"
#include "support/Stats.h"
#include "worklist/BitmapFrontier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

using namespace egacs;
using namespace egacs::simd;

namespace {

//===----------------------------------------------------------------------===//
// Direction names and parsing.
//===----------------------------------------------------------------------===//

TEST(DirectionNames, RoundTripAndReject) {
  EXPECT_EQ(parseDirection("push"), Direction::Push);
  EXPECT_EQ(parseDirection("pull"), Direction::Pull);
  EXPECT_EQ(parseDirection("hybrid"), Direction::Hybrid);
  EXPECT_STREQ(directionName(Direction::Push), "push");
  EXPECT_STREQ(directionName(Direction::Pull), "pull");
  EXPECT_STREQ(directionName(Direction::Hybrid), "hybrid");
  EXPECT_EXIT(parseDirection("bogus"), ::testing::ExitedWithCode(2),
              "unknown direction");
  EXPECT_EXIT(parseDirection("both"), ::testing::ExitedWithCode(2),
              "push\\|pull\\|hybrid");
}

TEST(DirectionNames, KernelCapabilityList) {
  EXPECT_TRUE(kernelUsesDirection(KernelKind::BfsWl));
  EXPECT_TRUE(kernelUsesDirection(KernelKind::BfsHb));
  EXPECT_TRUE(kernelUsesDirection(KernelKind::Cc));
  EXPECT_TRUE(kernelUsesDirection(KernelKind::Pr));
  EXPECT_FALSE(kernelUsesDirection(KernelKind::Tri));
  EXPECT_FALSE(kernelUsesDirection(KernelKind::Mis));
  EXPECT_FALSE(kernelUsesDirection(KernelKind::SsspNf));
}

//===----------------------------------------------------------------------===//
// BitmapFrontier: scalar surface and edge sizes.
//===----------------------------------------------------------------------===//

using BK8 = ScalarBackend<8>;

TEST(BitmapFrontierTest, OddSizeSetTestAndTailBits) {
  // 71 is neither a multiple of the 32-bit word nor of any vector width.
  BitmapFrontier B(71);
  EXPECT_EQ(B.numWords(), 3);
  EXPECT_FALSE(B.test(0));
  EXPECT_TRUE(B.setSerial(70));
  EXPECT_FALSE(B.setSerial(70)) << "second set of one bit is not fresh";
  EXPECT_TRUE(B.test(70));
  EXPECT_FALSE(B.test(69));
  EXPECT_TRUE(B.setSerial(31));
  EXPECT_TRUE(B.setSerial(32));
  EXPECT_TRUE(B.test(31));
  EXPECT_TRUE(B.test(32));
  B.clearSerial();
  EXPECT_FALSE(B.test(70));
  EXPECT_EQ(B.totalCount(), 0);
}

TEST(BitmapFrontierTest, EmptyFrontierConvertsToEmptyQueue) {
  BitmapFrontier B(50, /*TaskCount=*/4);
  Worklist WL(64);
  B.toWorklist<BK8>(WL);
  EXPECT_EQ(WL.size(), 0);
  EXPECT_EQ(B.totalCount(), 0);
}

TEST(BitmapFrontierTest, ZeroNodeBitmapIsWellFormed) {
  BitmapFrontier B(0);
  EXPECT_EQ(B.numWords(), 0);
  B.setAllSerial();
  EXPECT_EQ(B.totalCount(), 0);
  Worklist WL(8);
  B.toWorklist<BK8>(WL);
  EXPECT_EQ(WL.size(), 0);
}

TEST(BitmapFrontierTest, SetAllRespectsTailPadding) {
  BitmapFrontier B(71);
  B.setAllSerial();
  EXPECT_EQ(B.totalCount(), 71);
  for (NodeId N = 0; N < 71; ++N)
    EXPECT_TRUE(B.test(N)) << N;
  // The conversion sees exactly the 71 real bits, none of the pad bits.
  Worklist WL(128);
  B.toWorklist<BK8>(WL);
  ASSERT_EQ(WL.size(), 71);
  for (std::int32_t I = 0; I < 71; ++I)
    EXPECT_EQ(WL[I], I);
}

TEST(BitmapFrontierTest, SetVectorCountsFreshBitsOnce) {
  BitmapFrontier B(40);
  // Duplicate lanes within one vector: the bit is counted fresh only once.
  std::int32_t Ids[8] = {3, 3, 17, 33, 33, 33, 5, 39};
  VInt<BK8> V = load<BK8>(Ids);
  EXPECT_EQ(B.setVector<BK8>(V, maskAll<BK8>()), 5);
  EXPECT_EQ(B.setVector<BK8>(V, maskAll<BK8>()), 0)
      << "re-setting present bits is never fresh";
  VMask<BK8> Hit = B.testVector<BK8>(V, maskAll<BK8>());
  EXPECT_EQ(maskBits(Hit), 0xffu);
  // Inactive lanes neither set nor test.
  BitmapFrontier C(40);
  EXPECT_EQ(C.setVector<BK8>(V, maskNone<BK8>()), 0);
  EXPECT_EQ(maskBits(C.testVector<BK8>(V, maskAll<BK8>())), 0u);
}

TEST(BitmapFrontierTest, ConversionIsSortedUniqueAndTaskCountInvariant) {
  const NodeId N = 1237; // prime: ragged word and slice boundaries
  // A scattered pattern with runs, singletons and both array ends.
  std::vector<NodeId> Expected;
  BitmapFrontier B(N, /*TaskCount=*/8);
  for (NodeId I = 0; I < N; ++I)
    if (I % 7 == 0 || I % 31 == 3 || I == N - 1) {
      B.setSerial(I);
      Expected.push_back(I);
    }
  ASSERT_TRUE(std::is_sorted(Expected.begin(), Expected.end()));

  for (int Tasks : {1, 3, 8}) {
    Worklist WL(static_cast<std::size_t>(N));
    // The two barrier-separated phases, executed serially per task slice.
    for (int T = 0; T < Tasks; ++T)
      B.countSlice(T, Tasks);
    for (int T = 0; T < Tasks; ++T)
      B.toWorklistSlice<BK8>(WL, T, Tasks);
    ASSERT_EQ(static_cast<std::size_t>(WL.size()), Expected.size())
        << Tasks << " tasks";
    for (std::int32_t I = 0; I < WL.size(); ++I)
      ASSERT_EQ(WL[I], Expected[static_cast<std::size_t>(I)])
          << "item " << I << " with " << Tasks << " tasks";
  }
}

TEST(BitmapFrontierTest, FromWorklistScattersAndCountsUniques) {
  BitmapFrontier B(100, /*TaskCount=*/4);
  Worklist WL(32);
  // Duplicates across the list must not inflate the tally.
  for (NodeId Id : {5, 99, 5, 42, 42, 0, 7, 99, 64})
    WL.pushSerial(Id);
  for (int T = 0; T < 4; ++T)
    B.fromWorklistSlice<BK8>(WL, T, 4);
  EXPECT_EQ(B.totalCount(), 6);
  for (NodeId Id : {0, 5, 7, 42, 64, 99})
    EXPECT_TRUE(B.test(Id)) << Id;
  EXPECT_FALSE(B.test(1));

  // Round trip back to a queue: sorted and duplicate-free.
  Worklist Out(128);
  B.toWorklist<BK8>(Out);
  ASSERT_EQ(Out.size(), 6);
  const NodeId Want[] = {0, 5, 7, 42, 64, 99};
  for (std::int32_t I = 0; I < 6; ++I)
    EXPECT_EQ(Out[I], Want[I]);
}

//===----------------------------------------------------------------------===//
// v3 binary cache: the transpose trailer.
//===----------------------------------------------------------------------===//

std::string dirTempPath(const char *Name) {
  return ::testing::TempDir() + "/" + Name;
}

TEST(DirectionLoader, BinaryV3RoundTripsTranspose) {
  Csr G = rmatGraph(8, 6, 21);
  Csr T = G.transpose();
  SellImage Img = buildSellImage(G, 8, 64);
  std::string Path = dirTempPath("graph_v3.egcs");
  ASSERT_TRUE(saveBinaryCsr(G, Path, &Img, &T));

  auto Loaded = loadBinaryGraph(Path);
  ASSERT_TRUE(Loaded.has_value());
  ASSERT_TRUE(Loaded->Sell.has_value());
  ASSERT_TRUE(Loaded->Transpose.has_value());
  const Csr &LT = *Loaded->Transpose;
  ASSERT_EQ(LT.numNodes(), T.numNodes());
  ASSERT_EQ(LT.numEdges(), T.numEdges());
  EXPECT_EQ(LT.hasWeights(), T.hasWeights());
  for (NodeId N = 0; N <= T.numNodes(); ++N)
    ASSERT_EQ(LT.rowStart()[N], T.rowStart()[N]);
  for (EdgeId E = 0; E < T.numEdges(); ++E) {
    ASSERT_EQ(LT.edgeDst()[E], T.edgeDst()[E]);
    if (T.hasWeights()) {
      ASSERT_EQ(LT.edgeWeight()[E], T.edgeWeight()[E]);
    }
  }

  // The adopted transpose drives a pull traversal to the push result.
  AnyLayout L = AnyLayout::build(LayoutKind::Csr, Loaded->G, {});
  L.adoptTranspose(std::make_shared<Csr>(std::move(*Loaded->Transpose)), {});
  ASSERT_TRUE(L.hasTranspose());
  ThreadPoolTaskSystem Pool(2);
  KernelConfig Cfg = KernelConfig::allOptimizations(Pool, 2);
  KernelOutput Push = runKernel(KernelKind::BfsHb, TargetKind::Scalar8, L,
                                Cfg, 0);
  Cfg.Dir = Direction::Pull;
  KernelOutput Pull = runKernel(KernelKind::BfsHb, TargetKind::Scalar8, L,
                                Cfg, 0);
  EXPECT_EQ(Pull.IntData, Push.IntData);
}

TEST(DirectionLoader, BinaryV3WithoutTransposeLoads) {
  Csr G = rmatGraph(7, 4, 3);
  std::string Path = dirTempPath("graph_v3_not.egcs");
  ASSERT_TRUE(saveBinaryCsr(G, Path)); // no SELL, no transpose
  auto Loaded = loadBinaryGraph(Path);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_FALSE(Loaded->Sell.has_value());
  EXPECT_FALSE(Loaded->Transpose.has_value());
  EXPECT_EQ(Loaded->G.numNodes(), G.numNodes());
}

TEST(DirectionLoader, BinaryStillReadsVersion2Files) {
  // A v2 file is a v3 file minus the trailing transpose section, with the
  // header version stamped 2: emulate one by patching a v3 save that
  // carries a SELL image but no transpose.
  Csr G = rmatGraph(7, 5, 11);
  SellImage Img = buildSellImage(G, 8, 64);
  std::string Path = dirTempPath("graph_v2.egcs");
  ASSERT_TRUE(saveBinaryCsr(G, Path, &Img));
  std::string Bytes;
  {
    std::ifstream In(Path, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(Bytes.size(), 8u + sizeof(std::uint32_t));
  std::uint32_t V2 = 2;
  std::memcpy(Bytes.data() + 4, &V2, sizeof(V2));
  {
    // Drop the 4-byte HasTranspose=0 trailer the v3 writer appended.
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(),
              static_cast<std::streamsize>(Bytes.size() - sizeof(V2)));
  }
  auto Loaded = loadBinaryGraph(Path);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_TRUE(Loaded->Sell.has_value());
  EXPECT_FALSE(Loaded->Transpose.has_value())
      << "v2 files carry no transpose";
  EXPECT_EQ(Loaded->G.numEdges(), G.numEdges());
}

//===----------------------------------------------------------------------===//
// Push op-count neutrality: with Direction::Push the legacy code paths run
// unchanged, so the Fig 7 dynamic operation counts must be bit-identical to
// a default-config run no matter what the direction knobs say and whether a
// transpose is present -- and no pull statistics may tick.
//===----------------------------------------------------------------------===//

#ifdef EGACS_STATS
TEST(DirectionOpCounts, PushLeavesFig7CountsUntouched) {
  Csr G = rmatGraph(/*Scale=*/9, /*EdgeFactor=*/6, /*Seed=*/9);
  ThreadPoolTaskSystem Pool(1); // single task: deterministic vector packing
  LayoutOptions Opts;
  Opts.SellChunk = 8;
  Opts.SellSigma = 128;
  AnyLayout Bare = AnyLayout::build(LayoutKind::Csr, G, Opts);
  AnyLayout WithT = AnyLayout::build(LayoutKind::Csr, G, Opts);
  WithT.buildTranspose(Opts);

  for (KernelKind Kind : {KernelKind::BfsWl, KernelKind::BfsHb,
                          KernelKind::Cc, KernelKind::Pr}) {
    KernelConfig Base = KernelConfig::allOptimizations(Pool, 1);
    statsReset();
    setOpCounting(true);
    StatsSnapshot S0 = StatsSnapshot::capture();
    runKernel(Kind, TargetKind::Scalar8, Bare, Base, 0);
    StatsSnapshot Ref = StatsSnapshot::capture() - S0;

    KernelConfig Cfg = KernelConfig::allOptimizations(Pool, 1);
    Cfg.Dir = Direction::Push; // explicit push + exotic thresholds
    Cfg.AlphaNum = 1;
    Cfg.BetaDenom = 1000;
    StatsSnapshot S1 = StatsSnapshot::capture();
    runKernel(Kind, TargetKind::Scalar8, WithT, Cfg, 0);
    StatsSnapshot Got = StatsSnapshot::capture() - S1;
    setOpCounting(false);

    EXPECT_EQ(Got.get(Stat::SpmdOps), Ref.get(Stat::SpmdOps))
        << kernelName(Kind);
    EXPECT_EQ(Got.get(Stat::GatherOps), Ref.get(Stat::GatherOps))
        << kernelName(Kind);
    EXPECT_EQ(Got.get(Stat::ScatterOps), Ref.get(Stat::ScatterOps))
        << kernelName(Kind);
    EXPECT_EQ(Got.get(Stat::DirectionSwitches), 0u) << kernelName(Kind);
    EXPECT_EQ(Got.get(Stat::PullEdgesScanned), 0u) << kernelName(Kind);
    EXPECT_EQ(Got.get(Stat::PullEarlyExits), 0u) << kernelName(Kind);
    EXPECT_EQ(Got.get(Stat::FrontierConversions), 0u) << kernelName(Kind);
  }
  statsReset();
}

TEST(DirectionOpCounts, PullRunsTickTheDirectionCounters) {
  Csr G = rmatGraph(/*Scale=*/9, /*EdgeFactor=*/6, /*Seed=*/9);
  ThreadPoolTaskSystem Pool(2);
  AnyLayout L = AnyLayout::build(LayoutKind::Csr, G, {});
  L.buildTranspose({});
  KernelConfig Cfg = KernelConfig::allOptimizations(Pool, 2);
  Cfg.Dir = Direction::Hybrid;
  statsReset();
  runKernel(KernelKind::BfsHb, TargetKind::Scalar8, L, Cfg, 0);
  EXPECT_GT(statGet(Stat::DirectionSwitches), 0u)
      << "rmat bfs must cross the alpha threshold";
  EXPECT_GT(statGet(Stat::PullEdgesScanned), 0u);
  EXPECT_GT(statGet(Stat::FrontierConversions), 0u);

  // Pull-mode pr: the accumulation round is atomic-free by construction.
  statsReset();
  Cfg.Dir = Direction::Pull;
  runKernel(KernelKind::Pr, TargetKind::Scalar8, L, Cfg, 0);
  EXPECT_EQ(statGet(Stat::CasAttempts), 0u)
      << "pull pr must not issue a single CAS";
  EXPECT_GT(statGet(Stat::PullEdgesScanned), 0u);
  statsReset();
}
#endif // EGACS_STATS

} // namespace
