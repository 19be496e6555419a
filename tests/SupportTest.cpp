//===- tests/SupportTest.cpp - Support library unit tests -----------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "runtime/TaskSystem.h"
#include "support/AlignedBuffer.h"
#include "support/Options.h"
#include "support/PrefixSum.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <thread>

using namespace egacs;

namespace {

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(Rng, DeterministicFromSeed) {
  Xoshiro256 A(42), B(42), C(43);
  bool Diverged = false;
  for (int I = 0; I < 100; ++I) {
    std::uint64_t X = A.next();
    EXPECT_EQ(X, B.next());
    Diverged |= X != C.next();
  }
  EXPECT_TRUE(Diverged) << "different seeds must give different streams";
}

TEST(Rng, BoundedStaysInBounds) {
  Xoshiro256 Rng(7);
  for (std::uint64_t Bound : {1ull, 2ull, 10ull, 1000ull, 1ull << 40}) {
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(Rng.nextBounded(Bound), Bound);
  }
}

TEST(Rng, BoundedCoversRange) {
  Xoshiro256 Rng(8);
  std::set<std::uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(Rng.nextBounded(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(Rng, DoubleAndFloatInUnitInterval) {
  Xoshiro256 Rng(9);
  for (int I = 0; I < 1000; ++I) {
    double D = Rng.nextDouble();
    float F = Rng.nextFloat();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
    EXPECT_GE(F, 0.0f);
    EXPECT_LT(F, 1.0f);
  }
}

TEST(Rng, HashMixIsStateless) {
  EXPECT_EQ(hashMix64(12345), hashMix64(12345));
  EXPECT_NE(hashMix64(12345), hashMix64(12346));
}

//===----------------------------------------------------------------------===//
// PrefixSum
//===----------------------------------------------------------------------===//

TEST(PrefixSum, ExclusiveBasics) {
  std::vector<int> V{3, 1, 4, 1, 5};
  EXPECT_EQ(exclusivePrefixSum(V), 14);
  EXPECT_EQ(V, (std::vector<int>{0, 3, 4, 8, 9}));
}

TEST(PrefixSum, InclusiveBasics) {
  std::vector<int> V{3, 1, 4, 1, 5};
  EXPECT_EQ(inclusivePrefixSum(V.data(), V.size()), 14);
  EXPECT_EQ(V, (std::vector<int>{3, 4, 8, 9, 14}));
}

TEST(PrefixSum, EmptyAndSingleton) {
  std::vector<int> Empty;
  EXPECT_EQ(exclusivePrefixSum(Empty), 0);
  std::vector<int> One{7};
  EXPECT_EQ(exclusivePrefixSum(One), 7);
  EXPECT_EQ(One[0], 0);
}

//===----------------------------------------------------------------------===//
// AlignedBuffer
//===----------------------------------------------------------------------===//

TEST(AlignedBuffer, AlignmentAndSize) {
  AlignedBuffer<std::int32_t> B(100);
  EXPECT_EQ(B.size(), 100u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(B.data()) % 64, 0u);
}

TEST(AlignedBuffer, FillZeroAndIndex) {
  AlignedBuffer<std::int32_t> B(10);
  B.fill(5);
  for (std::int32_t X : B)
    EXPECT_EQ(X, 5);
  B.zero();
  for (std::int32_t X : B)
    EXPECT_EQ(X, 0);
  B[3] = 9;
  EXPECT_EQ(B[3], 9);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<std::int32_t> A(8);
  A.fill(1);
  std::int32_t *Ptr = A.data();
  AlignedBuffer<std::int32_t> B = std::move(A);
  EXPECT_EQ(B.data(), Ptr);
  EXPECT_TRUE(A.empty());
  AlignedBuffer<std::int32_t> C;
  C = std::move(B);
  EXPECT_EQ(C.data(), Ptr);
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

TEST(Stats, AddGetResetAndSnapshots) {
  statsReset();
  statAdd(Stat::AtomicPushes, 5);
  EXPECT_EQ(statGet(Stat::AtomicPushes), 5u);
  StatsSnapshot Before = StatsSnapshot::capture();
  statAdd(Stat::AtomicPushes, 7);
  statAdd(Stat::GatherOps, 2);
  StatsSnapshot Delta = StatsSnapshot::capture() - Before;
  EXPECT_EQ(Delta.get(Stat::AtomicPushes), 7u);
  EXPECT_EQ(Delta.get(Stat::GatherOps), 2u);
  statsReset();
  EXPECT_EQ(statGet(Stat::AtomicPushes), 0u);
}

TEST(Stats, EveryCounterHasAName) {
  for (unsigned I = 0; I < static_cast<unsigned>(Stat::NumStats); ++I)
    EXPECT_STRNE(statName(static_cast<Stat>(I)), "");
}

TEST(Stats, CounterNamesAreDistinctAndWellFormed) {
  // The exporters key per-round stat maps by statName, so names must be
  // unique, non-placeholder, and in the harness's kebab-case alphabet.
  std::set<std::string> Seen;
  for (unsigned I = 0; I < static_cast<unsigned>(Stat::NumStats); ++I) {
    std::string Name = statName(static_cast<Stat>(I));
    EXPECT_TRUE(Seen.insert(Name).second) << "duplicate name: " << Name;
    EXPECT_EQ(Name.find('<'), std::string::npos) << Name;
    for (char C : Name)
      EXPECT_TRUE((C >= 'a' && C <= 'z') || (C >= '0' && C <= '9') ||
                  C == '-' || C == '+')
          << "unexpected character in stat name: " << Name;
  }
  EXPECT_EQ(Seen.size(), static_cast<std::size_t>(Stat::NumStats));
}

TEST(Stats, SnapshotCoversEveryCounter) {
  statsReset();
  for (unsigned I = 0; I < static_cast<unsigned>(Stat::NumStats); ++I)
    statAdd(static_cast<Stat>(I), I + 1);
  StatsSnapshot Snap = StatsSnapshot::capture();
  for (unsigned I = 0; I < static_cast<unsigned>(Stat::NumStats); ++I)
    EXPECT_EQ(Snap.get(static_cast<Stat>(I)), I + 1)
        << statName(static_cast<Stat>(I));
  statsReset();
}

TEST(Stats, ConcurrentAddsDoNotLose) {
  statsReset();
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([] {
      for (int I = 0; I < 10000; ++I)
        statAdd(Stat::ItemsPushed, 1);
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(statGet(Stat::ItemsPushed), 40000u);
  statsReset();
}

TEST(StatShards, LiveWorkersCountsVisibleWithoutJoin) {
  // Pool workers park between launches and never exit during the test, so
  // their counts must be read from their live shards.
  for (TaskSystemKind Kind : {TaskSystemKind::Pool, TaskSystemKind::SpinPool}) {
    std::unique_ptr<TaskSystem> Ts = makeTaskSystem(Kind, 4);
    StatsSnapshot Before = StatsSnapshot::capture();
    Ts->launch(8, [](int, int) { statAdd(Stat::ItemsPushed, 3); });
    StatsSnapshot Delta = StatsSnapshot::capture() - Before;
    EXPECT_EQ(Delta.get(Stat::ItemsPushed), 24u) << Ts->name();
  }
}

TEST(StatShards, SpawnedThreadsLoseNoCountsAndRecycleShards) {
  SpawnTaskSystem Ts(4);
  StatsSnapshot Before = StatsSnapshot::capture();
  std::size_t ShardsBefore = statsdetail::statShardCount();
  for (int Launch = 0; Launch < 1000; ++Launch)
    Ts.launch(4, [](int, int) { statAdd(Stat::ItemsPushed, 1); });
  StatsSnapshot Delta = StatsSnapshot::capture() - Before;
  EXPECT_EQ(Delta.get(Stat::ItemsPushed), 4000u);
  // Every launch's threads have exited, so each new thread reuses a freed
  // shard: at most the 4 concurrent tasks' worth of new shards ever exist.
  EXPECT_LE(statsdetail::statShardCount(), ShardsBefore + 4);
}

TEST(StatShards, ResetZeroesIdleLiveThreads) {
  ThreadPoolTaskSystem Ts(4);
  Ts.launch(4, [](int, int) { statAdd(Stat::ChunksStolen, 5); });
  ASSERT_GE(statGet(Stat::ChunksStolen), 20u);
  statsReset();
  EXPECT_EQ(statGet(Stat::ChunksStolen), 0u);
  EXPECT_EQ(StatsSnapshot::capture().get(Stat::ChunksStolen), 0u);
  // The idle workers keep counting from zero after the reset.
  Ts.launch(4, [](int, int) { statAdd(Stat::ChunksStolen, 1); });
  EXPECT_EQ(statGet(Stat::ChunksStolen), 4u);
  statsReset();
}

//===----------------------------------------------------------------------===//
// Table
//===----------------------------------------------------------------------===//

TEST(TablePrinter, AlignsColumns) {
  Table T({"a", "long-header"});
  T.addRow({"x", "1"});
  T.addRow({"longer-cell", "2"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("a            long-header"), std::string::npos);
  EXPECT_NE(Out.find("longer-cell  2"), std::string::npos);
}

TEST(TablePrinter, Formatters) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(static_cast<std::uint64_t>(42)), "42");
  EXPECT_EQ(Table::fmtSpeedup(2.5), "2.50x");
}

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

TEST(OptionsParsing, CommandLineAndDefaults) {
  const char *Argv[] = {"prog", "--scale=5", "--flag", "--name=abc",
                        "--rate=2.5"};
  Options Opts(5, const_cast<char **>(Argv));
  EXPECT_EQ(Opts.getInt("scale", 1), 5);
  EXPECT_EQ(Opts.getInt("missing", 7), 7);
  EXPECT_TRUE(Opts.getBool("flag", false));
  EXPECT_FALSE(Opts.getBool("other", false));
  EXPECT_EQ(Opts.getString("name", ""), "abc");
  EXPECT_DOUBLE_EQ(Opts.getDouble("rate", 0.0), 2.5);
}

TEST(OptionsParsing, EnvironmentFallback) {
  ::setenv("EGACS_FROM_ENV", "123", 1);
  const char *Argv[] = {"prog"};
  Options Opts(1, const_cast<char **>(Argv));
  EXPECT_EQ(Opts.getInt("from-env", 0), 123);
  ::unsetenv("EGACS_FROM_ENV");
}

TEST(OptionsParsing, CommandLineBeatsEnvironment) {
  ::setenv("EGACS_PRIO", "1", 1);
  const char *Argv[] = {"prog", "--prio=2"};
  Options Opts(2, const_cast<char **>(Argv));
  EXPECT_EQ(Opts.getInt("prio", 0), 2);
  ::unsetenv("EGACS_PRIO");
}

//===----------------------------------------------------------------------===//
// Timer
//===----------------------------------------------------------------------===//

TEST(TimerTest, AccumulatesAcrossIntervals) {
  Timer T;
  T.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  T.stop();
  std::uint64_t First = T.nanoseconds();
  EXPECT_GT(First, 1000000u);
  T.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  T.stop();
  EXPECT_GT(T.nanoseconds(), First);
  T.reset();
  EXPECT_EQ(T.nanoseconds(), 0u);
}

TEST(TimerTest, TimeMsMeasuresWork) {
  double Ms = timeMs([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  });
  EXPECT_GT(Ms, 2.0);
}

TEST(TimerTest, ClockIsSteadyAndMonotonic) {
  // Kernel timings and trace span timestamps share Timer::Clock; both
  // break if it can go backwards under wall-clock adjustment.
  static_assert(Timer::Clock::is_steady,
                "Timer must be backed by a monotonic clock");
  Timer::Clock::time_point Prev = Timer::Clock::now();
  for (int I = 0; I < 10000; ++I) {
    Timer::Clock::time_point Now = Timer::Clock::now();
    ASSERT_GE(Now.time_since_epoch().count(),
              Prev.time_since_epoch().count());
    Prev = Now;
  }
}

} // namespace
