//===- tests/ParseErrorsTest.cpp - Uniform CLI parse failures -------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Every parse* CLI helper must reject an unknown name the same way: exit
// code 2 and one stderr line of the shape
//   error: unknown <what> '<got>'; valid values are <a|b|c>
// (support/ParseEnum.h). The harnesses compose --kernel/--layout/--update/
// --prefetch/--direction/--ts/--target freely, so a typo in any of
// them must fail identically rather than half of them asserting and half
// falling back silently.
//
//===----------------------------------------------------------------------===//

#include "graph/GraphView.h"
#include "engine/KernelConfig.h"
#include "kernels/Kernels.h"
#include "runtime/TaskSystem.h"
#include "sched/Prefetch.h"
#include "sched/UpdateEngine.h"
#include "verify/ConfigSample.h"

#include <gtest/gtest.h>

using namespace egacs;

namespace {

// The uniform failure shape, anchored on both the error prefix and the
// valid-set phrasing (regex over the captured stderr).
#define EXPECT_PARSE_FAIL(Call, What, ValidRe)                                \
  EXPECT_EXIT((Call), ::testing::ExitedWithCode(2),                           \
              "error: unknown " What " 'bogus'; valid values are " ValidRe)

TEST(ParseErrors, AllHelpersShareTheFailureShape) {
  EXPECT_PARSE_FAIL(parseTaskSystemKind("bogus"), "task system",
                    "serial\\|spawn\\|pool\\|spin");
  EXPECT_PARSE_FAIL(parseLayoutKind("bogus"), "layout", "csr\\|sell\n");
  EXPECT_PARSE_FAIL(parseUpdatePolicy("bogus"), "update policy",
                    "atomic\\|combined\\|privatized\n");
  EXPECT_PARSE_FAIL(parsePrefetchPolicy("bogus"), "prefetch policy",
                    "none\\|rows\\|rows\\+props");
  EXPECT_PARSE_FAIL(parseDirection("bogus"), "direction",
                    "push\\|pull\\|hybrid");
  EXPECT_PARSE_FAIL(parseKernelKind("bogus"), "kernel",
                    "bfs-wl\\|bfs-cx\\|bfs-tp\\|bfs-hb\\|cc\\|tri\\|sssp\\|"
                    "mis\\|pr\\|mst");
  EXPECT_PARSE_FAIL(verify::parseTargetKind("bogus"), "target",
                    "scalar-i32x1\\|");
}

TEST(ParseErrors, BadConfigSpecThrows) {
  // Library code reports a bad spec to its caller instead of exiting.
  try {
    verify::parseConfigSpec("kernel=cc,bogus");
    ADD_FAILURE() << "no ConfigSpecError";
  } catch (const verify::ConfigSpecError &Err) {
    EXPECT_STREQ(Err.what(), "bad --config spec 'kernel=cc,bogus': 'bogus' "
                             "is not key=value");
  }
  EXPECT_THROW(verify::parseConfigSpec("tasks=x"), verify::ConfigSpecError);
  EXPECT_THROW(verify::parseConfigSpec("nokey=1"), std::invalid_argument);
}

TEST(ParseErrors, BadConfigSpecEnumValueThrows) {
  // An unknown enum value is a bad spec like any other: it throws with the
  // valid set instead of exiting the caller.
  try {
    verify::parseConfigSpec("kernel=bfs-wl,layout=hubcsr");
    ADD_FAILURE() << "no ConfigSpecError";
  } catch (const verify::ConfigSpecError &Err) {
    EXPECT_STREQ(Err.what(), "bad --config spec 'kernel=bfs-wl,layout=hubcsr'"
                             ": unknown layout 'hubcsr'; valid values are "
                             "csr|sell");
  }
  for (const char *Spec : {"layout=hubcsr", "update=blocked", "kernel=bogus",
                           "target=bogus", "prefetch=bogus", "dir=bogus"})
    EXPECT_THROW(verify::parseConfigSpec(Spec), verify::ConfigSpecError)
        << Spec;
}

TEST(ParseErrors, RetiredSchedulingKeysFailLoudly) {
  // Work stealing is the only distributor and propagation blocking is
  // gone: a replay spec that still names their keys must not run silently
  // under some other configuration.
  for (const char *Spec : {"kernel=pr,sched=static", "kernel=pr,guided=1",
                           "kernel=pr,ublock=64"})
    EXPECT_THROW(verify::parseConfigSpec(Spec), verify::ConfigSpecError)
        << Spec;
  EXPECT_EXIT(parseUpdatePolicy("blocked"), ::testing::ExitedWithCode(2),
              "error: unknown update policy 'blocked'; valid values are "
              "atomic\\|combined\\|privatized\n");
}

TEST(ParseErrors, RetiredLayoutNamesFailLoudly) {
  // The hub-partitioned CSR layout is gone: its names must not fall back
  // to some other layout.
  EXPECT_EXIT(parseLayoutKind("hubcsr"), ::testing::ExitedWithCode(2),
              "error: unknown layout 'hubcsr'; valid values are csr\\|sell\n");
  EXPECT_EXIT(parseLayoutKind("hub"), ::testing::ExitedWithCode(2),
              "error: unknown layout 'hub'; valid values are csr\\|sell\n");
}

TEST(ParseErrors, ValidNamesStillParse) {
  EXPECT_EQ(parseTaskSystemKind("spin"), TaskSystemKind::SpinPool);
  EXPECT_EQ(parseLayoutKind("sell"), LayoutKind::Sell);
  EXPECT_EQ(parseUpdatePolicy("privatized"), UpdatePolicy::Privatized);
  EXPECT_EQ(parsePrefetchPolicy("rows+props"), PrefetchPolicy::RowsProps);
  EXPECT_EQ(parseDirection("hybrid"), Direction::Hybrid);
  EXPECT_EQ(parseKernelKind("bfs-hb"), KernelKind::BfsHb);
  EXPECT_EQ(verify::parseTargetKind("scalar-i32x1"),
            simd::TargetKind::Scalar1);
}

} // namespace
