//===- tests/OracleAssert.h - gtest adapter for the oracles -----*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `EXPECT_TRUE(certified(verify::checkKernelOutput(...)))` fails with the
/// oracle's reason (the first violated property and where it was seen).
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_TESTS_ORACLEASSERT_H
#define EGACS_TESTS_ORACLEASSERT_H

#include "verify/Oracle.h"

#include <gtest/gtest.h>

namespace egacs {

inline ::testing::AssertionResult certified(const verify::OracleResult &R) {
  if (R.Ok)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << R.Reason;
}

} // namespace egacs

#endif // EGACS_TESTS_ORACLEASSERT_H
