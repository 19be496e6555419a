//===- tests/AllBackends.h - The compiled SIMD backends as a type list ----===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// The typed-test list every per-backend suite runs over, plus the runtime
// guard for backends the executing CPU cannot run.
//
//===----------------------------------------------------------------------===//

#ifndef EGACS_TESTS_ALLBACKENDS_H
#define EGACS_TESTS_ALLBACKENDS_H

#include "simd/Targets.h"
#include "support/CpuInfo.h"

#include <gtest/gtest.h>

#include <string>

/// Every backend this build compiled, narrowest first.
using AllBackends = ::testing::Types<
    egacs::simd::ScalarBackend<1>, egacs::simd::ScalarBackend<4>,
    egacs::simd::ScalarBackend<8>, egacs::simd::ScalarBackend<16>
#ifdef EGACS_HAVE_AVX2
    ,
    egacs::simd::Avx2HalfBackend, egacs::simd::Avx2Backend,
    egacs::simd::Avx2PumpedBackend
#endif
#ifdef EGACS_HAVE_AVX512
    ,
    egacs::simd::Avx512HalfBackend, egacs::simd::Avx512Backend
#endif
    >;

/// AVX backends are compiled whenever the toolchain supports them, but must
/// not execute on a CPU that lacks the ISA.
template <typename BK> bool backendRunnable() {
  std::string Name = BK::Name;
  if (Name.find("avx512") != std::string::npos)
    return egacs::cpuInfo().HasAvx512f;
  if (Name.find("avx2") != std::string::npos)
    return egacs::cpuInfo().HasAvx2;
  return true;
}

#endif // EGACS_TESTS_ALLBACKENDS_H
