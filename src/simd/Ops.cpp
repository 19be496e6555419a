//===- simd/Ops.cpp - SPMD operation counting state -----------------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "simd/Ops.h"

// The flag itself is an inline variable in Ops.h so every wrapper reads it
// without a call. Benchmarks toggle it around counting runs only; a wrapper
// that reads a stale value merely miscounts a handful of boundary operations.
void egacs::simd::setOpCounting(bool Enabled) {
  detail::OpCountingOn.store(Enabled, std::memory_order_relaxed);
}
