//===- sched/UpdateEngine.cpp - Contention-aware update engine ------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "sched/UpdateEngine.h"

#include "support/ParseEnum.h"

#include <cstdio>
#include <cstdlib>

using namespace egacs;

const char *egacs::updatePolicyName(UpdatePolicy P) {
  switch (P) {
  case UpdatePolicy::Atomic:
    return "atomic";
  case UpdatePolicy::Combined:
    return "combined";
  case UpdatePolicy::Privatized:
    return "privatized";
  }
  return "<invalid>";
}

UpdatePolicy egacs::parseUpdatePolicy(const std::string &Name) {
  if (Name == "atomic")
    return UpdatePolicy::Atomic;
  if (Name == "combined")
    return UpdatePolicy::Combined;
  if (Name == "privatized")
    return UpdatePolicy::Privatized;
  parseEnumFail("update policy", Name, "atomic|combined|privatized");
}
