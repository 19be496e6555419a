//===- support/Options.cpp - Benchmark option parsing ---------------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "support/Options.h"

#include <cctype>
#include <cstdlib>
#include <cstring>

using namespace egacs;

Options::Options(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--", 2) != 0)
      continue;
    const char *Eq = std::strchr(Arg + 2, '=');
    if (Eq) {
      Args[std::string(Arg + 2, Eq)] = Eq + 1;
    } else {
      Args[Arg + 2] = "1";
    }
  }
}

bool Options::lookup(const std::string &Key, std::string &OutValue) const {
  Read.insert(Key);
  auto It = Args.find(Key);
  if (It != Args.end()) {
    OutValue = It->second;
    return true;
  }
  std::string EnvKey = "EGACS_";
  for (char C : Key)
    EnvKey += C == '-' ? '_' : static_cast<char>(std::toupper(C));
  if (const char *Env = std::getenv(EnvKey.c_str())) {
    OutValue = Env;
    return true;
  }
  return false;
}

std::int64_t Options::getInt(const std::string &Key,
                             std::int64_t Default) const {
  std::string Value;
  if (!lookup(Key, Value))
    return Default;
  return std::strtoll(Value.c_str(), nullptr, 0);
}

double Options::getDouble(const std::string &Key, double Default) const {
  std::string Value;
  if (!lookup(Key, Value))
    return Default;
  return std::strtod(Value.c_str(), nullptr);
}

std::string Options::getString(const std::string &Key,
                               const std::string &Default) const {
  std::string Value;
  if (!lookup(Key, Value))
    return Default;
  return Value;
}

bool Options::getBool(const std::string &Key, bool Default) const {
  std::string Value;
  if (!lookup(Key, Value))
    return Default;
  return Value != "0" && Value != "false" && Value != "no";
}

std::vector<std::string> Options::unreadKeys() const {
  std::vector<std::string> Keys;
  for (const auto &[Key, Value] : Args)
    if (!Read.count(Key))
      Keys.push_back(Key);
  return Keys;
}
