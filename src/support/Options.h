//===- support/Options.h - Benchmark option parsing -------------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny "--key=value" / environment-variable option reader shared by the
/// benchmark binaries so that graph scale, repetition counts, and task counts
/// can be adjusted without recompiling (mirrors the paper artifact's
/// Makefile variables such as TASK and CUSTOM_TARGET).
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_SUPPORT_OPTIONS_H
#define EGACS_SUPPORT_OPTIONS_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace egacs {

/// Parses "--key=value" arguments, falling back to EGACS_<KEY> environment
/// variables, then to built-in defaults.
class Options {
public:
  Options(int Argc, char **Argv);

  /// Returns the integer value of \p Key or \p Default when unset.
  std::int64_t getInt(const std::string &Key, std::int64_t Default) const;

  /// Returns the floating-point value of \p Key or \p Default when unset.
  double getDouble(const std::string &Key, double Default) const;

  /// Returns the string value of \p Key or \p Default when unset.
  std::string getString(const std::string &Key,
                        const std::string &Default) const;

  /// Returns true when the flag \p Key is present (any value but "0"/"false").
  bool getBool(const std::string &Key, bool Default) const;

  /// The command-line keys no get* call has asked for yet, in key order.
  /// Once a program has read all its options, these are typos or retired
  /// flags that would otherwise be ignored silently.
  std::vector<std::string> unreadKeys() const;

private:
  /// Looks up \p Key in the command line, then the environment. Returns
  /// nullptr-equivalent (empty optional via bool) through OutValue.
  bool lookup(const std::string &Key, std::string &OutValue) const;

  std::map<std::string, std::string> Args;
  /// Every key a get* call has looked up.
  mutable std::set<std::string> Read;
};

} // namespace egacs

#endif // EGACS_SUPPORT_OPTIONS_H
