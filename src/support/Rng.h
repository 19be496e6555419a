//===- support/Rng.h - Deterministic random number generation ---*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, fast pseudo-random number generators (SplitMix64 and
/// xoshiro256**) used by the graph generators and by MIS priorities. All
/// randomness in the project flows through these so that every experiment is
/// reproducible from a seed.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_SUPPORT_RNG_H
#define EGACS_SUPPORT_RNG_H

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>

namespace egacs {

/// SplitMix64: used to seed xoshiro and as a cheap stateless hash.
inline std::uint64_t splitMix64(std::uint64_t &State) {
  std::uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// Stateless 64-bit mixer; useful for per-node deterministic priorities.
inline std::uint64_t hashMix64(std::uint64_t X) {
  std::uint64_t S = X;
  return splitMix64(S);
}

/// xoshiro256** by Blackman and Vigna: fast, high-quality, 2^256-1 period.
class Xoshiro256 {
public:
  explicit Xoshiro256(std::uint64_t Seed = 0x9e3779b97f4a7c15ull) {
    std::uint64_t S = Seed;
    for (std::uint64_t &Word : State)
      Word = splitMix64(S);
  }

  /// Returns the next 64 random bits.
  std::uint64_t next() {
    const std::uint64_t Result = rotl(State[1] * 5, 7) * 9;
    const std::uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = rotl(State[3], 45);
    return Result;
  }

  /// Returns a uniformly distributed value in [0, Bound).
  std::uint64_t nextBounded(std::uint64_t Bound) {
    assert(Bound > 0 && "bound must be positive");
    // Lemire's nearly-divisionless bounded generation (biased by at most
    // 2^-64, which is fine for workload generation).
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * Bound) >> 64);
  }

  /// Returns a uniformly distributed double in [0, 1).
  double nextDouble() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Returns a uniformly distributed float in [0, 1).
  float nextFloat() { return static_cast<float>(next() >> 40) * 0x1.0p-24f; }

  /// Advances the generator by \p Steps calls of next() in O(log Steps)
  /// time: the state it leaves is exactly the one \p Steps calls would
  /// leave. Lets parallel workers start independent, reproducible stretches
  /// of one stream.
  void advance(std::uint64_t Steps) {
    // next() updates the state linearly over GF(2), so Steps updates are
    // the matrix T^Steps. By Cayley-Hamilton T^Steps = r(T), where r is
    // x^Steps reduced modulo T's characteristic polynomial; the state is
    // then the sum of the next 256 states weighted by r's coefficients
    // (the construction behind the reference jump()).
    Poly R = {1, 0, 0, 0};
    for (int Bit = std::bit_width(Steps) - 1; Bit >= 0; --Bit) {
      R = mulMod(R, R);
      if ((Steps >> Bit) & 1)
        R = mulX(R);
    }
    std::uint64_t Acc[4] = {};
    for (int I = 0; I < 256; ++I) {
      if ((R[I / 64] >> (I % 64)) & 1)
        for (int W = 0; W < 4; ++W)
          Acc[W] ^= State[W];
      next();
    }
    for (int W = 0; W < 4; ++W)
      State[W] = Acc[W];
  }

private:
  /// A polynomial over GF(2) of degree < 256; bit I of word I/64 is the
  /// coefficient of x^I.
  using Poly = std::array<std::uint64_t, 4>;

  /// The characteristic polynomial of the state update, without its x^256
  /// term (found by Berlekamp-Massey on one state bit's sequence).
  static constexpr Poly CharPoly = {
      0x9d116f2bb0f0f001ull, 0x0280002bcefd1a5eull, 0x04b4edcf26259f85ull,
      0x0003c03c3f3ecb19ull};

  /// Returns \p A times x, modulo CharPoly.
  static Poly mulX(const Poly &A) {
    const bool Carry = A[3] >> 63;
    Poly R = {A[0] << 1, (A[1] << 1) | (A[0] >> 63), (A[2] << 1) | (A[1] >> 63),
              (A[3] << 1) | (A[2] >> 63)};
    if (Carry)
      for (int W = 0; W < 4; ++W)
        R[W] ^= CharPoly[W];
    return R;
  }

  /// Returns \p A times \p B, modulo CharPoly (Horner over A's bits).
  static Poly mulMod(const Poly &A, const Poly &B) {
    Poly R = {};
    for (int I = 255; I >= 0; --I) {
      R = mulX(R);
      if ((A[I / 64] >> (I % 64)) & 1)
        for (int W = 0; W < 4; ++W)
          R[W] ^= B[W];
    }
    return R;
  }

  static std::uint64_t rotl(std::uint64_t X, int K) {
    return (X << K) | (X >> (64 - K));
  }

  std::uint64_t State[4];
};

} // namespace egacs

#endif // EGACS_SUPPORT_RNG_H
