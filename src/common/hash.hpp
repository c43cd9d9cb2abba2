// MurmurHash3 integer finalizers: deterministic scramblers for derived
// seeds, 64-bit residency signatures and hash-table keys.
#pragma once

#include <cstdint>

namespace monde {

/// MurmurHash3's 64-bit finalizer (fmix64).
[[nodiscard]] constexpr std::uint64_t fmix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

/// The multiply-first variant behind expert and prefix signature bits and
/// the prefix-hash ring; bench budgets pin its outputs.
[[nodiscard]] constexpr std::uint64_t signature_mix(std::uint64_t x) {
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 29);
}

/// Two 32-bit ids packed into one word, `hi` in the upper half.
[[nodiscard]] constexpr std::uint64_t pack_ids(int hi, int lo) {
  return (std::uint64_t{static_cast<std::uint32_t>(hi)} << 32) | static_cast<std::uint32_t>(lo);
}

}  // namespace monde
