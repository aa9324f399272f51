// Bit-manipulation helpers shared by the ISA layer, the simulator and the
// snapshot machinery. Everything here is constexpr and header-only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace specure::util {

/// Mask with the low `width` bits set. width must be in [0, 64].
constexpr std::uint64_t mask(unsigned width) {
  return width >= 64 ? ~0ULL : ((1ULL << width) - 1);
}

/// Extract bits [lo, lo+width) of v.
constexpr std::uint64_t bits(std::uint64_t v, unsigned lo, unsigned width) {
  return (v >> lo) & mask(width);
}

/// Extract a single bit.
constexpr std::uint64_t bit(std::uint64_t v, unsigned pos) {
  return (v >> pos) & 1ULL;
}

/// Sign-extend the low `width` bits of v to 64 bits.
constexpr std::int64_t sext(std::uint64_t v, unsigned width) {
  if (width == 0 || width >= 64) return static_cast<std::int64_t>(v);
  const std::uint64_t sign = 1ULL << (width - 1);
  const std::uint64_t low = v & mask(width);
  return static_cast<std::int64_t>((low ^ sign) - sign);
}

/// Population count of the XOR of two words — number of toggled bits.
constexpr unsigned toggled_bits(std::uint64_t a, std::uint64_t b) {
  return static_cast<unsigned>(__builtin_popcountll(a ^ b));
}

/// Round v up to the next power of two (v=0 -> 1).
constexpr std::uint64_t next_pow2(std::uint64_t v) {
  if (v <= 1) return 1;
  return 1ULL << (64 - __builtin_clzll(v - 1));
}

/// log2 of a power of two.
constexpr unsigned log2_exact(std::uint64_t v) {
  return static_cast<unsigned>(__builtin_ctzll(v));
}

/// Bit i of a word bitset laid out as bit i % 64 of word i / 64 (the
/// layout of snapshot::Trace::changed_words).
inline bool word_bit(const std::vector<std::uint64_t>& words, std::size_t i) {
  return (words[i >> 6] >> (i & 63)) & 1;
}

}  // namespace specure::util
