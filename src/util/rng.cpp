#include "util/rng.hpp"

#include <cmath>

#include "util/check.hpp"

namespace powder {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // All-zero state is invalid for xoshiro; splitmix64 never yields four
  // zeros from any seed, but keep the guard cheap and explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  POWDER_DCHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::uniform() {
  return static_cast<double>(next64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::biased_word(double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~0ull;
  // uniform() is m * 2^-53 for the integer m = next64() >> 11, exactly, so
  // for 0 < p < 1 `uniform() < p` holds iff m < ceil(p * 2^53) (the product
  // is exact too: scaling by a power of two). NaN fails every comparison,
  // so it gets the threshold 0 and still draws its 64 words.
  const std::uint64_t threshold =
      p > 0.0 ? static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53)) : 0;
  std::uint64_t w = 0;
  for (int i = 0; i < 64; ++i)
    w |= static_cast<std::uint64_t>((next64() >> 11) < threshold) << i;
  return w;
}

}  // namespace powder
