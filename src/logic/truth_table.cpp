#include "logic/truth_table.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/check.hpp"

namespace powder {

namespace {
std::size_t word_count(int num_vars) {
  return num_vars <= 6 ? 1 : (std::size_t{1} << (num_vars - 6));
}
}  // namespace

TruthTable::TruthTable(int num_vars) : num_vars_(num_vars) {
  POWDER_CHECK(num_vars >= 0 && num_vars <= kMaxVars);
  words_.assign(word_count(num_vars), 0);
}

void TruthTable::mask_tail() {
  if (num_vars_ < 6) words_[0] &= (1ull << (1u << num_vars_)) - 1;
}

TruthTable TruthTable::constant(int num_vars, bool value) {
  TruthTable t(num_vars);
  if (value) {
    std::fill(t.words_.begin(), t.words_.end(), ~0ull);
    t.mask_tail();
  }
  return t;
}

TruthTable TruthTable::variable(int num_vars, int var) {
  POWDER_CHECK(var >= 0 && var < num_vars);
  TruthTable t(num_vars);
  if (var < 6) {
    for (auto& w : t.words_) w = ~kVarMask0[var];
  } else {
    // Variable >= 6 selects whole words.
    const std::size_t period = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < t.words_.size(); ++i)
      if (i & period) t.words_[i] = ~0ull;
  }
  t.mask_tail();
  return t;
}

void TruthTable::set_bit(std::uint64_t minterm, bool value) {
  POWDER_DCHECK(minterm < num_minterms_capacity());
  if (value)
    words_[minterm >> 6] |= 1ull << (minterm & 63);
  else
    words_[minterm >> 6] &= ~(1ull << (minterm & 63));
}

std::uint64_t TruthTable::count_ones() const {
  std::uint64_t n = 0;
  for (auto w : words_) n += static_cast<std::uint64_t>(std::popcount(w));
  return n;
}

bool TruthTable::is_constant(bool value) const {
  if (words_.empty()) return false;  // default-constructed: no function
  const std::uint64_t want =
      !value ? 0 : num_vars_ >= 6 ? ~0ull : (1ull << (1u << num_vars_)) - 1;
  return std::all_of(words_.begin(), words_.end(),
                     [want](std::uint64_t w) { return w == want; });
}

bool TruthTable::depends_on(int var) const {
  POWDER_CHECK(var >= 0 && var < num_vars_);
  if (var < 6) {
    // The var == 1 half of each word, moved onto the var == 0 half.
    const std::uint64_t m0 = kVarMask0[var];
    const int shift = 1 << var;
    return std::any_of(words_.begin(), words_.end(), [&](std::uint64_t w) {
      return ((w >> shift) & m0) != (w & m0);
    });
  }
  // Variable >= 6 selects whole words: word i pairs with word i | period.
  const std::size_t period = std::size_t{1} << (var - 6);
  for (std::size_t i = 0; i < words_.size(); ++i)
    if ((i & period) == 0 && words_[i] != words_[i | period]) return true;
  return false;
}

TruthTable TruthTable::operator~() const {
  TruthTable t(num_vars_);
  for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] = ~words_[i];
  t.mask_tail();
  return t;
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
  POWDER_CHECK(num_vars_ == o.num_vars_);
  TruthTable t(num_vars_);
  for (std::size_t i = 0; i < words_.size(); ++i)
    t.words_[i] = words_[i] & o.words_[i];
  return t;
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
  POWDER_CHECK(num_vars_ == o.num_vars_);
  TruthTable t(num_vars_);
  for (std::size_t i = 0; i < words_.size(); ++i)
    t.words_[i] = words_[i] | o.words_[i];
  return t;
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
  POWDER_CHECK(num_vars_ == o.num_vars_);
  TruthTable t(num_vars_);
  for (std::size_t i = 0; i < words_.size(); ++i)
    t.words_[i] = words_[i] ^ o.words_[i];
  return t;
}

TruthTable TruthTable::cofactor(int var, bool value) const {
  POWDER_CHECK(var >= 0 && var < num_vars_);
  TruthTable t(num_vars_);
  if (var < 6) {
    const std::uint64_t m0 = kVarMask0[var];
    const int shift = 1 << var;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      const std::uint64_t w = words_[i];
      std::uint64_t half;
      if (value)
        half = (w >> shift) & m0;  // bits where var==1, moved to var==0 slots
      else
        half = w & m0;
      t.words_[i] = half | (half << shift);
    }
  } else {
    const std::size_t period = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < words_.size(); ++i) {
      const std::size_t src = value ? (i | period) : (i & ~period);
      t.words_[i] = words_[src];
    }
  }
  t.mask_tail();
  return t;
}

TruthTable TruthTable::flip_var(int var) const {
  TruthTable c0 = cofactor(var, false);
  TruthTable c1 = cofactor(var, true);
  // f' = var ? c0 : c1
  TruthTable v = variable(num_vars_, var);
  return (v & c0) | (~v & c1);
}

TruthTable TruthTable::permute(const std::vector<int>& perm) const {
  POWDER_CHECK(static_cast<int>(perm.size()) == num_vars_);
  TruthTable t(num_vars_);
  const std::uint64_t n = num_minterms_capacity();
  for (std::uint64_t m = 0; m < n; ++m) {
    if (!bit(m)) continue;
    // Minterm m assigns old input j the bit (m >> j) & 1. In the permuted
    // function, new input i plays the role of old input perm[i].
    std::uint64_t pm = 0;
    for (int i = 0; i < num_vars_; ++i)
      if ((m >> perm[i]) & 1) pm |= 1ull << i;
    t.set_bit(pm, true);
  }
  return t;
}

TruthTable TruthTable::extended(int new_num_vars) const {
  POWDER_CHECK(new_num_vars >= num_vars_ && new_num_vars <= kMaxVars);
  TruthTable t(new_num_vars);
  const std::uint64_t n = t.num_minterms_capacity();
  const std::uint64_t mask = num_minterms_capacity() - 1;
  for (std::uint64_t m = 0; m < n; ++m) t.set_bit(m, bit(m & mask));
  return t;
}

std::string TruthTable::to_hex() const {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (auto it = words_.rbegin(); it != words_.rend(); ++it)
    for (int nib = 15; nib >= 0; --nib)
      s.push_back(digits[(*it >> (4 * nib)) & 0xF]);
  return s;
}

std::string TruthTable::npn_canonical_key() const {
  POWDER_CHECK_MSG(num_vars_ <= 6, "NPN canonicalization is exhaustive");
  std::vector<int> perm(num_vars_);
  std::iota(perm.begin(), perm.end(), 0);
  std::string best;
  do {
    TruthTable p = permute(perm);
    for (std::uint32_t phases = 0; phases < (1u << num_vars_); ++phases) {
      TruthTable q = p;
      for (int v = 0; v < num_vars_; ++v)
        if ((phases >> v) & 1) q = q.flip_var(v);
      for (int out = 0; out < 2; ++out) {
        const std::string key = out ? (~q).to_hex() : q.to_hex();
        if (best.empty() || key < best) best = key;
      }
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

}  // namespace powder
