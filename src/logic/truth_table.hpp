#pragma once
// Dense truth tables over a small number of variables.
//
// Used for: library-cell functions (≤ 8 inputs), cut functions during
// technology mapping (≤ 6 inputs), exhaustive functional verification of
// small circuits in tests (≤ 16 inputs).

#include <cstdint>
#include <string>
#include <vector>

namespace powder {

/// Masks selecting, within one table word, the bits of the minterms where
/// variable v (v < 6) is 0.
inline constexpr std::uint64_t kVarMask0[6] = {
    0x5555555555555555ull, 0x3333333333333333ull, 0x0F0F0F0F0F0F0F0Full,
    0x00FF00FF00FF00FFull, 0x0000FFFF0000FFFFull, 0x00000000FFFFFFFFull,
};

/// A completely specified Boolean function of `num_vars()` variables,
/// stored as a bit vector of 2^n minterm values (variable 0 is the fastest
/// toggling input, i.e. bit i of the table is f(i_0, i_1, ...)).
class TruthTable {
 public:
  static constexpr int kMaxVars = 16;

  TruthTable() = default;
  /// Constant-zero function of `num_vars` variables.
  explicit TruthTable(int num_vars);

  static TruthTable constant(int num_vars, bool value);
  /// Projection onto variable `var`.
  static TruthTable variable(int num_vars, int var);

  int num_vars() const { return num_vars_; }
  std::uint64_t num_minterms_capacity() const { return 1ull << num_vars_; }

  bool bit(std::uint64_t minterm) const {
    return (words_[minterm >> 6] >> (minterm & 63)) & 1;
  }
  void set_bit(std::uint64_t minterm, bool value);

  /// Number of minterms where the function is 1.
  std::uint64_t count_ones() const;

  bool is_constant(bool value) const;

  /// Does the function depend on `var` at all?
  bool depends_on(int var) const;

  TruthTable operator~() const;
  TruthTable operator&(const TruthTable& o) const;
  TruthTable operator|(const TruthTable& o) const;
  TruthTable operator^(const TruthTable& o) const;
  bool operator==(const TruthTable& o) const = default;

  /// Positive/negative cofactor with respect to `var` (result keeps the same
  /// variable count; the cofactored variable becomes irrelevant).
  TruthTable cofactor(int var, bool value) const;

  /// Returns f with its inputs permuted: new input i feeds old input
  /// `perm[i]`. `perm` must be a permutation of 0..n-1.
  TruthTable permute(const std::vector<int>& perm) const;

  /// Returns f with input `var` complemented.
  TruthTable flip_var(int var) const;

  /// Evaluate under a full assignment packed into the low bits of `input`.
  bool evaluate(std::uint64_t input) const { return bit(input); }

  /// Extends the function to `new_num_vars` (added variables are don't
  /// cares). new_num_vars must be >= num_vars().
  TruthTable extended(int new_num_vars) const;

  /// Canonical form under input complementation and permutation plus output
  /// complementation (NPN). Exhaustive over permutations — intended for
  /// n <= 6. Returned string is a stable key usable for hashing.
  std::string npn_canonical_key() const;

  /// Hex dump, most significant word first; stable across runs.
  std::string to_hex() const;

  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  int num_vars_ = 0;
  std::vector<std::uint64_t> words_;  // ceil(2^n / 64) words, tail bits zero.

  void mask_tail();
};

}  // namespace powder
