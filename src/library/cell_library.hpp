#pragma once
// The cell library: lookup by name, by function, and the special cells the
// optimizer and mapper need (inverter, constants, the two-input gates that
// OS3/IS3 substitutions may insert).

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "library/cell.hpp"

namespace powder {

class CellLibrary {
 public:
  CellLibrary() = default;

  /// Parses genlib text. Throws CheckError on malformed input.
  static CellLibrary from_genlib(std::string_view text);

  /// The built-in lib2-style library used by all experiments (see
  /// builtin_genlib_text() for the exact genlib source).
  static CellLibrary standard();

  /// Process-wide shared instance of standard(). Netlists built against it
  /// should adopt the handle (Netlist::adopt_library) so helpers can return
  /// them by value without dangling the library.
  static std::shared_ptr<const CellLibrary> standard_shared();

  /// genlib source of the standard library.
  static std::string_view builtin_genlib_text();

  CellId add(Cell cell);

  int num_cells() const { return static_cast<int>(cells_.size()); }
  const Cell& cell(CellId id) const { return cells_[static_cast<std::size_t>(id)]; }
  const std::vector<Cell>& cells() const { return cells_; }

  CellId find(std::string_view name) const;
  const Cell& cell_by_name(std::string_view name) const;

  /// Smallest-area inverter / buffer; kInvalidCell when absent.
  CellId inverter() const { return inverter_; }
  CellId buffer() const { return buffer_; }
  CellId const0() const { return const0_; }
  CellId const1() const { return const1_; }

  /// All two-input cells, used to enumerate OS3/IS3 insertions.
  const std::vector<CellId>& two_input_cells() const { return two_input_; }

  /// All cells with exactly `arity` inputs, in library order; used to
  /// enumerate k-input resubstitution insertions (OSK/ISK). Returns an
  /// empty list for arities the library does not stock.
  const std::vector<CellId>& cells_with_arity(int arity) const {
    static const std::vector<CellId> kEmpty;
    if (arity < 0 || arity >= static_cast<int>(by_arity_.size()))
      return kEmpty;
    return by_arity_[static_cast<std::size_t>(arity)];
  }

  /// Smallest-area cell implementing exactly `f` (same variable order);
  /// kInvalidCell when no cell matches.
  CellId find_exact(const TruthTable& f) const;

  /// All (cell, input permutation) pairs matching `f`: cell applied with
  /// pin i wired to f-variable perm[i] realizes f. Exhaustive over
  /// permutations, intended for small n (mapper cut matching).
  struct Match {
    CellId cell;
    std::vector<int> perm;
  };
  std::vector<Match> match_function(const TruthTable& f) const;

 private:
  /// Hashes names as string_views, so find() looks a name up without
  /// building a std::string.
  struct NameHash : std::hash<std::string_view> {
    using is_transparent = void;
  };

  std::vector<Cell> cells_;
  std::unordered_map<std::string, CellId, NameHash, std::equal_to<>> by_name_;
  std::unordered_map<std::string, std::vector<CellId>> by_function_hex_;
  CellId inverter_ = kInvalidCell;
  CellId buffer_ = kInvalidCell;
  CellId const0_ = kInvalidCell;
  CellId const1_ = kInvalidCell;
  std::vector<CellId> two_input_;
  std::vector<std::vector<CellId>> by_arity_;  // by_arity_[k] = k-input cells

  void index_cell(CellId id);
};

}  // namespace powder
