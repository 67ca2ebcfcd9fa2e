#include "library/cell_library.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "logic/expr.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace powder {

bool Cell::is_inverter() const {
  return num_inputs() == 1 && function == ~TruthTable::variable(1, 0);
}

bool Cell::is_buffer() const {
  return num_inputs() == 1 && function == TruthTable::variable(1, 0);
}

CellId CellLibrary::add(Cell cell) {
  POWDER_CHECK_MSG(by_name_.find(cell.name) == by_name_.end(),
                   "duplicate cell name " << cell.name);
  POWDER_CHECK(cell.function.num_vars() == cell.num_inputs());
  const CellId id = static_cast<CellId>(cells_.size());
  cells_.push_back(std::move(cell));
  index_cell(id);
  return id;
}

void CellLibrary::index_cell(CellId id) {
  const Cell& c = cells_[static_cast<std::size_t>(id)];
  by_name_.emplace(c.name, id);
  by_function_hex_[c.function.to_hex() + "/" +
                   std::to_string(c.num_inputs())].push_back(id);

  auto better = [&](CellId cand, CellId incumbent) {
    return incumbent == kInvalidCell ||
           cells_[static_cast<std::size_t>(cand)].area <
               cells_[static_cast<std::size_t>(incumbent)].area;
  };
  if (c.is_inverter() && better(id, inverter_)) inverter_ = id;
  if (c.is_buffer() && better(id, buffer_)) buffer_ = id;
  if (c.is_constant()) {
    if (c.function.is_constant(false) && better(id, const0_)) const0_ = id;
    if (c.function.is_constant(true) && better(id, const1_)) const1_ = id;
  }
  if (c.num_inputs() == 2) two_input_.push_back(id);
  const int arity = c.num_inputs();
  if (arity >= static_cast<int>(by_arity_.size()))
    by_arity_.resize(static_cast<std::size_t>(arity) + 1);
  by_arity_[static_cast<std::size_t>(arity)].push_back(id);
}

CellId CellLibrary::find(std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidCell : it->second;
}

const Cell& CellLibrary::cell_by_name(std::string_view name) const {
  const CellId id = find(name);
  POWDER_CHECK_MSG(id != kInvalidCell, "no cell named " << name);
  return cell(id);
}

CellId CellLibrary::find_exact(const TruthTable& f) const {
  const auto it = by_function_hex_.find(f.to_hex() + "/" +
                                        std::to_string(f.num_vars()));
  if (it == by_function_hex_.end()) return kInvalidCell;
  CellId best = kInvalidCell;
  for (CellId id : it->second)
    if (best == kInvalidCell ||
        cell(id).area < cell(best).area)
      best = id;
  return best;
}

std::vector<CellLibrary::Match> CellLibrary::match_function(
    const TruthTable& f) const {
  std::vector<Match> out;
  const int n = f.num_vars();
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  // For each permutation, check whether some cell's function permuted this
  // way equals f. Iterating permutations of f and looking up in the hash
  // map keeps this O(n! * lookup).
  std::vector<std::vector<int>> perms;
  do {
    perms.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));

  for (const auto& p : perms) {
    // We need a cell function g with g(y) == f(x) under the wiring
    // y_i = x_{p[i]}; by the permute() convention (new input i feeds old
    // input perm[i]) that is exactly g = f.permute(p).
    const TruthTable g = f.permute(p);
    const auto it =
        by_function_hex_.find(g.to_hex() + "/" + std::to_string(n));
    if (it == by_function_hex_.end()) continue;
    for (CellId id : it->second) out.push_back(Match{id, p});
  }
  return out;
}

// ---------------------------------------------------------------------------
// genlib parsing
// ---------------------------------------------------------------------------

CellLibrary CellLibrary::from_genlib(std::string_view text) {
  CellLibrary lib;
  // Token-stream parsing; genlib statements are
  //   GATE <name> <area> <output>=<expr>;
  //   PIN <pin-name|*> <phase> <input-load> <max-load> \
  //       <rise-block> <rise-fanout> <fall-block> <fall-fanout>
  // Statements may share a line (common in real genlib files), so the
  // parser is driven by the GATE/PIN keywords, not by line structure.
  std::vector<std::string> tokens;
  {
    std::string no_comments;
    bool in_comment = false;
    for (char ch : text) {
      if (ch == '#') in_comment = true;
      if (ch == '\n') in_comment = false;
      no_comments.push_back(in_comment ? ' ' : ch);
    }
    for (std::string_view t : split(no_comments)) tokens.emplace_back(t);
  }

  struct PendingPin {
    std::string name;  // "*" applies to all inputs
    double load = 1.0;
    double block = 0.0;
    double fanout = 0.0;
  };

  std::optional<Cell> pending;
  std::vector<PendingPin> pending_pins;
  std::vector<std::string> pending_input_names;

  auto flush = [&]() {
    if (!pending) return;
    Cell& c = *pending;
    for (const std::string& in : pending_input_names) {
      CellPin pin;
      pin.name = in;
      c.pins.push_back(std::move(pin));
    }
    double tau = 0.0, drive = 0.0;
    for (const PendingPin& pp : pending_pins) {
      bool any = false;
      for (CellPin& pin : c.pins) {
        if (pp.name == "*" || pin.name == pp.name) {
          pin.input_cap = pp.load;
          any = true;
        }
      }
      POWDER_CHECK_MSG(any || c.pins.empty(),
                       "PIN " << pp.name << " not an input of " << c.name);
      tau = std::max(tau, pp.block);
      drive = std::max(drive, pp.fanout);
    }
    c.intrinsic_delay = tau;
    c.drive_resistance = drive;
    lib.add(std::move(c));
    pending.reset();
    pending_pins.clear();
    pending_input_names.clear();
  };

  std::size_t i = 0;
  auto need = [&](std::size_t n, const char* what) {
    POWDER_CHECK_MSG(i + n <= tokens.size(), "truncated " << what
                                                          << " statement");
  };
  while (i < tokens.size()) {
    if (tokens[i] == "GATE") {
      flush();
      need(4, "GATE");
      Cell c;
      c.name = tokens[i + 1];
      c.area = std::stod(tokens[i + 2]);
      // Collect the "<out>=<expr>;" part up to the ';' terminator (the
      // expression may span several tokens).
      std::string rhs;
      std::size_t j = i + 3;
      bool terminated = false;
      for (; j < tokens.size(); ++j) {
        rhs += tokens[j];
        rhs += ' ';
        if (tokens[j].find(';') != std::string::npos) {
          terminated = true;
          ++j;
          break;
        }
      }
      POWDER_CHECK_MSG(terminated, "GATE " << c.name << " missing ';'");
      const std::size_t eq = rhs.find('=');
      POWDER_CHECK_MSG(eq != std::string::npos,
                       "GATE " << c.name << " missing '='");
      std::string expr = rhs.substr(eq + 1);
      expr = expr.substr(0, expr.find(';'));
      const ParsedExpr parsed = parse_boolean_expr(expr);
      c.function = parsed.function;
      pending_input_names = parsed.input_names;
      pending = std::move(c);
      i = j;
    } else if (tokens[i] == "PIN") {
      POWDER_CHECK_MSG(pending.has_value(), "PIN before GATE");
      need(9, "PIN");
      PendingPin pp;
      pp.name = tokens[i + 1];
      pp.load = std::stod(tokens[i + 3]);
      const double rise_block = std::stod(tokens[i + 5]);
      const double rise_fanout = std::stod(tokens[i + 6]);
      const double fall_block = std::stod(tokens[i + 7]);
      const double fall_fanout = std::stod(tokens[i + 8]);
      pp.block = 0.5 * (rise_block + fall_block);
      pp.fanout = 0.5 * (rise_fanout + fall_fanout);
      pending_pins.push_back(std::move(pp));
      i += 9;
    } else {
      POWDER_CHECK_MSG(false, "unrecognized genlib token: " << tokens[i]);
    }
  }
  flush();
  return lib;
}

// ---------------------------------------------------------------------------
// Built-in lib2-style library.
//
// The MCNC lib2.genlib itself is not redistributable here; this library has
// the same gate families and the load ratios used in the paper's worked
// example (AND-type input load 1, XOR-type input load 2). Area values are
// on the lib2 scale so that Table-1-style area columns look familiar.
// ---------------------------------------------------------------------------

std::string_view CellLibrary::builtin_genlib_text() {
  static const char* kText = R"(
# powder-lib2: a lib2-flavoured standard-cell library.
# PIN fields: name phase input-load max-load rise-block rise-fanout fall-block fall-fanout
GATE zero    0     O=CONST0;
GATE one     0     O=CONST1;
GATE inv1    928   O=!a;            PIN * INV 1 999 0.40 0.20 0.40 0.20
GATE inv2    1392  O=!a;            PIN * INV 2 999 0.30 0.10 0.30 0.10
GATE buf     1392  O=a;             PIN * NONINV 1 999 0.70 0.20 0.70 0.20
GATE nand2   1392  O=!(a*b);        PIN * INV 1 999 0.50 0.25 0.50 0.25
GATE nand3   1856  O=!(a*b*c);      PIN * INV 1 999 0.60 0.28 0.60 0.28
GATE nand4   2320  O=!(a*b*c*d);    PIN * INV 1 999 0.70 0.30 0.70 0.30
GATE nor2    1392  O=!(a+b);        PIN * INV 1 999 0.55 0.28 0.55 0.28
GATE nor3    1856  O=!(a+b+c);      PIN * INV 1 999 0.65 0.32 0.65 0.32
GATE nor4    2320  O=!(a+b+c+d);    PIN * INV 1 999 0.75 0.36 0.75 0.36
GATE and2    1856  O=a*b;           PIN * NONINV 1 999 0.80 0.22 0.80 0.22
GATE and3    2320  O=a*b*c;         PIN * NONINV 1 999 0.90 0.24 0.90 0.24
GATE or2     1856  O=a+b;           PIN * NONINV 1 999 0.85 0.24 0.85 0.24
GATE or3     2320  O=a+b+c;         PIN * NONINV 1 999 0.95 0.26 0.95 0.26
GATE xor2    2784  O=a^b;           PIN * UNKNOWN 2 999 1.00 0.30 1.00 0.30
GATE xnor2   2784  O=!(a^b);        PIN * UNKNOWN 2 999 1.00 0.30 1.00 0.30
GATE aoi21   1856  O=!((a*b)+c);    PIN * INV 1 999 0.65 0.28 0.65 0.28
GATE aoi22   2320  O=!((a*b)+(c*d)); PIN * INV 1 999 0.75 0.30 0.75 0.30
GATE oai21   1856  O=!((a+b)*c);    PIN * INV 1 999 0.65 0.28 0.65 0.28
GATE oai22   2320  O=!((a+b)*(c+d)); PIN * INV 1 999 0.75 0.30 0.75 0.30
GATE mux21   2784  O=(a*s)+(b*!s);  PIN * UNKNOWN 2 999 1.05 0.30 1.05 0.30
GATE nand2b  1856  O=!(!a*b);       PIN * UNKNOWN 1 999 0.60 0.26 0.60 0.26
GATE nor2b   1856  O=!(!a+b);       PIN * UNKNOWN 1 999 0.60 0.26 0.60 0.26
# Double-drive variants for gate re-sizing: twice the area and input
# capacitance, roughly half the drive resistance.
GATE nand2x2 2784  O=!(a*b);        PIN * INV 2 999 0.50 0.13 0.50 0.13
GATE nor2x2  2784  O=!(a+b);        PIN * INV 2 999 0.55 0.14 0.55 0.14
GATE and2x2  3712  O=a*b;           PIN * NONINV 2 999 0.80 0.11 0.80 0.11
GATE or2x2   3712  O=a+b;           PIN * NONINV 2 999 0.85 0.12 0.85 0.12
GATE xor2x2  5568  O=a^b;           PIN * UNKNOWN 4 999 1.00 0.15 1.00 0.15
GATE aoi21x2 3712  O=!((a*b)+c);    PIN * INV 2 999 0.65 0.14 0.65 0.14
)";
  return kText;
}

CellLibrary CellLibrary::standard() {
  return from_genlib(builtin_genlib_text());
}

std::shared_ptr<const CellLibrary> CellLibrary::standard_shared() {
  // One process-wide instance: netlists that adopt it share ownership, so
  // a helper can return a standard-library netlist by value without any
  // lifetime ceremony (the CHANGES.md PR 6 dangling-library footgun).
  static const std::shared_ptr<const CellLibrary> kShared =
      std::make_shared<const CellLibrary>(standard());
  return kShared;
}

}  // namespace powder
