#pragma once
// Global BDD construction for netlists (test oracle / exact estimator).

#include <vector>

#include "bdd/bdd.hpp"
#include "logic/truth_table.hpp"
#include "netlist/netlist.hpp"

namespace powder {

/// Global BDDs of every live gate in `netlist`, over one BDD variable per
/// primary input (in netlist.inputs() order).
struct NetlistBdds {
  BddManager manager;
  std::vector<BddRef> gate_function;  // indexed by GateId; dead gates = 0

  explicit NetlistBdds(const Netlist& netlist);
};

/// Applies truth table `tt` to argument BDDs (arg[i] substitutes variable i)
/// by Shannon expansion, highest variable first. A table of at most six
/// variables is expanded on its one word.
BddRef bdd_from_truth_table(BddManager& mgr, const TruthTable& tt,
                            const std::vector<BddRef>& args);

/// The same expansion on TruthTable cofactors, for any variable count. It
/// makes the same ite calls in the same order as the word path.
BddRef bdd_from_truth_table_generic(BddManager& mgr, const TruthTable& tt,
                                    const std::vector<BddRef>& args);

/// True if the two netlists compute identical functions at corresponding
/// outputs. They must have the same number of inputs and outputs; inputs
/// correspond positionally.
bool functionally_equivalent(const Netlist& a, const Netlist& b);

}  // namespace powder
