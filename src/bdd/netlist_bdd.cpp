#include "bdd/netlist_bdd.hpp"

#include <cstdint>

#include "util/check.hpp"

namespace powder {

namespace {

/// The expansion of bdd_from_truth_table_generic on a table of at most six
/// variables held in one word (`full` has the table's minterm bits set):
/// the same tests, cofactors and ite calls in the same order.
BddRef word_expansion(BddManager& mgr, std::uint64_t f, std::uint64_t full,
                      int var, const std::vector<BddRef>& args) {
  if (f == 0) return kBddFalse;
  if (f == full) return kBddTrue;
  POWDER_DCHECK(var >= 0);
  const std::uint64_t m0 = kVarMask0[var];
  const int shift = 1 << var;
  const std::uint64_t half0 = f & m0;
  const std::uint64_t half1 = (f >> shift) & m0;
  const std::uint64_t f0 = half0 | half0 << shift;
  if (half0 == half1) return word_expansion(mgr, f0, full, var - 1, args);
  const BddRef lo = word_expansion(mgr, f0, full, var - 1, args);
  const BddRef hi =
      word_expansion(mgr, half1 | half1 << shift, full, var - 1, args);
  return mgr.ite(args[static_cast<std::size_t>(var)], hi, lo);
}

}  // namespace

BddRef bdd_from_truth_table(BddManager& mgr, const TruthTable& tt,
                            const std::vector<BddRef>& args) {
  const int n = tt.num_vars();
  if (n > 6) return bdd_from_truth_table_generic(mgr, tt, args);
  POWDER_CHECK(static_cast<int>(args.size()) == n);
  const std::uint64_t full = n == 6 ? ~0ull : (1ull << (1u << n)) - 1;
  return word_expansion(mgr, tt.words()[0], full, n - 1, args);
}

BddRef bdd_from_truth_table_generic(BddManager& mgr, const TruthTable& tt,
                                    const std::vector<BddRef>& args) {
  POWDER_CHECK(static_cast<int>(args.size()) == tt.num_vars());
  // Shannon expansion over the truth table's variables, highest first so
  // the recursion can work on plain cofactors.
  auto rec = [&](auto&& self, const TruthTable& f, int var) -> BddRef {
    if (f.is_constant(false)) return kBddFalse;
    if (f.is_constant(true)) return kBddTrue;
    POWDER_DCHECK(var >= 0);
    if (!f.depends_on(var)) return self(self, f.cofactor(var, false), var - 1);
    const BddRef lo = self(self, f.cofactor(var, false), var - 1);
    const BddRef hi = self(self, f.cofactor(var, true), var - 1);
    return mgr.ite(args[static_cast<std::size_t>(var)], hi, lo);
  };
  return rec(rec, tt, tt.num_vars() - 1);
}

NetlistBdds::NetlistBdds(const Netlist& netlist)
    : manager(netlist.num_inputs()),
      gate_function(netlist.num_slots(), kBddFalse) {
  for (int i = 0; i < netlist.num_inputs(); ++i)
    gate_function[netlist.inputs()[static_cast<std::size_t>(i)]] =
        manager.var(i);

  std::vector<BddRef> args;
  for (GateId g : netlist.topo_order()) {
    switch (netlist.kind(g)) {
      case GateKind::kInput:
        break;  // already set
      case GateKind::kOutput:
        gate_function[g] = gate_function[netlist.fanin(g, 0)];
        break;
      case GateKind::kCell: {
        args.clear();
        for (GateId fi : netlist.fanins(g)) args.push_back(gate_function[fi]);
        gate_function[g] =
            bdd_from_truth_table(manager, netlist.cell_of(g).function, args);
        break;
      }
    }
  }
}

bool functionally_equivalent(const Netlist& a, const Netlist& b) {
  POWDER_CHECK(a.num_inputs() == b.num_inputs());
  POWDER_CHECK(a.num_outputs() == b.num_outputs());
  // Build both circuits in one manager so equality is pointer equality.
  BddManager mgr(a.num_inputs());

  std::vector<BddRef> args;
  auto build = [&](const Netlist& n) {
    std::vector<BddRef> fn(n.num_slots(), kBddFalse);
    for (int i = 0; i < n.num_inputs(); ++i)
      fn[n.inputs()[static_cast<std::size_t>(i)]] = mgr.var(i);
    for (GateId g : n.topo_order()) {
      if (n.kind(g) == GateKind::kOutput) {
        fn[g] = fn[n.fanin(g, 0)];
      } else if (n.kind(g) == GateKind::kCell) {
        args.clear();
        for (GateId fi : n.fanins(g)) args.push_back(fn[fi]);
        fn[g] = bdd_from_truth_table(mgr, n.cell_of(g).function, args);
      }
    }
    std::vector<BddRef> outs;
    for (GateId o : n.outputs()) outs.push_back(fn[o]);
    return outs;
  };

  const std::vector<BddRef> oa = build(a);
  const std::vector<BddRef> ob = build(b);
  return oa == ob;
}

}  // namespace powder
