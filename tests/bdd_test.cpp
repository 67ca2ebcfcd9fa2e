// Tests for the BDD package and the netlist->BDD bridge.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/netlist_bdd.hpp"
#include "util/rng.hpp"

namespace powder {
namespace {

TEST(Bdd, TerminalRules) {
  BddManager mgr(3);
  const BddRef a = mgr.var(0);
  EXPECT_EQ(mgr.bdd_and(a, kBddTrue), a);
  EXPECT_EQ(mgr.bdd_and(a, kBddFalse), kBddFalse);
  EXPECT_EQ(mgr.bdd_or(a, kBddFalse), a);
  EXPECT_EQ(mgr.bdd_not(mgr.bdd_not(a)), a);
  EXPECT_EQ(mgr.bdd_xor(a, a), kBddFalse);
  EXPECT_EQ(mgr.bdd_and(a, mgr.bdd_not(a)), kBddFalse);
}

TEST(Bdd, CanonicityGivesPointerEquality) {
  BddManager mgr(3);
  const BddRef a = mgr.var(0), b = mgr.var(1), c = mgr.var(2);
  // (a & b) | (a & c) == a & (b | c)
  const BddRef lhs = mgr.bdd_or(mgr.bdd_and(a, b), mgr.bdd_and(a, c));
  const BddRef rhs = mgr.bdd_and(a, mgr.bdd_or(b, c));
  EXPECT_EQ(lhs, rhs);
  // De Morgan.
  EXPECT_EQ(mgr.bdd_not(mgr.bdd_and(a, b)),
            mgr.bdd_or(mgr.bdd_not(a), mgr.bdd_not(b)));
}

TEST(Bdd, EvaluateMatchesSemantics) {
  BddManager mgr(3);
  const BddRef f = mgr.bdd_or(mgr.bdd_and(mgr.var(0), mgr.var(1)),
                              mgr.bdd_not(mgr.var(2)));
  for (std::uint64_t m = 0; m < 8; ++m) {
    const bool expect = ((m & 1) && (m & 2)) || !(m & 4);
    EXPECT_EQ(mgr.evaluate(f, m), expect) << m;
  }
}

TEST(Bdd, SatCount) {
  BddManager mgr(4);
  const BddRef a = mgr.var(0), b = mgr.var(1);
  EXPECT_EQ(mgr.sat_count(mgr.bdd_and(a, b)), 4u);   // 2^2 completions
  EXPECT_EQ(mgr.sat_count(mgr.bdd_or(a, b)), 12u);
  EXPECT_EQ(mgr.sat_count(kBddTrue), 16u);
  EXPECT_EQ(mgr.sat_count(kBddFalse), 0u);
}

TEST(Bdd, WeightedProbability) {
  BddManager mgr(2);
  const BddRef f = mgr.bdd_and(mgr.var(0), mgr.var(1));
  EXPECT_DOUBLE_EQ(mgr.probability(f, {0.5, 0.5}), 0.25);
  EXPECT_DOUBLE_EQ(mgr.probability(f, {0.1, 0.9}), 0.09);
  const BddRef x = mgr.bdd_xor(mgr.var(0), mgr.var(1));
  EXPECT_DOUBLE_EQ(mgr.probability(x, {0.1, 0.9}),
                   0.1 * 0.1 + 0.9 * 0.9);
}

TEST(Bdd, RandomEquivalenceWithTruthTables) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    TruthTable f(4);
    for (std::uint64_t m = 0; m < 16; ++m) f.set_bit(m, rng.flip(0.5));
    BddManager mgr(4);
    std::vector<BddRef> args{mgr.var(0), mgr.var(1), mgr.var(2), mgr.var(3)};
    const BddRef r = bdd_from_truth_table(mgr, f, args);
    for (std::uint64_t m = 0; m < 16; ++m)
      EXPECT_EQ(mgr.evaluate(r, m), f.bit(m));
  }
}

// bdd_from_truth_table expands a table of at most six variables on its one
// word; it must make the generic path's ite calls in the same order. Both
// paths get the same arguments — projections and composite functions — in
// fresh managers (the same refs and node counts show the same calls) and in
// one manager (the second build finds every node the first made).
TEST(NetlistBdd, WordExpansionMatchesGenericPath) {
  constexpr int kVars = 8;
  auto expect_same = [](const TruthTable& tt, int shape,
                        const std::string& what) {
    auto make_args = [&](BddManager& mgr) {
      std::vector<BddRef> args;
      for (int i = 0; i < tt.num_vars(); ++i) {
        const BddRef v = mgr.var(i);
        if (shape == 0)
          args.push_back(v);
        else if (shape == 1)
          args.push_back(mgr.bdd_xor(v, mgr.var(kVars - 1 - i)));
        else
          args.push_back(mgr.bdd_and(mgr.var((i + 3) % kVars),
                                     mgr.bdd_not(v)));
      }
      return args;
    };
    BddManager word_mgr(kVars), generic_mgr(kVars);
    const std::vector<BddRef> word_args = make_args(word_mgr);
    const std::vector<BddRef> generic_args = make_args(generic_mgr);
    const BddRef w = bdd_from_truth_table(word_mgr, tt, word_args);
    const BddRef g =
        bdd_from_truth_table_generic(generic_mgr, tt, generic_args);
    EXPECT_EQ(w, g) << what;
    EXPECT_EQ(word_mgr.num_nodes(), generic_mgr.num_nodes()) << what;
    const std::size_t nodes = word_mgr.num_nodes();
    EXPECT_EQ(bdd_from_truth_table_generic(word_mgr, tt, word_args), w)
        << what;
    EXPECT_EQ(word_mgr.num_nodes(), nodes) << what;
  };
  const CellLibrary lib = CellLibrary::standard();
  for (const Cell& cell : lib.cells())
    for (int shape = 0; shape < 3; ++shape)
      expect_same(cell.function, shape, cell.name);
  Rng rng(11);
  for (int n = 0; n <= 6; ++n) {
    for (int trial = 0; trial < 40; ++trial) {
      TruthTable tt(n);
      // Sparse, dense and even tables: constants and don't-care variables
      // take the expansion's early exits.
      const double p = trial % 4 == 0 ? 0.05 : trial % 4 == 1 ? 0.95 : 0.5;
      for (std::uint64_t m = 0; m < tt.num_minterms_capacity(); ++m)
        tt.set_bit(m, rng.flip(p));
      expect_same(tt, trial % 3,
                  std::to_string(n) + " vars, trial " + std::to_string(trial));
    }
  }
}

TEST(NetlistBdd, GateFunctions) {
  CellLibrary lib = CellLibrary::standard();
  Netlist nl(&lib, "t");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId x = nl.add_gate(lib.find("xor2"), {a, b});
  const GateId g = nl.add_gate(lib.find("and2"), {x, a});
  nl.add_output("f", g);
  NetlistBdds bdds(nl);
  for (std::uint64_t m = 0; m < 4; ++m) {
    const bool va = m & 1, vb = (m >> 1) & 1;
    EXPECT_EQ(bdds.manager.evaluate(bdds.gate_function[x], m), va != vb);
    EXPECT_EQ(bdds.manager.evaluate(bdds.gate_function[g], m),
              (va != vb) && va);
  }
}

TEST(NetlistBdd, FunctionalEquivalence) {
  CellLibrary lib = CellLibrary::standard();
  // f = !(a & b) built two ways.
  Netlist n1(&lib, "n1");
  {
    const GateId a = n1.add_input("a");
    const GateId b = n1.add_input("b");
    const GateId g = n1.add_gate(lib.find("nand2"), {a, b});
    n1.add_output("f", g);
  }
  Netlist n2(&lib, "n2");
  {
    const GateId a = n2.add_input("a");
    const GateId b = n2.add_input("b");
    const GateId g = n2.add_gate(lib.find("and2"), {a, b});
    const GateId i = n2.add_gate(lib.find("inv1"), {g});
    n2.add_output("f", i);
  }
  EXPECT_TRUE(functionally_equivalent(n1, n2));

  Netlist n3(&lib, "n3");
  {
    const GateId a = n3.add_input("a");
    const GateId b = n3.add_input("b");
    const GateId g = n3.add_gate(lib.find("nor2"), {a, b});
    n3.add_output("f", g);
  }
  EXPECT_FALSE(functionally_equivalent(n1, n3));
}

}  // namespace
}  // namespace powder
