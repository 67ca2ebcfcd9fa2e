// Tests for the netlist data structure: construction, rewiring primitives,
// dead-logic sweeping, MFFC, the consistency checker, and shared library
// ownership (a helper-built netlist must keep its CellLibrary alive).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "mapper/mapper.hpp"
#include "netlist/netlist.hpp"
#include "opt/power_gain.hpp"
#include "opt/selection.hpp"
#include "powder.hpp"
#include "power/power.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace powder {

/// Moves the in_tfo stamp epoch so a test can make it wrap.
struct NetlistTestAccess {
  static void set_tfo_epoch(const Netlist& nl, std::uint32_t epoch) {
    nl.tfo_epoch_ = epoch;
  }
  static std::uint32_t tfo_epoch(const Netlist& nl) { return nl.tfo_epoch_; }
};

namespace {

class NetlistTest : public ::testing::Test {
 protected:
  NetlistTest() : lib_(CellLibrary::standard()), nl_(&lib_, "t") {}

  CellLibrary lib_;
  Netlist nl_;

  CellId cell(const char* name) { return lib_.find(name); }
};

TEST_F(NetlistTest, BuildSmallCircuit) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId g = nl_.add_gate(cell("and2"), {a, b}, "g");
  const GateId o = nl_.add_output("f", g);
  EXPECT_EQ(nl_.num_inputs(), 2);
  EXPECT_EQ(nl_.num_outputs(), 1);
  EXPECT_EQ(nl_.num_cells(), 1);
  EXPECT_EQ(nl_.fanouts(g).size(), 1u);
  EXPECT_EQ(nl_.fanin(o, 0), g);
  nl_.check_consistency();
}

TEST_F(NetlistTest, SignalCapSumsFanoutPins) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId x = nl_.add_gate(cell("xor2"), {a, b});   // pin cap 2 each
  const GateId g = nl_.add_gate(cell("and2"), {a, x});   // pin cap 1 each
  nl_.add_output("f", g, 1.5);
  // a drives one xor pin (2) + one and pin (1).
  EXPECT_DOUBLE_EQ(nl_.signal_cap(a), 3.0);
  EXPECT_DOUBLE_EQ(nl_.signal_cap(x), 1.0);
  EXPECT_DOUBLE_EQ(nl_.signal_cap(g), 1.5);  // PO load
}

TEST_F(NetlistTest, SetFaninRewiresAndMaintainsFanout) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId c = nl_.add_input("c");
  const GateId g = nl_.add_gate(cell("and2"), {a, b});
  nl_.add_output("f", g);
  nl_.set_fanin(g, 0, c);
  EXPECT_EQ(nl_.fanin(g, 0), c);
  EXPECT_TRUE(nl_.fanouts(a).empty());
  EXPECT_EQ(nl_.fanouts(c).size(), 1u);
  nl_.check_consistency();
}

TEST_F(NetlistTest, SetFaninRejectsCycles) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId g1 = nl_.add_gate(cell("and2"), {a, b});
  const GateId g2 = nl_.add_gate(cell("or2"), {g1, b});
  nl_.add_output("f", g2);
  EXPECT_THROW(nl_.set_fanin(g1, 0, g2), CheckError);
}

TEST_F(NetlistTest, ReplaceAllFanouts) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId g1 = nl_.add_gate(cell("and2"), {a, b});
  const GateId g2 = nl_.add_gate(cell("or2"), {a, b});
  const GateId g3 = nl_.add_gate(cell("nand2"), {g1, b});
  const GateId g4 = nl_.add_gate(cell("nor2"), {g1, g1});
  nl_.add_output("f", g3);
  nl_.add_output("h", g4);
  nl_.replace_all_fanouts(g1, g2);
  EXPECT_TRUE(nl_.fanouts(g1).empty());
  EXPECT_EQ(nl_.fanouts(g2).size(), 3u);
  EXPECT_EQ(nl_.fanin(g3, 0), g2);
  EXPECT_EQ(nl_.fanin(g4, 0), g2);
  EXPECT_EQ(nl_.fanin(g4, 1), g2);
  nl_.check_consistency();
}

TEST_F(NetlistTest, RemoveGateRecursiveSweepsCone) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId c = nl_.add_input("c");
  const GateId g1 = nl_.add_gate(cell("and2"), {a, b});
  const GateId g2 = nl_.add_gate(cell("inv1"), {g1});
  const GateId g3 = nl_.add_gate(cell("or2"), {g2, c});
  const GateId keep = nl_.add_gate(cell("and2"), {a, c});
  nl_.add_output("f", keep);
  // g3 has no fanout: removing it should cascade through g2, g1 but spare
  // shared inputs and the kept gate.
  const auto removed = nl_.remove_gate_recursive(g3);
  EXPECT_EQ(removed.size(), 3u);
  EXPECT_FALSE(nl_.alive(g1));
  EXPECT_FALSE(nl_.alive(g2));
  EXPECT_FALSE(nl_.alive(g3));
  EXPECT_TRUE(nl_.alive(keep));
  EXPECT_TRUE(nl_.alive(a));
  nl_.check_consistency();
}

TEST_F(NetlistTest, SweepDeadFindsAllDanglers) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId used = nl_.add_gate(cell("and2"), {a, b});
  (void)nl_.add_gate(cell("or2"), {a, b});  // dead
  (void)nl_.add_gate(cell("xor2"), {a, b});  // dead
  nl_.add_output("f", used);
  EXPECT_EQ(nl_.sweep_dead().size(), 2u);
  EXPECT_EQ(nl_.num_cells(), 1);
  nl_.check_consistency();
}

TEST_F(NetlistTest, MffcStopsAtSharedLogic) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId shared = nl_.add_gate(cell("and2"), {a, b});
  const GateId only = nl_.add_gate(cell("inv1"), {shared});
  const GateId top = nl_.add_gate(cell("or2"), {only, shared});
  nl_.add_output("f", top);
  const auto cone = nl_.mffc(top);
  // top and only die with top; shared survives (feeds... nothing else
  // after top dies, actually shared has two fanouts both inside the cone).
  std::vector<GateId> expect{top, only, shared};
  EXPECT_EQ(cone.size(), 3u);
  for (GateId g : expect)
    EXPECT_NE(std::find(cone.begin(), cone.end(), g), cone.end());
}

TEST_F(NetlistTest, MffcExcludesExternallyUsedGates) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId shared = nl_.add_gate(cell("and2"), {a, b});
  const GateId top = nl_.add_gate(cell("inv1"), {shared});
  nl_.add_output("f", top);
  nl_.add_output("g", shared);  // external use of shared
  const auto cone = nl_.mffc(top);
  EXPECT_EQ(cone.size(), 1u);
  EXPECT_EQ(cone[0], top);
}

TEST_F(NetlistTest, TfoAndInTfo) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId g1 = nl_.add_gate(cell("and2"), {a, b});
  const GateId g2 = nl_.add_gate(cell("inv1"), {g1});
  const GateId g3 = nl_.add_gate(cell("or2"), {a, b});
  nl_.add_output("f", g2);
  nl_.add_output("h", g3);
  EXPECT_TRUE(nl_.in_tfo(g1, g2));
  EXPECT_FALSE(nl_.in_tfo(g2, g1));
  EXPECT_FALSE(nl_.in_tfo(g1, g3));
  EXPECT_FALSE(nl_.in_tfo(g1, g1));
  const auto t = nl_.tfo(a);
  EXPECT_EQ(t.size(), 5u);  // g1, g2, g3 and two POs
}

// in_tfo stamps each call with a fresh epoch instead of clearing its
// table; when the epoch wraps the table is cleared once, so the stamps the
// calls before the wrap left must not read as "seen" afterwards.
TEST_F(NetlistTest, InTfoSurvivesStampWrap) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId g1 = nl_.add_gate(cell("and2"), {a, b});
  const GateId g2 = nl_.add_gate(cell("inv1"), {g1});
  const GateId g3 = nl_.add_gate(cell("or2"), {g2, b});
  nl_.add_output("f", g3);
  auto expect_reachability = [&] {
    EXPECT_TRUE(nl_.in_tfo(a, g3));
    EXPECT_TRUE(nl_.in_tfo(g1, g3));
    EXPECT_FALSE(nl_.in_tfo(g2, g1));
    EXPECT_FALSE(nl_.in_tfo(g3, a));
  };
  // The first call stamps a, g1 and g2 with epoch 1.
  EXPECT_TRUE(nl_.in_tfo(a, g3));
  EXPECT_EQ(NetlistTestAccess::tfo_epoch(nl_), 1u);
  // Run the epoch up to its last value, then wrap: epoch 1 comes round
  // again and must walk past the gates the first call stamped.
  NetlistTestAccess::set_tfo_epoch(nl_,
                                   std::numeric_limits<std::uint32_t>::max() - 1);
  EXPECT_FALSE(nl_.in_tfo(g3, a));  // the last epoch before the wrap
  EXPECT_TRUE(nl_.in_tfo(a, g3));   // wraps to epoch 1
  EXPECT_EQ(NetlistTestAccess::tfo_epoch(nl_), 1u);
  expect_reachability();
}

// mffc_cone answers the same cone as mffc, plus O(1) membership.
TEST_F(NetlistTest, MffcConeMatchesMffcAndAnswersMembership) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId shared = nl_.add_gate(cell("and2"), {a, b});
  const GateId only = nl_.add_gate(cell("inv1"), {shared});
  const GateId top = nl_.add_gate(cell("or2"), {only, shared});
  nl_.add_output("f", top);
  auto gates = [](const Netlist::MffcCone& cone) {
    return std::vector<GateId>(cone.gates().begin(), cone.gates().end());
  };
  const std::vector<GateId> whole = nl_.mffc(top);
  const Netlist::MffcCone cone = nl_.mffc_cone(top);
  EXPECT_EQ(gates(cone), whole);
  for (GateId g : {top, only, shared}) EXPECT_TRUE(cone.contains(g));
  EXPECT_FALSE(cone.contains(a));
  // Keeping `only` alive also keeps `shared`, which feeds it.
  const std::vector<GateId> kept{only};
  const std::vector<GateId> pruned = nl_.mffc(top, kept);
  const Netlist::MffcCone small = nl_.mffc_cone(top, kept);
  EXPECT_EQ(gates(small), pruned);
  EXPECT_EQ(pruned, std::vector<GateId>{top});
  EXPECT_TRUE(small.contains(top));
  EXPECT_FALSE(small.contains(only));
  EXPECT_FALSE(small.contains(shared));
  EXPECT_TRUE(nl_.mffc_cone(a).gates().empty());  // PIs have no MFFC
}

TEST_F(NetlistTest, TopoOrderRespectsDependencies) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId g1 = nl_.add_gate(cell("and2"), {a, b});
  const GateId g2 = nl_.add_gate(cell("inv1"), {g1});
  nl_.add_output("f", g2);
  const auto order = nl_.topo_order();
  std::vector<std::size_t> pos(nl_.num_slots());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  EXPECT_LT(pos[a], pos[g1]);
  EXPECT_LT(pos[b], pos[g1]);
  EXPECT_LT(pos[g1], pos[g2]);
}

TEST_F(NetlistTest, TotalAreaTracksLiveGates) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId g = nl_.add_gate(cell("and2"), {a, b});
  const GateId dead = nl_.add_gate(cell("xor2"), {a, b});
  nl_.add_output("f", g);
  const double with_dead = nl_.total_area();
  nl_.remove_gate_recursive(dead);
  EXPECT_DOUBLE_EQ(nl_.total_area(),
                   with_dead - lib_.cell_by_name("xor2").area);
}

TEST_F(NetlistTest, GenerationBumpsOnMutation) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const auto g0 = nl_.generation();
  const GateId g = nl_.add_gate(cell("and2"), {a, b});
  EXPECT_GT(nl_.generation(), g0);
  const auto g1 = nl_.generation();
  nl_.add_output("f", g);
  EXPECT_GT(nl_.generation(), g1);
}

TEST_F(NetlistTest, ArityMismatchThrows) {
  const GateId a = nl_.add_input("a");
  EXPECT_THROW(nl_.add_gate(cell("and2"), {a}), CheckError);
}

// The selection memo (opt/selection.hpp) keeps a candidate's PG_A across
// commits unless a gate it read changed. A cell the MFFC walk left outside
// the cone because it had another fanout is such a read: removing that
// other fanout pulls the cell into the cone, so the candidate must be
// re-scored. A change to a gate the walk read only by value (a primary
// input) that moves no value must not re-score it.
TEST_F(NetlistTest, LostFanoutPullsBoundaryCellIntoCandidateMffc) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId c = nl_.add_input("c");
  const GateId g = nl_.add_gate(cell("and2"), {a, b}, "g");
  const GateId t = nl_.add_gate(cell("nand2"), {g, c}, "t");
  nl_.add_output("f", t);
  // Dangling: g's other fanout, and a gate the candidate does not read.
  const GateId y = nl_.add_gate(cell("inv1"), {g}, "y");
  const GateId w = nl_.add_gate(cell("inv1"), {a}, "w");
  Simulator sim(nl_, 256);
  PowerEstimator est(&sim);

  CandidateSub sub;
  sub.cls = ResubClass::kOS2;
  sub.target = t;
  sub.rep.kind = ReplacementFunction::Kind::kConstant;
  std::vector<CandidateSub> cands{sub};
  const PowderOptions opt;
  SelectionMemo memo(nl_, est);
  SelectionStats stats;
  const auto keep = [](const CandidateSub&) { return true; };
  (void)select_power_red_subst(memo, &cands, opt, keep, &stats);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(memo.live(cands), 1u);
  EXPECT_EQ(nl_.mffc(t), std::vector<GateId>{t});  // g still feeds y
  const double before = cands[0].pg_a;

  // Drop y: g is left feeding t alone.
  nl_.remove_single_gate(y);
  est.refresh();
  (void)select_power_red_subst(memo, &cands, opt, keep, &stats);
  EXPECT_EQ(stats.rescored, 2);
  EXPECT_EQ(stats.reused, 0);
  EXPECT_EQ(nl_.mffc(t).size(), 2u);
  EXPECT_GT(cands[0].pg_a, before);
  EXPECT_EQ(cands[0].pg_a, compute_pg_a(nl_, est, cands[0]));

  // Drop w: the primary input a loses a fanout, but a is read by value
  // only and no value moves.
  nl_.remove_single_gate(w);
  est.refresh();
  (void)select_power_red_subst(memo, &cands, opt, keep, &stats);
  EXPECT_EQ(stats.rescored, 2);
  EXPECT_EQ(stats.reused, 1);
  EXPECT_EQ(cands[0].pg_a, compute_pg_a(nl_, est, cands[0]));
}

// in_tfo walks only the gates placed before the descendant in the cached
// topological order; it must agree with the full transitive fanout, both
// with the cache current and right after a mutation made it stale.
TEST(InTfo, AgreesWithTransitiveFanout) {
  const CellLibrary lib = CellLibrary::standard();
  Netlist nl = map_aig(make_benchmark("comp"), lib);
  auto check_all_pairs = [&](const char* when) {
    for (GateId a = 0; a < nl.num_slots(); ++a) {
      if (!nl.alive(a)) continue;
      std::vector<std::uint8_t> reach(nl.num_slots(), 0);
      for (const GateId g : nl.tfo(a)) reach[g] = 1;
      for (GateId d = 0; d < nl.num_slots(); ++d) {
        if (!nl.alive(d)) continue;
        ASSERT_EQ(nl.in_tfo(a, d), reach[d] != 0)
            << when << ": " << a << " -> " << d;
      }
    }
  };
  (void)nl.topo_order();
  check_all_pairs("topological order current");
  // Rewire a pin to a gate that comes later in the order; the cached order
  // is stale until the next topo_order().
  const GateId out = nl.outputs()[0];
  const GateId late = nl.fanin(out, 0);
  for (GateId g : nl.topo_order()) {
    if (nl.kind(g) != GateKind::kCell || g == late || nl.in_tfo(g, late))
      continue;
    nl.set_fanin(g, 0, late);
    break;
  }
  check_all_pairs("topological order stale");
  (void)nl.topo_order();
  check_all_pairs("topological order recomputed");
}

TEST(LibraryOwnership, HelperBuiltNetlistKeepsLibraryAlive) {
  // Regression for the dangling-CellLibrary footgun: the library handle
  // created inside the helper dies with the helper's scope; the netlist
  // (and copies of it) must keep the cells reachable on their own.
  std::optional<Netlist> nl;
  {
    const auto lib = CellLibrary::standard_shared();
    Netlist built = map_aig(make_benchmark("comp"), *lib);
    built.adopt_library(lib);
    nl = std::move(built);
  }
  ASSERT_NE(nl->library_owner(), nullptr);
  EXPECT_GT(nl->total_area(), 0.0);

  Netlist copy = *nl;  // ownership travels with copies
  nl.reset();
  ASSERT_NE(copy.library_owner(), nullptr);
  const PowderReport r = optimize(
      copy,
      PowderOptions::builder().patterns(256).repeat(2).max_outer_iterations(1)
          .build());
  EXPECT_FALSE(r.diagnostics.guard_failed);
}

}  // namespace
}  // namespace powder
