// Parity oracle for the copy-free delay check (DESIGN.md §6): the overlay
// behind IncrementalTiming::trial_delay must give the circuit delay and the
// verdict, bit for bit, that the straightforward evaluation it replaces
// gives — copy the netlist, apply the candidate, and time the copy (with a
// seeded incremental STA and with a full analyze_timing). plan_substitution
// is checked against what apply_substitution actually did.
//
// Inputs: every candidate a greedy loop (select → delay check → proof →
// commit, the optimizer's order) brings to the delay check on the quick
// suite and on scale500, again after a commit/rollback storm, and a set of
// constructed edits, each of which asserts that its corner case occurs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "atpg/atpg.hpp"
#include "benchgen/benchmarks.hpp"
#include "mapper/mapper.hpp"
#include "opt/candidates.hpp"
#include "opt/journal.hpp"
#include "opt/selection.hpp"
#include "opt/substitution.hpp"
#include "powder.hpp"
#include "power/power.hpp"
#include "sim/simulator.hpp"
#include "timing/incremental_timing.hpp"
#include "timing/timing.hpp"

namespace powder {
namespace {

const CellLibrary& lib() {
  static const CellLibrary* kLib = new CellLibrary(CellLibrary::standard());
  return *kLib;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool over(double delay, double limit) { return delay > limit + 1e-9; }

/// What one delay check saw; the constructed cases assert on it.
struct Checked {
  EditPlan plan;
  AppliedSub applied;
  double delay = 0.0;
  bool violates = false;
};

/// Runs the delay check both ways and compares them. `timing` observes
/// `nl`; `limit` is the absolute delay limit.
Checked check_parity(const Netlist& nl, IncrementalTiming& timing,
                     const CandidateSub& sub, double limit,
                     const std::string& label) {
  Checked out;
  (void)timing.circuit_delay();
  out.plan = plan_substitution(nl, sub);
  out.delay = timing.trial_delay(out.plan);
  out.violates = over(out.delay, limit);

  // The reference: a scratch copy with the candidate applied.
  Netlist scratch = nl;
  IncrementalTiming seeded(scratch, timing);
  out.applied = apply_substitution(scratch, sub);
  const double seeded_delay = seeded.circuit_delay();
  const double full = analyze_timing(scratch).circuit_delay;
  EXPECT_TRUE(same_bits(seeded_delay, full)) << label;
  EXPECT_TRUE(same_bits(out.delay, full))
      << label << ": target " << sub.target << " overlay " << out.delay
      << " reference " << full;
  EXPECT_EQ(out.violates, over(full, limit)) << label;

  EXPECT_EQ(out.plan.new_gate, out.applied.new_gate) << label;
  EXPECT_EQ(out.plan.rewired_pins.size(), out.applied.rewired_pins.size())
      << label;
  for (std::size_t i = 0; i < out.plan.rewired_pins.size() &&
                          i < out.applied.rewired_pins.size();
       ++i) {
    const RewiredPin& p = out.plan.rewired_pins[i];
    const RewiredPin& a = out.applied.rewired_pins[i];
    EXPECT_TRUE(p.sink == a.sink && p.pin == a.pin &&
                p.old_driver == a.old_driver && p.new_driver == a.new_driver)
        << label << ": rewired pin " << i;
  }
  std::vector<GateId> planned = out.plan.removed_gates;
  std::vector<GateId> removed = out.applied.removed_gates;
  std::sort(planned.begin(), planned.end());
  std::sort(removed.begin(), removed.end());
  EXPECT_EQ(planned, removed) << label;
  return out;
}

/// A pi probability profile (layout_parity_test's).
std::vector<double> pi_profile(int n) {
  std::vector<double> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    p[static_cast<std::size_t>(i)] = 0.2 + 0.6 * ((i * 7919) % 101) / 100.0;
  return p;
}

/// layout_parity_test's options: 512 patterns, seed 42, limit factor 1.15.
PowderOptions parity_options(int num_inputs, double factor) {
  return PowderOptions::builder()
      .patterns(512)
      .seed(42)
      .delay_limit_factor(factor)
      .pi_probs(pi_profile(num_inputs))
      .build();
}

/// A greedy loop over one netlist that runs check_parity on every pick.
struct GreedyBench {
  GreedyBench(Netlist netlist, double factor)
      : nl(std::move(netlist)),
        opt(parity_options(nl.num_inputs(), factor)),
        sim(nl, opt.num_patterns, opt.pi_probs, opt.seed),
        est(&sim),
        finder(nl, est, opt.candidates, opt.seed),
        timing(nl),
        journal(&nl) {
    limit = timing.circuit_delay() * factor;
  }

  /// Runs up to `iterations` harvests. In each, picks are delay-checked
  /// both ways; with `commit`, picks that pass and are proved permissible
  /// are committed, as the optimizer does.
  void run(int iterations, bool commit, const std::string& label) {
    for (int it = 0; it < iterations; ++it) {
      est.refresh();
      std::vector<CandidateSub> cands = finder.find();
      SelectionMemo memo(nl, est);
      int commits = 0;
      for (;;) {
        const std::size_t best = select_power_red_subst(
            memo, &cands, opt,
            [&](const CandidateSub& c) {
              return substitution_still_valid(nl, c);
            },
            &stats);
        if (best >= cands.size()) break;
        // The optimizer's way: a tombstone, which a round at an unchanged
        // epoch leaves in the list.
        const CandidateSub chosen = take_pick(memo, &cands, best);
        ++checks;
        if (check_parity(nl, timing, chosen, limit, label).violates) {
          ++rejected;
          continue;
        }
        if (!commit) continue;
        AtpgChecker atpg(nl);
        if (atpg.check_replacement(chosen.site(), chosen.rep) !=
            AtpgResult::kUntestable)
          continue;
        journal.apply(chosen);
        est.refresh();
        ++commits;
      }
      if (commits == 0) break;
    }
  }

  Netlist nl;
  PowderOptions opt;
  Simulator sim;
  PowerEstimator est;
  CandidateFinder finder;
  IncrementalTiming timing;
  SubstJournal journal;
  SelectionStats stats;
  double limit = 0.0;
  long checks = 0;
  long rejected = 0;
};

class DelayParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DelayParityTest, GreedyPicksMatchScratchCopy) {
  GreedyBench b(map_aig(make_benchmark(GetParam()), lib()), 1.15);
  b.run(4, /*commit=*/true, GetParam());
  EXPECT_GT(b.checks, 0);
  EXPECT_GT(b.journal.size(), 0u);
}

TEST_P(DelayParityTest, PicksMatchAfterCommitRollbackStorm) {
  GreedyBench b(map_aig(make_benchmark(GetParam()), lib()), 1.15);
  b.run(2, /*commit=*/true, GetParam());
  // Roll half the commits back (reviving swept slots), then check a whole
  // selection pass without committing, then commit on top again.
  const std::size_t undo = b.journal.size() / 2;
  for (std::size_t i = 0; i < undo; ++i) b.journal.rollback_last();
  const long before = b.checks;
  b.run(1, /*commit=*/false, GetParam() + " after rollback");
  EXPECT_GT(b.checks, before);
  b.run(2, /*commit=*/true, GetParam() + " after storm");
}

INSTANTIATE_TEST_SUITE_P(QuickSuite, DelayParityTest,
                         ::testing::ValuesIn(quick_suite()),
                         [](const auto& info) { return info.param; });

TEST(DelayParityScaleTest, Scale500PicksMatchScratchCopy) {
  GreedyBench b(make_scale_netlist(500), 1.0);
  b.run(2, /*commit=*/true, "scale500");
  EXPECT_GT(b.checks, 0);
  EXPECT_GT(b.rejected, 0);
  EXPECT_LT(b.rejected, b.checks);
}

// ---- constructed edits ----------------------------------------------------

/// Cells with fractional pin caps, so the order in which a signal's pin
/// caps are summed changes the rounded load. `and2w` (delay = its load)
/// and the zero-delay `invz` (the library's inverter: least area) and
/// `nand2z` carry such a rounding difference to a PO unchanged.
CellLibrary fractional_library() {
  CellLibrary l;
  auto add = [&](const char* name, std::vector<double> caps, double tau,
                 double r, bool (*fn)(std::uint64_t), double area = 1.0) {
    Cell c;
    c.name = name;
    c.area = area;
    c.intrinsic_delay = tau;
    c.drive_resistance = r;
    for (std::size_t i = 0; i < caps.size(); ++i)
      c.pins.push_back(
          CellPin{std::string(1, static_cast<char>('a' + i)), caps[i]});
    const int n = static_cast<int>(caps.size());
    c.function = TruthTable(n);
    for (std::uint64_t m = 0; m < (1ull << n); ++m)
      c.function.set_bit(m, fn(m));
    l.add(std::move(c));
  };
  auto inv = [](std::uint64_t m) { return (m & 1) == 0; };
  auto nand = [](std::uint64_t m) { return (m & 3) != 3; };
  auto conj = [](std::uint64_t m) { return (m & 3) == 3; };
  add("zero", {}, 0.05, 0.3, [](std::uint64_t) { return false; });
  add("inv", {0.1}, 0.3, 0.7, inv);
  add("invz", {0.1}, 0.0, 0.0, inv, /*area=*/0.5);
  add("buf", {0.3}, 0.2, 0.35, [](std::uint64_t m) { return (m & 1) != 0; });
  add("nand2", {0.2, 0.7}, 0.5, 0.45, nand);
  add("nand2z", {0.2, 0.7}, 0.0, 0.0, nand);
  add("and2", {0.1, 0.2}, 0.8, 0.55, conj);
  add("and2w", {0.1, 0.2}, 0.0, 1.0, conj);
  return l;
}

struct Built {
  explicit Built(const CellLibrary* l) : nl(l) {}
  GateId in(const char* name) { return nl.add_input(name); }
  GateId gate(const char* cell, std::vector<GateId> fanins) {
    return nl.add_gate(nl.library().find(cell), fanins);
  }
  GateId out(GateId driver, double load = 1.0) {
    return nl.add_output("", driver, load);
  }
  Netlist nl;
};

CandidateSub stem(GateId target, ReplacementFunction rep,
                  CellId cell = kInvalidCell) {
  CandidateSub s;
  s.cls = rep.kind == ReplacementFunction::Kind::kTwoInput
              ? ResubClass::kOS3
              : ResubClass::kOS2;
  s.target = target;
  s.rep = std::move(rep);
  s.new_cell = cell;
  return s;
}

CandidateSub branch(GateId target, GateId sink, int pin,
                    ReplacementFunction rep, CellId cell = kInvalidCell) {
  CandidateSub s = stem(target, std::move(rep), cell);
  s.branch = FanoutRef{sink, pin};
  return s;
}

TruthTable nand_fn() {
  TruthTable f(2);
  for (std::uint64_t m = 0; m < 4; ++m) f.set_bit(m, (m & 3) != 3);
  return f;
}

/// True when `g`'s load in `after` rounds differently if its last pin (the
/// one the edit appended) were summed first.
bool appended_pin_order_matters(const Netlist& after, GateId g) {
  const std::span<const FanoutRef> fo = after.fanouts(g);
  double appended_first = after.pin_cap(fo.back().gate, fo.back().pin);
  for (std::size_t i = 0; i + 1 < fo.size(); ++i)
    appended_first += after.pin_cap(fo[i].gate, fo[i].pin);
  return !same_bits(appended_first, after.signal_cap(g));
}

std::size_t topo_pos(const Netlist& nl, GateId g) {
  const std::vector<GateId>& order = nl.topo_order();
  return static_cast<std::size_t>(
      std::find(order.begin(), order.end(), g) - order.begin());
}

/// Checks `sub` on `nl` at a limit equal to the live delay and at one just
/// below it; returns the first check.
Checked check_both_limits(Netlist& nl, const CandidateSub& sub,
                          const std::string& label) {
  IncrementalTiming timing(nl);
  const double live = timing.circuit_delay();
  Checked c = check_parity(nl, timing, sub, live, label);
  const Checked below = check_parity(nl, timing, sub, live * 0.5, label);
  EXPECT_TRUE(below.violates) << label;
  return c;
}

class ConstructedDelayTest : public ::testing::Test {
 protected:
  CellLibrary l = fractional_library();
};

TEST_F(ConstructedDelayTest, ReplacementSourceAfterItsSinkInTopoOrder) {
  Built b(&l);
  const GateId x = b.in("x"), y = b.in("y");
  const GateId t = b.gate("nand2", {x, y});
  const GateId s = b.gate("inv", {t});
  b.out(s);
  const GateId src = b.gate("and2", {x, y});  // created after s
  b.out(src);
  b.out(b.gate("buf", {src}));
  ASSERT_GT(topo_pos(b.nl, src), topo_pos(b.nl, s));
  const Checked c = check_both_limits(
      b.nl, stem(t, ReplacementFunction::signal(src)), "source after sink");
  EXPECT_EQ(c.plan.rewired_pins.front().sink, s);
}

TEST_F(ConstructedDelayTest, InsertedInverterAppendsAfterLivePins) {
  // src's edited load is 0.7 + 0.2 + 0.1 (the inverter pin last), and
  // src's arrival, which is its load, reaches every PO unchanged.
  Built b(&l);
  const GateId x = b.in("x"), y = b.in("y");
  const GateId src = b.gate("and2w", {x, y});
  b.out(src, 0.7);
  b.out(src, 0.2);
  const GateId t = b.gate("nand2", {y, x});
  b.out(t);
  const CandidateSub sub =
      stem(t, ReplacementFunction::signal(src, /*invert=*/true));
  const Checked c = check_both_limits(b.nl, sub, "inserted inverter");
  ASSERT_NE(c.plan.new_gate, kNullGate);
  EXPECT_EQ(c.plan.new_cell, l.find("invz"));
  Netlist after = b.nl;
  (void)apply_substitution(after, sub);
  EXPECT_TRUE(appended_pin_order_matters(after, src));
}

TEST_F(ConstructedDelayTest, InsertedTwoInputGateAppendsAfterLivePins) {
  // p's edited load is 0.7 + 0.1 + 0.2 (the new gate's pin a last); the
  // zero-delay new gate passes p's arrival to the moved POs.
  Built b(&l);
  const GateId x = b.in("x"), y = b.in("y"), z = b.in("z");
  const GateId p = b.gate("and2w", {x, y});
  b.out(p, 0.7);
  b.out(p, 0.1);
  const GateId q = b.gate("and2w", {y, z});
  b.out(q, 0.05);
  const GateId t = b.gate("nand2", {x, z});
  b.out(t);
  b.out(t, 0.3);
  const CandidateSub sub = stem(
      t, ReplacementFunction::two_input(p, q, nand_fn()), l.find("nand2z"));
  const Checked c = check_both_limits(b.nl, sub, "inserted nand2");
  ASSERT_EQ(c.plan.new_fanins, (std::vector<GateId>{p, q}));
  EXPECT_EQ(c.plan.rewired_pins.size(), 2u);
  Netlist after = b.nl;
  (void)apply_substitution(after, sub);
  EXPECT_TRUE(appended_pin_order_matters(after, p));
}

TEST_F(ConstructedDelayTest, InsertedGateReadingTheTargetItself) {
  // A branch of t moves onto nand2(t, z): t loses the branch and gains the
  // new gate's pin, appended after its surviving pins.
  Built b(&l);
  const GateId x = b.in("x"), y = b.in("y"), z = b.in("z");
  const GateId t = b.gate("and2", {x, y});
  const GateId s = b.gate("inv", {t});
  b.out(s);
  b.out(b.gate("buf", {t}));
  b.out(b.gate("nand2", {z, t}));
  const Checked c = check_both_limits(
      b.nl,
      branch(t, s, 0, ReplacementFunction::two_input(t, z, nand_fn()),
             l.find("nand2")),
      "gate reads target");
  EXPECT_TRUE(c.plan.removed_gates.empty());
  EXPECT_EQ(c.plan.new_fanins.front(), t);
}

TEST_F(ConstructedDelayTest, BranchFreeingTheTargetsLastPinSweepsIt) {
  Built b(&l);
  const GateId x = b.in("x"), y = b.in("y");
  const GateId m = b.gate("inv", {x});
  const GateId t = b.gate("nand2", {m, y});  // only fanout: s
  const GateId s = b.gate("nand2", {t, x});
  b.out(s);
  const GateId src = b.gate("and2", {y, x});
  b.out(src);
  const Checked c = check_both_limits(
      b.nl, branch(t, s, 0, ReplacementFunction::signal(src)),
      "branch frees last pin");
  std::vector<GateId> removed = c.plan.removed_gates;
  std::sort(removed.begin(), removed.end());
  EXPECT_EQ(removed, (std::vector<GateId>{m, t}));
}

TEST_F(ConstructedDelayTest, BranchLeavingASecondPinIntoTheSameSink) {
  Built b(&l);
  const GateId x = b.in("x"), y = b.in("y");
  const GateId t = b.gate("and2", {x, y});
  const GateId s = b.gate("nand2", {t, t});
  b.out(s);
  const GateId src = b.gate("inv", {y});
  b.out(src);
  const Checked c = check_both_limits(
      b.nl, branch(t, s, 0, ReplacementFunction::signal(src)),
      "second pin into sink");
  EXPECT_TRUE(c.plan.removed_gates.empty());
  Netlist after = b.nl;
  (void)apply_substitution(after, branch(t, s, 0,
                                         ReplacementFunction::signal(src)));
  ASSERT_EQ(after.num_fanouts(t), 1);
  EXPECT_EQ(after.fanouts(t)[0], (FanoutRef{s, 1}));
}

TEST_F(ConstructedDelayTest, SweptConeWithAFaninOnTheCriticalPath) {
  Built b(&l);
  const GateId x = b.in("x"), y = b.in("y");
  GateId f = x;
  for (int i = 0; i < 6; ++i) f = b.gate("buf", {f});  // the critical chain
  b.out(b.gate("and2", {f, y}));
  const GateId m = b.gate("inv", {f});  // dies with t
  const GateId t = b.gate("nand2", {y, m});
  b.out(b.gate("inv", {t}));
  const GateId src = b.gate("and2", {x, y});
  b.out(src);
  IncrementalTiming timing(b.nl);
  ASSERT_EQ(timing.slack(f), 0.0);  // f is critical
  const Checked c = check_both_limits(
      b.nl, stem(t, ReplacementFunction::signal(src)), "critical fanin");
  ASSERT_NE(std::find(c.plan.removed_gates.begin(),
                      c.plan.removed_gates.end(), m),
            c.plan.removed_gates.end());
  // Unloading f speeds up the critical path.
  EXPECT_LT(c.delay, timing.circuit_delay());
}

TEST_F(ConstructedDelayTest, ConstantReplacement) {
  Built b(&l);
  const GateId x = b.in("x"), y = b.in("y");
  const GateId t = b.gate("and2", {x, y});
  b.out(b.gate("nand2", {t, x}));
  b.out(b.gate("inv", {t}));
  const Checked c = check_both_limits(
      b.nl, stem(t, ReplacementFunction::constant(false)), "constant");
  ASSERT_NE(c.plan.new_gate, kNullGate);
  EXPECT_TRUE(c.plan.new_fanins.empty());
  EXPECT_EQ(c.plan.new_cell, l.const0());
}

TEST_F(ConstructedDelayTest, TargetDrivingAPrimaryOutputDirectly) {
  Built b(&l);
  const GateId x = b.in("x"), y = b.in("y");
  GateId t = b.gate("nand2", {x, y});
  for (int i = 0; i < 3; ++i) t = b.gate("buf", {t});
  const GateId po = b.out(t, 0.3);  // the critical PO, fed by t
  b.out(b.gate("inv", {t}));
  const GateId src = b.gate("inv", {x});
  b.out(src);
  const Checked c = check_both_limits(
      b.nl, stem(t, ReplacementFunction::signal(src)), "target drives PO");
  bool moved_po = false;
  for (const RewiredPin& rp : c.plan.rewired_pins)
    if (rp.sink == po) moved_po = true;
  EXPECT_TRUE(moved_po);
  // The critical PO got faster, so the overlay had to rescan the POs.
  IncrementalTiming timing(b.nl);
  EXPECT_LT(c.delay, timing.circuit_delay());
}

}  // namespace
}  // namespace powder
