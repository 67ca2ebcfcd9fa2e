// Parity oracle for the timed PG_C fast path (DESIGN.md §13.1): the
// cone-local replay behind TimedPowerModel::trial_power must give the same
// PG_C, bit for bit, as the straightforward evaluation it replaces — apply
// the candidate to a scratch copy and re-run the whole event-driven
// estimate on it. Both fallback rules (different-value ties, event-budget
// overflow) are forced and checked to have run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "mapper/mapper.hpp"
#include "opt/candidates.hpp"
#include "opt/journal.hpp"
#include "opt/power_gain.hpp"
#include "opt/substitution.hpp"
#include "powder.hpp"
#include "power/model.hpp"
#include "power/power.hpp"
#include "sim/simulator.hpp"
#include "trace/metrics.hpp"
#include "util/check.hpp"

namespace powder {
namespace {

const CellLibrary& lib() {
  static const CellLibrary* kLib = new CellLibrary(CellLibrary::standard());
  return *kLib;
}

/// The reference: whole-copy re-estimation of the substituted netlist.
double reference_timed_pg_c(const Netlist& netlist,
                            const TimedPowerModel& model,
                            const CandidateSub& sub) {
  Netlist scratch = netlist;
  try {
    (void)apply_substitution(scratch, sub);
  } catch (const CheckError&) {
    return -model.total_power();
  }
  const GlitchEstimate after =
      estimate_glitch_power(scratch, model.glitch_options());
  return (model.total_power() - after.timed_power) - sub.pg_a - sub.pg_b;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// One netlist with the optimizer's analysis stack under the timed model.
struct TimedBench {
  TimedBench(const std::string& name, GlitchOptions glitch)
      : nl(map_aig(make_benchmark(name), lib())),
        sim(nl, 256, {}, /*seed=*/5),
        est(&sim),
        model(&est, std::move(glitch)),
        finder(nl, model, {}, /*seed=*/5) {}

  /// The selection loop's shortlist: the best candidates by PG_A + PG_B.
  std::vector<CandidateSub> shortlist(std::size_t size) {
    model.refresh();
    std::vector<CandidateSub> cands = finder.find();
    std::vector<CandidateSub> out;
    for (CandidateSub& c : cands) {
      if (out.size() == size) break;
      if (!substitution_still_valid(nl, c)) continue;
      c.pg_a = compute_pg_a(nl, model, c);
      c.pg_b = compute_pg_b(nl, model, c);
      out.push_back(c);
    }
    return out;
  }

  /// Checks every shortlisted candidate; returns how many were compared.
  int check_shortlist(const std::string& label) {
    int checked = 0;
    for (const CandidateSub& c : shortlist(12)) {
      const double fast = compute_pg_c(nl, model, c);
      const double ref = reference_timed_pg_c(nl, model, c);
      EXPECT_TRUE(same_bits(fast, ref))
          << label << ": target " << c.target << " fast " << fast
          << " reference " << ref;
      ++checked;
    }
    return checked;
  }

  Netlist nl;
  Simulator sim;
  PowerEstimator est;
  TimedPowerModel model;
  CandidateFinder finder;
};

GlitchOptions glitch_pairs(int pairs) {
  GlitchOptions g;
  g.num_vector_pairs = pairs;
  return g;
}

class PgcParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PgcParityTest, ShortlistMatchesWholeCopyReference) {
  TimedBench b(GetParam(), glitch_pairs(64));
  EXPECT_GT(b.check_shortlist(GetParam()), 0);
  EXPECT_GT(b.model.replay_stats().cone_gates, 0);
  // The recorded base stays small on the quick suite.
  EXPECT_LT(b.model.trace().bytes(), std::size_t{1} << 20);
}

TEST_P(PgcParityTest, ShortlistMatchesAfterJournalStorm) {
  TimedBench b(GetParam(), glitch_pairs(64));
  SubstJournal journal(&b.nl);
  // Commit a batch, roll half of it back, commit again: the trace is
  // re-recorded on each refresh, including over revived slots.
  auto commit_batch = [&](int want) {
    int done = 0;
    for (const CandidateSub& c : b.shortlist(32)) {
      if (done == want) break;
      if (!substitution_still_valid(b.nl, c)) continue;
      try {
        journal.apply(c);
      } catch (const CheckError&) {
        continue;
      }
      b.model.refresh();
      ++done;
    }
    return done;
  };
  const int first = commit_batch(6);
  for (int i = 0; i < first / 2 && !journal.empty(); ++i)
    journal.rollback_last();
  b.check_shortlist(GetParam() + " after rollback");
  commit_batch(4);
  b.check_shortlist(GetParam() + " after storm");
}

INSTANTIATE_TEST_SUITE_P(QuickSuite, PgcParityTest,
                         ::testing::ValuesIn(quick_suite()),
                         [](const auto& info) { return info.param; });

TEST(PgcFallbackTest, DifferentValueTiesFallBackToFullPairs) {
  // rd84's balanced XOR trees schedule same-time events of different value
  // on one gate; those pairs are re-simulated whole.
  TimedBench b("rd84", glitch_pairs(64));
  bool base_tie = false;
  for (const std::uint8_t ok : b.model.trace().replayable)
    if (!ok) base_tie = true;
  EXPECT_TRUE(base_tie);
  EXPECT_GT(b.check_shortlist("rd84"), 0);
  EXPECT_GT(b.model.replay_stats().fallback_pairs, 0);
}

TEST(PgcFallbackTest, EventBudgetOverflowFallsBackToFullPairs) {
  GlitchOptions g = glitch_pairs(32);
  g.max_events_per_pair = 3;  // every real pair overflows
  TimedBench b("misex3", g);
  EXPECT_GT(b.model.estimate().event_overflows, 0);
  EXPECT_GT(b.check_shortlist("misex3 tiny budget"), 0);
  EXPECT_GT(b.model.replay_stats().fallback_pairs, 0);
}

/// A library with load-independent delays (R = 0): 0.1 + 0.2 + 1.0 and
/// 0.3 + 1.0 round to the same event time, and `buf0` switches in a second
/// batch at its input's timestamp.
CellLibrary exact_delay_library() {
  CellLibrary lib;
  auto add = [&](const char* name, double tau, int inputs,
                 bool (*fn)(std::uint64_t)) {
    Cell c;
    c.name = name;
    c.area = 1.0;
    c.intrinsic_delay = tau;
    for (int i = 0; i < inputs; ++i)
      c.pins.push_back(CellPin{std::string(1, static_cast<char>('a' + i))});
    c.function = TruthTable(inputs);
    for (std::uint64_t m = 0; m < (1ull << inputs); ++m)
      c.function.set_bit(m, fn(m));
    lib.add(std::move(c));
  };
  auto buf = [](std::uint64_t m) { return (m & 1) != 0; };
  add("buf0", 0.0, 1, buf);
  add("buf1", 0.1, 1, buf);
  add("buf2", 0.2, 1, buf);
  add("buf3", 0.3, 1, buf);
  add("xor2", 1.0, 2,
      [](std::uint64_t m) { return ((m ^ (m >> 1)) & 1) != 0; });
  return lib;
}

/// Replays `trial` against the record of `base` and checks it bit for bit
/// against a full estimate; returns the pairs that fell back.
long replay_fallbacks(const Netlist& base, const Netlist& trial) {
  const GlitchOptions opt = glitch_pairs(64);
  GlitchTrace trace;
  (void)estimate_glitch_power(base, opt, &trace);
  for (const std::uint8_t ok : trace.replayable) EXPECT_TRUE(ok);
  GlitchReplayStats stats;
  const double fast = replay_timed_power(base, trace, trial, opt, &stats);
  const double full = estimate_glitch_power(trial, opt).timed_power;
  EXPECT_TRUE(same_bits(fast, full)) << fast << " vs " << full;
  return stats.fallback_pairs;
}

TEST(PgcFallbackTest, ReplayedTiesFallBackToFullPairs) {
  // The edit adds s = q ^ r, where q (a through 0.1 and 0.2) and r (a
  // through 0.3) switch at different times whose sums with s's delay
  // round to one time: s gets two events of different value at t = 1.3,
  // a tie only the replay can see.
  const CellLibrary lib = exact_delay_library();
  Netlist base(&lib);
  const GateId a = base.add_input("a");
  const GateId b = base.add_input("b");
  const GateId q =
      base.add_gate(lib.find("buf2"), {base.add_gate(lib.find("buf1"), {a})});
  const GateId r = base.add_gate(lib.find("buf3"), {a});
  base.add_output("oq", q);
  base.add_output("or", r);
  const GateId f =
      base.add_output("of", base.add_gate(lib.find("xor2"), {a, b}));
  Netlist trial = base;
  trial.set_fanin(f, 0, trial.add_gate(lib.find("xor2"), {q, r}));
  EXPECT_GT(replay_fallbacks(base, trial), 0);
}

TEST(PgcFallbackTest, ZeroDelayBoundaryIsNotReplayed) {
  // z = buf0(a) switches in a later batch than a at t = 0. A new gate
  // reading b and z sees the two changes in two batches; a replay would
  // merge them into one.
  const CellLibrary lib = exact_delay_library();
  Netlist base(&lib);
  const GateId a = base.add_input("a");
  const GateId b = base.add_input("b");
  const GateId z = base.add_gate(lib.find("buf0"), {a});
  base.add_output("oz", z);
  const GateId f =
      base.add_output("of", base.add_gate(lib.find("xor2"), {a, b}));
  Netlist trial = base;
  trial.set_fanin(f, 0, trial.add_gate(lib.find("xor2"), {b, z}));
  EXPECT_EQ(replay_fallbacks(base, trial), 64);
}

TEST(PgcMemoTest, RejectedPicksReuseShortlistGains) {
  // t481's picks are often refuted by presim or proof, which leaves the
  // netlist unchanged: the next round must reuse the memoized PG_C.
  Netlist nl = map_aig(make_benchmark("t481"), lib());
  PowderOptions opt = PowderOptions::builder().patterns(512).seed(42).build();
  opt.power_model = PowerModelKind::kTimed;
  opt.glitch.num_vector_pairs = 64;
  MetricsRegistry reg;
  opt.trace.metrics = &reg;
  const PowderReport rep = optimize(nl, opt);
  const auto& pm = rep.diagnostics.power_model;
  EXPECT_GT(pm.pgc_evaluations, 0);
  EXPECT_GT(pm.pgc_memo_hits, 0);
  EXPECT_GT(pm.pgc_cone_gates, 0);
  EXPECT_GE(pm.pgc_fallback_pairs, 0);
  EXPECT_EQ(reg.counter("powder_pgc_memo_hits_total")->value(),
            pm.pgc_memo_hits);
  EXPECT_EQ(reg.counter("powder_pgc_evaluations_total")->value(),
            pm.pgc_evaluations);
}

}  // namespace
}  // namespace powder
