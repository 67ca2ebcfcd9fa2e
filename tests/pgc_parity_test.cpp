// Parity oracles for the timed power model's cone replays (DESIGN.md
// §13.1). PG_C: the replay behind TimedPowerModel::trial_power must give
// the same PG_C, bit for bit, as the straightforward evaluation it
// replaces — apply the candidate to a scratch copy and re-run the whole
// event-driven estimate on it. Refresh: after every commit, rollback and
// resize, the cone refresh must leave the estimate and its trace equal to
// a fresh full estimate of the live netlist. Every fallback rule
// (different-value ties, event-budget overflow, zero-delay boundary) is
// forced and checked to have run.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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
      : TimedBench(map_aig(make_benchmark(name), lib()), std::move(glitch)) {}
  TimedBench(Netlist netlist, GlitchOptions glitch)
      : nl(std::move(netlist)),
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
  // Commit a batch, roll half of it back, commit again: each refresh
  // replays the edit's cone into the trace, revived slots included.
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

template <class T>
bool same_array(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// The refreshed model against a fresh full estimate of the live netlist:
/// the estimate and every trace array bit for bit, except the batch counts,
/// which the refresh keeps as upper bounds.
void expect_matches_full(const TimedPowerModel& model, const Netlist& nl,
                         const std::string& label) {
  GlitchTrace want;
  const GlitchEstimate full =
      estimate_glitch_power(nl, model.glitch_options(), &want);
  const GlitchEstimate& got = model.estimate();
  EXPECT_TRUE(same_bits(got.timed_power, full.timed_power))
      << label << ": timed " << got.timed_power << " vs " << full.timed_power;
  EXPECT_TRUE(same_bits(got.zero_delay_power, full.zero_delay_power))
      << label << ": zero-delay " << got.zero_delay_power << " vs "
      << full.zero_delay_power;
  EXPECT_TRUE(same_array(got.timed_activity, full.timed_activity)) << label;
  EXPECT_EQ(got.event_overflows, full.event_overflows) << label;
  const GlitchTrace& t = model.trace();
  EXPECT_EQ(t.epoch, want.epoch) << label;
  EXPECT_EQ(t.pairs, want.pairs) << label;
  EXPECT_EQ(t.words, want.words) << label;
  EXPECT_TRUE(same_array(t.delay, want.delay)) << label << ": delay";
  EXPECT_TRUE(same_array(t.v1, want.v1)) << label << ": v1";
  EXPECT_TRUE(same_array(t.pi_v2, want.pi_v2)) << label << ": pi_v2";
  EXPECT_TRUE(same_array(t.offset, want.offset)) << label << ": offset";
  EXPECT_TRUE(same_array(t.time, want.time)) << label << ": time";
  EXPECT_TRUE(same_array(t.pair_of, want.pair_of)) << label << ": pair_of";
  EXPECT_TRUE(same_array(t.zero_delay_transitions, want.zero_delay_transitions))
      << label << ": zero_delay_transitions";
  EXPECT_TRUE(same_array(t.replayable, want.replayable))
      << label << ": replayable";
  EXPECT_TRUE(same_array(t.power_term, want.power_term))
      << label << ": power_term";
  EXPECT_TRUE(same_array(t.power_before, want.power_before))
      << label << ": power_before";
  ASSERT_EQ(t.batches.size(), want.batches.size()) << label;
  for (std::size_t p = 0; p < t.batches.size(); ++p)
    EXPECT_GE(t.batches[p], want.batches[p]) << label << ": pair " << p;
}

/// Counts the deltas a storm publishes, by kind.
struct DeltaCounter final : NetlistObserver {
  std::array<long, 6> seen{};
  void on_delta(const NetlistDelta& d) override {
    ++seen[static_cast<std::size_t>(d.kind)];
  }
  long operator[](DeltaKind k) const {
    return seen[static_cast<std::size_t>(k)];
  }
};

/// Commits, resizes and rolls back on `b`, checking the cone refresh
/// against a fresh full estimate after every refresh().
void refresh_storm(TimedBench& b, const std::string& label) {
  DeltaCounter deltas;
  b.nl.attach_observer(&deltas);
  SubstJournal journal(&b.nl);
  int refreshes = 0;
  auto refresh = [&](const std::string& what) {
    b.model.refresh();
    expect_matches_full(b.model, b.nl, label + " after " + what);
    ++refreshes;
  };
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
      refresh("commit " + std::to_string(done));
      ++done;
    }
    return done;
  };
  const int first = commit_batch(6);
  // A re-sizing: the gate's delay and its fanins' loads change.
  const CellLibrary& cells = b.nl.library();
  for (GateId g = 0; g < b.nl.num_slots(); ++g) {
    if (!b.nl.alive(g) || b.nl.kind(g) != GateKind::kCell) continue;
    const CellId from = b.nl.cell_id(g);
    const CellId to = cells.find(b.nl.cell_of(g).name + "x2");
    if (to == kInvalidCell) continue;
    b.nl.set_cell(g, to);
    refresh("resize");
    b.nl.set_cell(g, from);
    refresh("resize back");
    break;
  }
  // Rollbacks revive the swept cones.
  for (int i = 0; i < first / 2 && !journal.empty(); ++i) {
    journal.rollback_last();
    refresh("rollback");
  }
  commit_batch(4);
  // Two edits between refreshes: a commit and its rollback.
  for (const CandidateSub& c : b.shortlist(8)) {
    if (!substitution_still_valid(b.nl, c)) continue;
    try {
      journal.apply(c);
    } catch (const CheckError&) {
      continue;
    }
    journal.rollback_last();
    refresh("commit and rollback");
    break;
  }
  b.nl.detach_observer(&deltas);
  EXPECT_GT(refreshes, 4) << label;
  EXPECT_GT(deltas[DeltaKind::kCellChanged], 0) << label;
  EXPECT_GT(deltas[DeltaKind::kGateRevived], 0) << label;
  // One full estimate (at construction); every refresh after it is a cone
  // refresh.
  EXPECT_EQ(b.model.resim_count(), 1) << label;
  EXPECT_EQ(b.model.cone_refreshes(), refreshes) << label;
  EXPECT_GT(b.model.refresh_stats().cone_gates, 0) << label;
}

class RefreshParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RefreshParityTest, ConeRefreshMatchesFullEstimate) {
  TimedBench b(GetParam(), glitch_pairs(64));
  refresh_storm(b, GetParam());
  // The storm's shortlists are replayed against refreshed traces.
  b.check_shortlist(GetParam() + " after refresh storm");
}

INSTANTIATE_TEST_SUITE_P(QuickSuite, RefreshParityTest,
                         ::testing::ValuesIn(quick_suite()),
                         [](const auto& info) { return info.param; });

TEST(RefreshParityScaleTest, Scale500ConeRefreshMatchesFullEstimate) {
  TimedBench b(make_scale_netlist(500), glitch_pairs(64));
  refresh_storm(b, "scale500");
}

TEST(RefreshParityScaleTest, TiePairsFallBackInTheRefresh) {
  // rd84's record holds tie pairs: every committed cone re-simulates them
  // whole, and the refresh still matches the full estimate.
  TimedBench b("rd84", glitch_pairs(64));
  refresh_storm(b, "rd84 ties");
  EXPECT_GT(b.model.refresh_stats().fallback_pairs, 0);
}

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

/// Checks a constructed edit both ways the model evaluates edits: replays
/// `plan` over the record of `base` (the PG_C path) and refreshes the
/// record after applying it to `base` in place (the commit path), each bit
/// for bit against a full estimate of `edited` — `base` with the plan
/// applied by hand, the swept gates left in place as dead logic is. Returns
/// the pairs that fell back in the replay.
long replay_fallbacks(Netlist& base, const EditPlan& plan,
                      const Netlist& edited) {
  const GlitchOptions opt = glitch_pairs(64);
  GlitchTrace trace;
  GlitchEstimate estimate = estimate_glitch_power(base, opt, &trace);
  for (const std::uint8_t ok : trace.replayable) EXPECT_TRUE(ok);
  GlitchReplayer replayer;
  GlitchReplayStats stats;
  const double fast = replayer.trial_power(base, trace, plan, opt, &stats);
  const GlitchEstimate full = estimate_glitch_power(edited, opt);
  EXPECT_TRUE(same_bits(fast, full.timed_power))
      << fast << " vs " << full.timed_power;

  // The same edit committed: the inserted gate and the rewired sinks
  // changed, the new gate's fanins and the old driver carry other loads.
  std::vector<GateId> changed, loaded;
  if (plan.new_gate != kNullGate) {
    EXPECT_EQ(base.add_gate(plan.new_cell, plan.new_fanins), plan.new_gate);
    changed.push_back(plan.new_gate);
    loaded = plan.new_fanins;
  }
  for (const RewiredPin& rp : plan.rewired_pins) {
    base.set_fanin(rp.sink, rp.pin, rp.new_driver);
    changed.push_back(rp.sink);
    loaded.push_back(rp.old_driver);
  }
  const GlitchReplayStats done =
      replayer.refresh(base, changed, loaded, opt, &trace, &estimate);
  EXPECT_GT(done.cone_gates, 0);
  EXPECT_TRUE(same_bits(estimate.timed_power, full.timed_power));
  EXPECT_TRUE(same_bits(estimate.zero_delay_power, full.zero_delay_power));
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
  const GateId x = trial.fanin(f, 0);
  const GateId s = trial.add_gate(lib.find("xor2"), {q, r});
  trial.set_fanin(f, 0, s);
  EditPlan plan;
  plan.target = x;
  plan.new_gate = s;
  plan.new_cell = lib.find("xor2");
  plan.new_fanins = {q, r};
  plan.rewired_pins = {RewiredPin{f, 0, x, s}};
  EXPECT_GT(replay_fallbacks(base, plan, trial), 0);
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
  const GateId x = trial.fanin(f, 0);
  const GateId s = trial.add_gate(lib.find("xor2"), {b, z});
  trial.set_fanin(f, 0, s);
  EditPlan plan;
  plan.target = x;
  plan.new_gate = s;
  plan.new_cell = lib.find("xor2");
  plan.new_fanins = {b, z};
  plan.rewired_pins = {RewiredPin{f, 0, x, s}};
  EXPECT_EQ(replay_fallbacks(base, plan, trial), 64);
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
