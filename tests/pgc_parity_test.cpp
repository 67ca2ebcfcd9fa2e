// Parity oracles for the timed power model's cone replays (DESIGN.md
// §13.1). PG_C: the replay behind TimedPowerModel::trial_power must give
// the same PG_C, bit for bit, as the straightforward evaluation it
// replaces — apply the candidate to a scratch copy and re-run the whole
// event-driven estimate on it. Refresh: after every commit, rollback and
// resize, the cone refresh must leave the estimate and its trace equal to
// a fresh full estimate of the live netlist. Every fallback rule
// (different-value ties, event-budget overflow, zero-delay boundary or
// inner gate) is forced and checked to have run, and so are the budget's
// batch counts and the pass's word-parallel and wide-cell paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <tuple>
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

/// A refreshed estimate and trace against a fresh full estimate of the live
/// netlist: the estimate and every trace array bit for bit, except the
/// batch counts, which the refresh keeps as upper bounds.
void expect_matches_full(const GlitchEstimate& got, const GlitchTrace& t,
                         const Netlist& nl, const GlitchOptions& options,
                         const std::string& label) {
  GlitchTrace want;
  const GlitchEstimate full = estimate_glitch_power(nl, options, &want);
  EXPECT_TRUE(same_bits(got.timed_power, full.timed_power))
      << label << ": timed " << got.timed_power << " vs " << full.timed_power;
  EXPECT_TRUE(same_bits(got.zero_delay_power, full.zero_delay_power))
      << label << ": zero-delay " << got.zero_delay_power << " vs "
      << full.zero_delay_power;
  EXPECT_TRUE(same_array(got.timed_activity, full.timed_activity)) << label;
  EXPECT_EQ(got.event_overflows, full.event_overflows) << label;
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

void expect_matches_full(const TimedPowerModel& model, const Netlist& nl,
                         const std::string& label) {
  expect_matches_full(model.estimate(), model.trace(), nl,
                      model.glitch_options(), label);
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

/// Pair counts that leave the last 64-pair word partial (100) or span
/// several words (256): the pass settles the cone a word at a time.
class PairCountTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PairCountTest, ReplayAndRefreshMatchFullEstimate) {
  const auto& [name, pairs] = GetParam();
  const std::string label = name + " at " + std::to_string(pairs) + " pairs";
  TimedBench b(name, glitch_pairs(pairs));
  EXPECT_EQ(b.model.trace().words, (pairs + 63) / 64);
  EXPECT_GT(b.check_shortlist(label), 0);
  refresh_storm(b, label);
  b.check_shortlist(label + " after refresh storm");
}

INSTANTIATE_TEST_SUITE_P(
    Words, PairCountTest,
    ::testing::Combine(::testing::Values("misex3", "rd84"),
                       ::testing::Values(100, 256)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param));
    });

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
/// 0.3 + 1.0 round to the same event time, `buf0` switches in a second
/// batch at its input's timestamp, `wide7` has a table of two words and
/// `one` is a constant.
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
  // a ^ (b & c) ^ (d | e) ^ (f & !g): no two inputs are interchangeable.
  add("wide7", 1.0, 7, [](std::uint64_t m) {
    return ((m ^ ((m >> 1) & (m >> 2)) ^ ((m >> 3) | (m >> 4)) ^
             ((m >> 5) & ~(m >> 6))) &
            1) != 0;
  });
  add("one", 0.2, 0, [](std::uint64_t) { return true; });
  return lib;
}

/// Checks a constructed edit both ways the model evaluates edits: replays
/// `plan` over the record of `base` (the PG_C path) and refreshes the
/// record after applying it to `base` in place (the commit path), each bit
/// for bit against a full estimate of `edited` — `base` with the plan
/// applied by hand, the swept gates left in place as dead logic is. Returns
/// the pairs that fell back in the replay.
long replay_fallbacks(Netlist& base, const EditPlan& plan,
                      const Netlist& edited,
                      const GlitchOptions& opt = glitch_pairs(64)) {
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
  expect_matches_full(estimate, trace, base, opt, "refresh");
  return stats.fallback_pairs;
}

/// Replaces `x`, the driver of pin 0 of `sink`, with a new `cell` gate over
/// `fanins`: returns the plan and applies it by hand to `*edited`, a copy
/// of `base`.
EditPlan replace_driver(const Netlist& base, GateId sink, const char* cell,
                        const std::vector<GateId>& fanins, Netlist* edited) {
  const CellLibrary& lib = base.library();
  const GateId x = base.fanin(sink, 0);
  const GateId s = edited->add_gate(lib.find(cell), fanins);
  edited->set_fanin(sink, 0, s);
  EditPlan plan;
  plan.target = x;
  plan.new_gate = s;
  plan.new_cell = lib.find(cell);
  plan.new_fanins = fanins;
  plan.rewired_pins = {RewiredPin{sink, 0, x, s}};
  return plan;
}

/// Pairs of `trace` in which input `i` of `nl` toggles.
std::vector<bool> toggles(const Netlist& nl, const GlitchTrace& trace, int i) {
  std::vector<bool> out(static_cast<std::size_t>(trace.pairs));
  const std::size_t words = static_cast<std::size_t>(trace.words);
  const GateId g = nl.inputs()[static_cast<std::size_t>(i)];
  for (int p = 0; p < trace.pairs; ++p) {
    const std::size_t w = static_cast<std::size_t>(p / 64);
    const auto bit = [&](const std::vector<std::uint64_t>& rows, GateId row) {
      return (rows[row * words + w] >> (p % 64)) & 1;
    };
    out[static_cast<std::size_t>(p)] =
        bit(trace.v1, g) != bit(trace.pi_v2, static_cast<GateId>(i));
  }
  return out;
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
  const EditPlan plan = replace_driver(base, f, "xor2", {q, r}, &trial);
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
  const EditPlan plan = replace_driver(base, f, "xor2", {b, z}, &trial);
  EXPECT_EQ(replay_fallbacks(base, plan, trial), 64);
}

TEST(PgcFallbackTest, ZeroDelayGateInsideTheConeIsNotReplayed) {
  // s = buf0(a) drives y inside the cone: y sees b change in the first
  // batch at t = 0 and s in a second one; the pass would merge the two
  // into one evaluation.
  const CellLibrary lib = exact_delay_library();
  Netlist base(&lib);
  const GateId a = base.add_input("a");
  const GateId b = base.add_input("b");
  const GateId x = base.add_gate(lib.find("buf1"), {a});
  const GateId y = base.add_gate(lib.find("xor2"), {x, b});
  base.add_output("of", y);
  Netlist trial = base;
  const EditPlan plan = replace_driver(base, y, "buf0", {a}, &trial);
  EXPECT_EQ(replay_fallbacks(base, plan, trial), 64);
}

TEST(PgcReplayTest, WideCellInTheCone) {
  // A seven-input cell over signals that switch at t = 0, 0.1, 0.2 and
  // 0.3: its two-word table is read bit by bit, in the settled rows and in
  // the merge.
  const CellLibrary lib = exact_delay_library();
  Netlist base(&lib);
  std::vector<GateId> in;
  const char* buffers[] = {"buf1", "buf2", "buf3"};
  for (int i = 0; i < 7; ++i) {
    const GateId pi =
        base.add_input(std::string(1, static_cast<char>('a' + i)));
    in.push_back(i % 2 == 0 ? pi
                            : base.add_gate(lib.find(buffers[i % 3]), {pi}));
  }
  const GateId f =
      base.add_output("of", base.add_gate(lib.find("xor2"), {in[0], in[1]}));
  Netlist trial = base;
  const EditPlan plan = replace_driver(base, f, "wide7", in, &trial);
  EXPECT_EQ(replay_fallbacks(base, plan, trial), 0);
}

TEST(PgcReplayTest, ConstantReplacement) {
  // The inserted gate has no fanins: it settles to 1 and never switches.
  const CellLibrary lib = exact_delay_library();
  Netlist base(&lib);
  const GateId a = base.add_input("a");
  const GateId b = base.add_input("b");
  const GateId f =
      base.add_output("of", base.add_gate(lib.find("xor2"), {a, b}));
  Netlist trial = base;
  const EditPlan plan = replace_driver(base, f, "one", {}, &trial);
  EXPECT_EQ(replay_fallbacks(base, plan, trial), 0);
}

/// base: of = xor2(a, b). A full run forms three batches in a pair where
/// one input toggles (t = 0, x at 1.0, the PO's second batch at 1.0) and
/// two where both do (x's event at 1.0 is absorbed).
struct BudgetCase {
  CellLibrary lib = exact_delay_library();
  Netlist base{&lib};
  GateId f = kNullGate;
  std::vector<bool> a_toggles, b_toggles;

  BudgetCase() {
    const GateId a = base.add_input("a");
    const GateId b = base.add_input("b");
    f = base.add_output("of", base.add_gate(lib.find("xor2"), {a, b}));
    GlitchTrace trace;
    (void)estimate_glitch_power(base, glitch_pairs(64), &trace);
    a_toggles = toggles(base, trace, 0);
    b_toggles = toggles(base, trace, 1);
  }
  /// Pairs where `a` toggles as `a_want` says, and `b` as `b_want`.
  long count(bool a_want, bool b_want) const {
    long n = 0;
    for (std::size_t p = 0; p < a_toggles.size(); ++p)
      n += a_toggles[p] == a_want && b_toggles[p] == b_want ? 1 : 0;
    return n;
  }
};

TEST(PgcBudgetTest, PoSubBatchesCountTowardTheBudget) {
  // s = buf1(a) drives the PO. A pair where a toggles replays in three
  // batches: a at t = 0, s at 0.1, and the PO's second batch at 0.1. With
  // a budget of 5 it has two left where only a toggles, and falls back
  // only because of the PO's batch; where both toggle it has three and
  // replays.
  BudgetCase c;
  ASSERT_GT(c.count(true, false), 0);
  ASSERT_GT(c.count(true, true), 0);
  Netlist trial = c.base;
  const EditPlan plan =
      replace_driver(c.base, c.f, "buf1", {c.base.inputs()[0]}, &trial);
  GlitchOptions opt = glitch_pairs(64);
  opt.max_events_per_pair = 5;
  EXPECT_EQ(replay_fallbacks(c.base, plan, trial, opt), c.count(true, false));
}

TEST(PgcBudgetTest, ExactBatchCountDecidesWhereTheBoundDoesNotFit) {
  // s = xor2(a, b) takes over the PO. Where both inputs toggle, the replay
  // has two sources and one evaluation (bound 3) but forms two batches:
  // both sources at t = 0 and s's absorbed event at 1.0. A budget of 4
  // leaves two after the record's two, so the pair replays on the exact
  // count alone. Where one input toggles, the replay forms three batches
  // against one left, and falls back.
  BudgetCase c;
  ASSERT_GT(c.count(true, true), 0);
  const long one = c.count(true, false) + c.count(false, true);
  ASSERT_GT(one, 0);
  Netlist trial = c.base;
  const EditPlan plan = replace_driver(
      c.base, c.f, "xor2", {c.base.inputs()[0], c.base.inputs()[1]}, &trial);
  GlitchOptions opt = glitch_pairs(64);
  opt.max_events_per_pair = 4;
  EXPECT_EQ(replay_fallbacks(c.base, plan, trial, opt), one);
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
