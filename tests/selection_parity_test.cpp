// Parity oracle for the dependency-tracked selection (DESIGN.md §13.1): a
// SelectionMemo re-scores PG_A/PG_B (and the area gain) only for the
// candidates that read a gate a commit or rollback changed. The reference
// below is the selection step that re-scores every candidate whose memo
// predates the epoch. Both run in lockstep on copies of the same harvest,
// and every round must agree: the same validity verdicts in the same order,
// the same survivors in the same order with pg_a/pg_b/pg_c and area gains
// equal bit for bit, and the same pick.
//
// The memo's list takes its picks the optimizer's way: take_pick leaves a
// tombstone, and a round at an unchanged epoch ranks the memo's live list
// again (prefix_sort) without compacting or re-reading the candidates. The
// reference erases its picks and ranks with std::sort. Each round compares
// the memo list's live candidates, in order, with the reference list, and
// the pick by its live position. Storms also erase some picks from the
// memo's list, which the next round must notice.
//
// Inputs: greedy picks (select -> delay -> proof -> commit, the optimizer's
// order) on the quick suite under the zero-delay model, the timed model at
// 64 vector pairs, a delay limit of 1.0 and the area objective; scale500;
// and commit/rollback storms that undo single commits the way the signature
// guard does, undo several at once (reviving swept gates), overflow the
// delta log, force a full model refresh, resize gates and erase picks
// between two rounds. Last, the optimizer's own round count is pinned on
// t481 (zero-delay and timed) and on scale4000 with a delay limit of 1.0.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "atpg/atpg.hpp"
#include "benchgen/benchmarks.hpp"
#include "mapper/mapper.hpp"
#include "opt/candidates.hpp"
#include "opt/journal.hpp"
#include "opt/power_gain.hpp"
#include "opt/selection.hpp"
#include "opt/substitution.hpp"
#include "powder.hpp"
#include "power/model.hpp"
#include "power/power.hpp"
#include "sim/simulator.hpp"
#include "timing/incremental_timing.hpp"

namespace powder {
namespace {

const CellLibrary& lib() {
  static const CellLibrary* kLib = new CellLibrary(CellLibrary::standard());
  return *kLib;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The selection step before the dependency index: every candidate whose
/// memo predates the epoch is re-checked and re-scored, and the area
/// objective recomputes every area gain in every round.
std::size_t reference_select(
    const Netlist& netlist, const PowerModel& model,
    std::vector<CandidateSub>* cands, const PowderOptions& options,
    const std::function<bool(const CandidateSub&)>& keep,
    SelectionStats* stats) {
  const std::uint64_t epoch = netlist.epoch();
  const bool area_mode = options.objective == Objective::kArea;
  std::vector<std::size_t> order;
  std::vector<double> metric(cands->size(), 0.0);
  for (std::size_t i = 0; i < cands->size();) {
    CandidateSub& c = (*cands)[i];
    if (c.gains_epoch != epoch) {
      if (!keep(c)) {
        cands->erase(cands->begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      c.pg_a = compute_pg_a(netlist, model, c);
      c.pg_b = compute_pg_b(netlist, model, c);
      c.gains_epoch = epoch;
      c.pg_c_memo = false;
    }
    metric[i] = area_mode ? compute_area_gain(netlist, c) : c.preselect_gain();
    order.push_back(i);
    ++i;
  }
  std::size_t best = cands->size();
  if (order.empty()) return best;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return metric[x] > metric[y];
  });
  order.resize(std::min(order.size(),
                        static_cast<std::size_t>(options.shortlist)));
  double best_gain = options.min_gain;
  if (area_mode) return metric[order[0]] > best_gain ? order[0] : best;
  for (const std::size_t k : order) {
    CandidateSub& c = (*cands)[k];
    if (c.pg_c_memo) {
      ++stats->pgc_memo_hits;
    } else {
      c.pg_c = compute_pg_c(netlist, model, c);
      c.pg_c_memo = true;
      ++stats->pgc_evaluations;
    }
    if (c.total_gain() > best_gain) {
      best_gain = c.total_gain();
      best = k;
    }
  }
  return best;
}

bool same_site(const CandidateSub& a, const CandidateSub& b) {
  const ReplacementFunction& x = a.rep;
  const ReplacementFunction& y = b.rep;
  return a.cls == b.cls && a.target == b.target && a.branch == b.branch &&
         a.new_cell == b.new_cell && x.kind == y.kind &&
         x.constant_value == y.constant_value && x.b == y.b &&
         x.invert_b == y.invert_b && x.c == y.c && x.invert_c == y.invert_c &&
         x.two_input_fn == y.two_input_fn && x.divisors == y.divisors;
}

enum class Mode { kZeroDelay, kTimed, kDelayLimit, kArea };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kZeroDelay: return "zero-delay";
    case Mode::kTimed: return "timed";
    case Mode::kDelayLimit: return "delay-limit";
    case Mode::kArea: return "area";
  }
  return "?";
}

/// Storm events between two selection rounds.
struct Storm {
  bool guard_rollbacks = false;  ///< undo every third commit at once
  bool mass_rollback = false;    ///< undo half the commits mid-harvest
  bool overflow_log = false;     ///< > 1024 deltas between two rounds
  bool full_refresh = false;     ///< a full model estimate between rounds
  bool resize = false;           ///< swap inverter sizes every fourth commit
  bool erase_picks = false;      ///< erase every third pick, not take it
};

/// Where a round's pick sits: its index in the memo's list (which may hold
/// tombstones) and in the reference list.
struct Picks {
  std::size_t fast;
  std::size_t ref;
};

/// One netlist, one model, and two copies of every harvest: one selected
/// through a SelectionMemo, one through the reference.
struct SelectionBench {
  SelectionBench(Netlist netlist, Mode mode)
      : nl(std::move(netlist)),
        sim(nl, opt.num_patterns, {}, opt.seed),
        est(&sim),
        timing(nl),
        journal(&nl),
        label(mode_name(mode)) {
    if (mode == Mode::kTimed) {
      GlitchOptions glitch;
      glitch.num_vector_pairs = 64;
      timed_model = std::make_unique<TimedPowerModel>(&est, glitch);
    }
    if (mode == Mode::kArea) opt.objective = Objective::kArea;
    if (mode == Mode::kDelayLimit) limit = timing.circuit_delay() * 1.0;
    finder = std::make_unique<CandidateFinder>(nl, model(), opt.candidates,
                                               opt.seed);
  }

  PowerModel& model() {
    return timed_model ? static_cast<PowerModel&>(*timed_model) : est;
  }

  /// One round both ways; asserts parity and returns the pick.
  Picks round(SelectionMemo& memo, std::vector<CandidateSub>* fast,
              std::vector<CandidateSub>* ref, const std::string& where) {
    std::vector<std::pair<GateId, bool>> verdicts_fast, verdicts_ref;
    const auto keep_into = [&](std::vector<std::pair<GateId, bool>>* out) {
      return [this, out](const CandidateSub& c) {
        const bool ok = substitution_still_valid(nl, c);
        out->emplace_back(c.target, ok);
        return ok;
      };
    };
    const std::size_t got = select_power_red_subst(
        memo, fast, opt, keep_into(&verdicts_fast), &fast_stats);
    const std::size_t want = reference_select(
        nl, model(), ref, opt, keep_into(&verdicts_ref), &ref_stats);
    ++rounds;
    // The memo's list, tombstones skipped, against the reference's.
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < fast->size(); ++i)
      if ((*fast)[i].target != kNullGate) live.push_back(i);
    if (live.size() < fast->size()) ++lazy_rounds;
    EXPECT_EQ(memo.live(*fast), live.size()) << where;
    EXPECT_EQ(verdicts_fast, verdicts_ref) << where;
    // A pick that is not live (a tombstone) matches no reference index.
    const auto at = std::find(live.begin(), live.end(), got);
    std::size_t got_live = std::numeric_limits<std::size_t>::max();
    if (got == fast->size())
      got_live = ref->size();
    else if (at != live.end())
      got_live = static_cast<std::size_t>(at - live.begin());
    EXPECT_EQ(got_live, want) << where;
    EXPECT_EQ(live.size(), ref->size()) << where;
    if (live.size() != ref->size()) return {got, want};
    for (std::size_t i = 0; i < live.size(); ++i) {
      const CandidateSub& f = (*fast)[live[i]];
      const CandidateSub& r = (*ref)[i];
      EXPECT_TRUE(same_site(f, r)) << where << " candidate " << i;
      EXPECT_TRUE(same_bits(f.pg_a, r.pg_a))
          << where << " candidate " << i << " pg_a " << f.pg_a << " vs "
          << r.pg_a;
      EXPECT_TRUE(same_bits(f.pg_b, r.pg_b))
          << where << " candidate " << i << " pg_b " << f.pg_b << " vs "
          << r.pg_b;
      EXPECT_EQ(f.gains_epoch, r.gains_epoch) << where;
      EXPECT_EQ(f.pg_c_memo, r.pg_c_memo) << where;
      if (r.pg_c_memo) {
        EXPECT_TRUE(same_bits(f.pg_c, r.pg_c)) << where;
      }
      if (opt.objective == Objective::kArea) {
        EXPECT_TRUE(same_bits(memo.area_gain(f), compute_area_gain(nl, r)))
            << where << " candidate " << i << " area gain";
      }
    }
    return {got, want};
  }

  bool delay_ok(const CandidateSub& c) {
    if (!std::isfinite(limit)) return true;
    (void)timing.circuit_delay();
    return timing.trial_delay(plan_substitution(nl, c)) <= limit + 1e-9;
  }

  void refresh() { model().refresh(); }

  /// Up to `iterations` harvests; each commits up to `max_commits` proved
  /// picks, with `storm`'s events between rounds.
  void run(int iterations, int max_commits, const Storm& storm,
           const std::string& tag) {
    for (int it = 0; it < iterations; ++it) {
      refresh();
      std::vector<CandidateSub> ref = finder->find();
      std::vector<CandidateSub> fast = ref;
      SelectionMemo memo(nl, model());
      bool took_pick = false;
      std::uint64_t pick_epoch = 0;
      int commits = 0;
      std::size_t journal_at_harvest = journal.size();
      for (int r = 0; commits < max_commits; ++r) {
        const std::string where = label + " " + tag + " harvest " +
                                  std::to_string(it) + " round " +
                                  std::to_string(r);
        // A round right after take_pick at an unchanged epoch must rank
        // the memo's live list without compacting it; any other compacts.
        if (took_pick && nl.epoch() == pick_epoch) ++expected_lazy_rounds;
        const Picks best = round(memo, &fast, &ref, where);
        if (::testing::Test::HasFailure() || best.ref >= ref.size()) break;
        took_pick = !(storm.erase_picks && picks % 3 == 2);
        pick_epoch = nl.epoch();
        // The optimizer's pick leaves a tombstone in the memo's list; the
        // reference erases it.
        CandidateSub chosen;
        if (!took_pick) {
          chosen = fast[best.fast];
          fast.erase(fast.begin() + static_cast<std::ptrdiff_t>(best.fast));
          ++erased_picks;
        } else {
          chosen = take_pick(memo, &fast, best.fast);
        }
        ++picks;
        ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(best.ref));
        if (!delay_ok(chosen)) continue;
        AtpgChecker atpg(nl);
        if (atpg.check_replacement(chosen.site(), chosen.rep) !=
            AtpgResult::kUntestable)
          continue;
        journal.apply(chosen);
        refresh();
        ++commits;
        if (storm.guard_rollbacks && commits % 3 == 0) {
          // The signature guard's path: the commit is undone before the
          // next round, which sees the epoch moved twice.
          journal.rollback_last();
          refresh();
          ++guard_rollbacks;
        }
        if (storm.mass_rollback && commits == max_commits / 2) {
          const std::size_t undo = (journal.size() - journal_at_harvest) / 2;
          for (std::size_t i = 0; i < undo; ++i) journal.rollback_last();
          refresh();
          journal_at_harvest = journal.size();
          mass_rollbacks += undo > 0 ? 1 : 0;
        }
        if (storm.overflow_log && commits == 2) {
          // Apply and undo the same pick until the delta log evicts the
          // previous round's epoch.
          const std::uint64_t from = nl.epoch();
          while (nl.deltas_since(from).has_value()) {
            journal.rollback_last();
            journal.apply(chosen);
          }
          refresh();
          ++overflows;
        }
        if (storm.resize && commits % 4 == 0) {
          // Same function, other pin caps and delay: the resized gates'
          // drivers see a new load.
          const CellId inv1 = lib().find("inv1");
          const CellId inv2 = lib().find("inv2");
          int swapped = 0;
          for (GateId g = 0; g < nl.num_slots() && swapped < 8; ++g) {
            if (!nl.alive(g) || nl.kind(g) != GateKind::kCell) continue;
            const CellId cell = nl.cell_id(g);
            if (cell != inv1 && cell != inv2) continue;
            nl.set_cell(g, cell == inv1 ? inv2 : inv1);
            ++swapped;
          }
          refresh();
          resizes += swapped;
        }
        if (storm.full_refresh && commits == 3) {
          // A full estimate marks every gate changed.
          est.estimate_all();
          ++full_refreshes;
        }
      }
      if (::testing::Test::HasFailure() || commits == 0) break;
    }
    EXPECT_EQ(fast_stats.pgc_evaluations, ref_stats.pgc_evaluations) << label;
    EXPECT_EQ(fast_stats.pgc_memo_hits, ref_stats.pgc_memo_hits) << label;
    EXPECT_EQ(fast_stats.rounds, rounds) << label;
    EXPECT_EQ(lazy_rounds, expected_lazy_rounds) << label;
  }

  PowderOptions opt;
  Netlist nl;
  Simulator sim;
  PowerEstimator est;
  std::unique_ptr<TimedPowerModel> timed_model;
  IncrementalTiming timing;
  std::unique_ptr<CandidateFinder> finder;
  SubstJournal journal;
  std::string label;
  double limit = std::numeric_limits<double>::infinity();
  SelectionStats fast_stats;
  SelectionStats ref_stats;
  long rounds = 0;
  long lazy_rounds = 0;  ///< rounds that left tombstones in the memo's list
  long expected_lazy_rounds = 0;
  long picks = 0;
  long erased_picks = 0;
  long guard_rollbacks = 0;
  long mass_rollbacks = 0;
  long overflows = 0;
  long full_refreshes = 0;
  long resizes = 0;
};

Netlist quick(const std::string& name) {
  return map_aig(make_benchmark(name), lib());
}

/// The memo must have kept some candidates and re-scored others.
void expect_both_paths(const SelectionBench& b) {
  EXPECT_GT(b.fast_stats.reused, 0) << b.label;
  EXPECT_GT(b.fast_stats.rescored, 0) << b.label;
  EXPECT_GT(b.journal.size(), 0u) << b.label;
}

class SelectionParityTest
    : public ::testing::TestWithParam<std::tuple<std::string, Mode>> {};

TEST_P(SelectionParityTest, GreedyPicks) {
  const auto& [name, mode] = GetParam();
  SelectionBench b(quick(name), mode);
  b.label = name + " " + b.label;
  b.run(3, 10, Storm{}, "greedy");
  expect_both_paths(b);
}

INSTANTIATE_TEST_SUITE_P(
    QuickSuite, SelectionParityTest,
    ::testing::Combine(::testing::Values("comp", "Z5xp1", "rd84", "misex3",
                                         "duke2", "t481"),
                       ::testing::Values(Mode::kZeroDelay, Mode::kTimed,
                                         Mode::kDelayLimit, Mode::kArea)),
    [](const auto& info) {
      std::string mode = mode_name(std::get<1>(info.param));
      std::replace(mode.begin(), mode.end(), '-', '_');
      return std::get<0>(info.param) + "_" + mode;
    });

TEST(SelectionParityScaleTest, Scale500GreedyPicks) {
  SelectionBench b(make_scale_netlist(500), Mode::kZeroDelay);
  b.label = "scale500";
  b.run(3, 20, Storm{}, "greedy");
  expect_both_paths(b);
}

class SelectionStormTest : public ::testing::TestWithParam<Mode> {};

TEST_P(SelectionStormTest, CommitRollbackStorm) {
  long lazy_rounds = 0;
  for (const char* name : {"misex3", "duke2"}) {
    SelectionBench b(quick(name), GetParam());
    b.label = std::string(name) + " " + b.label;
    b.run(2, 12, Storm{true, true, true, true, true, true}, "storm");
    expect_both_paths(b);
    EXPECT_GT(b.erased_picks, 0) << b.label;
    lazy_rounds += b.lazy_rounds;
    EXPECT_GT(b.guard_rollbacks, 0) << b.label;
    EXPECT_GT(b.mass_rollbacks, 0) << b.label;
    EXPECT_GT(b.overflows, 0) << b.label;
    EXPECT_GT(b.full_refreshes, 0) << b.label;
    EXPECT_GT(b.resizes, 0) << b.label;
  }
  EXPECT_GT(lazy_rounds, 0);
}

INSTANTIATE_TEST_SUITE_P(Models, SelectionStormTest,
                         ::testing::Values(Mode::kZeroDelay, Mode::kTimed),
                         [](const auto& info) {
                           std::string mode = mode_name(info.param);
                           std::replace(mode.begin(), mode.end(), '-', '_');
                           return mode;
                         });

TEST(SelectionStormScaleTest, Scale500CommitRollbackStorm) {
  SelectionBench b(make_scale_netlist(500), Mode::kZeroDelay);
  b.label = "scale500";
  b.run(2, 20, Storm{true, true, true, true, true, true}, "storm");
  expect_both_paths(b);
  EXPECT_GT(b.erased_picks, 0);
  EXPECT_GT(b.guard_rollbacks, 0);
}

// The optimizer's loop ends when no live candidate is left. Picks now leave
// tombstones in the list across rounds, so a loop that tested the list's
// size would run extra rounds. These counts are those of the loop that
// compacted its list in every round.
TEST(SelectionRoundCountTest, OptimizerRoundsUnchanged) {
  {
    Netlist nl = quick("t481");
    const PowderReport r = PowderOptimizer(&nl, PowderOptions{}).run();
    EXPECT_EQ(r.diagnostics.selection.rounds, 915) << "t481 zero-delay";
  }
  {
    Netlist nl = quick("t481");
    PowderOptions opt;
    opt.power_model = PowerModelKind::kTimed;
    opt.glitch.num_vector_pairs = 64;
    const PowderReport r = PowderOptimizer(&nl, opt).run();
    EXPECT_EQ(r.diagnostics.selection.rounds, 512) << "t481 timed";
  }
  {
    Netlist nl = make_scale_netlist(4000);
    PowderOptions opt;
    opt.delay_limit_factor = 1.0;
    opt.threads = 2;
    const PowderReport r = PowderOptimizer(&nl, opt).run();
    EXPECT_EQ(r.diagnostics.selection.rounds, 3278)
        << "scale4000 --delay-limit 1.0";
  }
}

}  // namespace
}  // namespace powder
