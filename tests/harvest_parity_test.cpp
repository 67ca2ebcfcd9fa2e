// Parity oracle for bound-then-match harvesting (DESIGN.md §5b): the
// pruned harvest CandidateFinder::find() returns must equal the unpruned
// harvest that matches every site — same candidates in the same order, with
// pg_a/pg_b equal bit for bit. Every harvested candidate's PG_A + PG_B must
// also lie within its site's bound (plus the pruning's relative slack), and
// a constant candidate's PG_A must be the bound itself.
//
// Inputs: greedy picks (select → proof → commit, the optimizer's order) on
// the quick suite under both power models, at the default cap and at a cap
// tight enough to prune; scale500 across greedy picks; the same after a
// commit/rollback storm; and harvests at 1 and 4 threads, which must also
// agree on the harvest counters.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
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
#include "power/model.hpp"
#include "power/power.hpp"
#include "sim/simulator.hpp"
#include "util/thread_pool.hpp"

namespace powder {

/// The finder's private surface the oracle needs: the unpruned harvest, a
/// site's bound, and a batch size small enough to prune the quick suite.
struct CandidateFinderTestAccess {
  static void set_batch_sites(CandidateFinder& finder, std::size_t n) {
    finder.batch_sites_ = n;
  }
  static std::vector<CandidateSub> unpruned(CandidateFinder& finder) {
    return finder.find(/*prune=*/false);
  }
  static double bound(const CandidateFinder& finder, const CandidateSub& c) {
    return finder.site_bound(c.target, c.branch ? &*c.branch : nullptr);
  }
};

namespace {

const CellLibrary& lib() {
  static const CellLibrary* kLib = new CellLibrary(CellLibrary::standard());
  return *kLib;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_candidate(const CandidateSub& a, const CandidateSub& b) {
  const ReplacementFunction& x = a.rep;
  const ReplacementFunction& y = b.rep;
  return a.cls == b.cls && a.target == b.target && a.branch == b.branch &&
         a.new_cell == b.new_cell && x.kind == y.kind &&
         x.constant_value == y.constant_value && x.b == y.b &&
         x.invert_b == y.invert_b && x.c == y.c && x.invert_c == y.invert_c &&
         x.two_input_fn == y.two_input_fn && x.divisors == y.divisors &&
         same_bits(a.pg_a, b.pg_a) && same_bits(a.pg_b, b.pg_b);
}

void expect_same(const std::vector<CandidateSub>& got,
                 const std::vector<CandidateSub>& want,
                 const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_TRUE(same_candidate(got[i], want[i]))
        << label << ": candidate " << i << " target " << got[i].target
        << " vs " << want[i].target;
}

/// A cap below what the quick-suite circuits harvest, and a batch size
/// below their site counts, so the bound prunes there.
constexpr int kTightCap = 24;
constexpr std::size_t kSmallBatch = 16;

/// One netlist with the optimizer's analysis stack, harvesting through a
/// finder at the default cap and batch size or, with `tight`, at kTightCap
/// in batches of kSmallBatch.
struct HarvestBench {
  HarvestBench(Netlist netlist, bool timed, bool tight, int threads)
      : nl(std::move(netlist)),
        pool(threads > 1 ? std::make_unique<ThreadPool>(threads - 1)
                         : nullptr),
        sim(nl, 512, {}, /*seed=*/42),
        est(&sim) {
    sim.set_thread_pool(pool.get());
    if (timed) {
      GlitchOptions glitch;
      glitch.num_vector_pairs = 64;
      timed_model = std::make_unique<TimedPowerModel>(&est, glitch);
    }
    if (tight) opt.candidates.max_candidates = kTightCap;
    finder = std::make_unique<CandidateFinder>(nl, model(), opt.candidates,
                                               opt.seed, pool.get());
    if (tight) CandidateFinderTestAccess::set_batch_sites(*finder, kSmallBatch);
  }

  PowerModel& model() {
    return timed_model ? static_cast<PowerModel&>(*timed_model) : est;
  }

  /// Harvests both ways and compares; returns the pruned harvest.
  std::vector<CandidateSub> harvest(const std::string& label) {
    model().refresh();
    std::vector<CandidateSub> pruned = finder->find();
    const std::size_t sites = finder->last_sites();
    const std::size_t matched = finder->last_sites_matched();
    const std::size_t truncated = finder->last_truncated();
    const std::vector<CandidateSub> full =
        CandidateFinderTestAccess::unpruned(*finder);
    expect_same(pruned, full, label);
    EXPECT_EQ(finder->last_sites(), sites) << label;
    EXPECT_EQ(finder->last_sites_matched(), sites) << label;
    EXPECT_LE(matched, sites) << label;
    EXPECT_LE(truncated, finder->last_truncated()) << label;
    for (const CandidateSub& c : full) {
      const double bound = CandidateFinderTestAccess::bound(*finder, c);
      EXPECT_FALSE(c.preselect_gain() >
                   bound + CandidateFinder::kBoundSlack * std::abs(bound))
          << label << ": target " << c.target << " gain "
          << c.preselect_gain() << " above its site bound " << bound;
      if (c.rep.kind == ReplacementFunction::Kind::kConstant) {
        EXPECT_TRUE(same_bits(c.pg_a, bound)) << label << ": " << c.target;
      }
    }
    ++harvests;
    sites_total += sites;
    matched_total += matched;
    return pruned;
  }

  /// Up to `iterations` harvests; each commits up to `max_commits` greedy
  /// picks that are proved permissible.
  void run(int iterations, int max_commits, const std::string& label) {
    for (int it = 0; it < iterations; ++it) {
      std::vector<CandidateSub> cands =
          harvest(label + " harvest " + std::to_string(harvests));
      int commits = 0;
      while (commits < max_commits) {
        const std::size_t best = select_power_red_subst(
            nl, model(), &cands, opt,
            [&](const CandidateSub& c) {
              return substitution_still_valid(nl, c);
            },
            &stats);
        if (best >= cands.size()) break;
        const CandidateSub chosen = cands[best];
        cands.erase(cands.begin() + static_cast<std::ptrdiff_t>(best));
        AtpgChecker atpg(nl);
        if (atpg.check_replacement(chosen.site(), chosen.rep) !=
            AtpgResult::kUntestable)
          continue;
        journal.apply(chosen);
        model().refresh();
        ++commits;
      }
      if (commits == 0) break;
    }
  }

  Netlist nl;
  std::unique_ptr<ThreadPool> pool;
  Simulator sim;
  PowerEstimator est;
  std::unique_ptr<TimedPowerModel> timed_model;
  PowderOptions opt;
  std::unique_ptr<CandidateFinder> finder;
  SubstJournal journal{&nl};
  SelectionStats stats;
  int harvests = 0;
  std::size_t sites_total = 0;
  std::size_t matched_total = 0;
};

Netlist quick(const std::string& name) {
  return map_aig(make_benchmark(name), lib());
}

class HarvestParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(HarvestParityTest, ZeroDelayGreedyPicks) {
  HarvestBench b(quick(GetParam()), /*timed=*/false, /*tight=*/false, 1);
  b.run(4, 8, GetParam());
  EXPECT_GT(b.journal.size(), 0u);
  HarvestBench tight(quick(GetParam()), /*timed=*/false, /*tight=*/true, 1);
  tight.run(4, 8, GetParam() + " tight");
  EXPECT_LT(tight.matched_total, tight.sites_total);
}

TEST_P(HarvestParityTest, TimedGreedyPicks) {
  HarvestBench b(quick(GetParam()), /*timed=*/true, /*tight=*/true, 1);
  b.run(2, 3, GetParam() + " timed");
  EXPECT_GT(b.harvests, 0);
  EXPECT_LT(b.matched_total, b.sites_total);
}

TEST_P(HarvestParityTest, AfterCommitRollbackStorm) {
  HarvestBench b(quick(GetParam()), /*timed=*/false, /*tight=*/true, 1);
  b.run(2, 8, GetParam());
  // Roll half the commits back (reviving swept slots), compare, then
  // commit on top again.
  const std::size_t undo = b.journal.size() / 2;
  for (std::size_t i = 0; i < undo; ++i) b.journal.rollback_last();
  (void)b.harvest(GetParam() + " after rollback");
  b.run(2, 8, GetParam() + " after storm");
}

INSTANTIATE_TEST_SUITE_P(QuickSuite, HarvestParityTest,
                         ::testing::ValuesIn(quick_suite()),
                         [](const auto& info) { return info.param; });

TEST(HarvestParityScaleTest, Scale500GreedyPicks) {
  HarvestBench b(make_scale_netlist(500), /*timed=*/false, /*tight=*/false,
                 1);
  b.run(3, 20, "scale500");
  EXPECT_GT(b.journal.size(), 0u);
  // The default cap binds on scale500: the bound must prune there.
  EXPECT_LT(b.matched_total, b.sites_total);
}

TEST(HarvestParityScaleTest, Scale500StormAtOneAndFourThreads) {
  HarvestBench serial(make_scale_netlist(500), /*timed=*/false,
                      /*tight=*/false, 1);
  HarvestBench threaded(make_scale_netlist(500), /*timed=*/false,
                        /*tight=*/false, 4);
  for (HarvestBench* b : {&serial, &threaded}) {
    b->run(2, 20, "scale500 storm");
    const std::size_t undo = b->journal.size() / 2;
    for (std::size_t i = 0; i < undo; ++i) b->journal.rollback_last();
  }
  const std::vector<CandidateSub> one = serial.harvest("scale500 1 thread");
  const std::vector<CandidateSub> four =
      threaded.harvest("scale500 4 threads");
  expect_same(four, one, "scale500 1 vs 4 threads");
  EXPECT_EQ(threaded.sites_total, serial.sites_total);
  EXPECT_EQ(threaded.matched_total, serial.matched_total);
  EXPECT_LT(serial.matched_total, serial.sites_total);
}

}  // namespace
}  // namespace powder
