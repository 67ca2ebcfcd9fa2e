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
//
// The harvest's kernels have their own oracle: the per-pair OS3/IS3 matcher
// and the sorted-copy PG_A / word-vector PG_B they replaced are kept below
// as references. On every site of the quick suite (both power models, and
// with OSK/ISK enabled) and of scale500, before and after greedy commits,
// the site's OS3/IS3 candidates and pair counts must equal the reference
// matcher's, and every candidate's pg_a/pg_b must equal the references bit
// for bit. Synthetic signatures cover a single observable pattern, all-zero
// care words between care words, an empty care set, and W = 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
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
#include "power/model.hpp"
#include "power/power.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
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

  /// One site matched on its own: its pool, its candidates in the site's
  /// order and the pair filter's work there.
  struct SiteMatch {
    GateId target{};
    std::optional<FanoutRef> branch;
    std::vector<GateId> pool;
    std::vector<CandidateSub> cands;
    PairFilterCounts pairs;
  };
  /// Matches every site of the finder's current index (call find() first).
  static std::vector<SiteMatch> match_every_site(const CandidateFinder& f) {
    std::vector<SiteMatch> out;
    for (CandidateFinder::Site site : f.collect_sites()) {
      const FanoutRef* branch = site.branch ? &*site.branch : nullptr;
      site.bound = f.site_bound(site.target, branch);
      SiteMatch m;
      m.target = site.target;
      m.branch = site.branch;
      m.pool = f.site_pool(site.target, branch);
      f.match_site(site, &m.cands);
      m.pairs = site.pairs;
      out.push_back(std::move(m));
    }
    return out;
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

// ---- kernel references ------------------------------------------------

struct RefMatch {
  std::size_t b = 0, c = 0;
  CellId cell = kInvalidCell;
  bool operator==(const RefMatch&) const = default;
};

/// The per-pair OS3/IS3 matcher the kernel replaced: every pair walks the
/// words classifying its four minterms, and every passing pair re-derives
/// each 2-input cell's onset bit by bit and checks that the cell depends on
/// both inputs.
PairFilterCounts reference_pairs(
    std::span<const std::uint64_t> sig_a, std::span<const std::uint64_t> obs,
    const std::vector<std::span<const std::uint64_t>>& pool, int b_limit,
    int cap, std::vector<RefMatch>* out) {
  PairFilterCounts counts;
  const std::size_t W = sig_a.size();
  int made = 0;
  for (int bi = 0; bi < b_limit && made < cap; ++bi) {
    const auto sig_b = pool[static_cast<std::size_t>(bi)];
    for (std::size_t ci = 0; ci < pool.size(); ++ci) {
      if (ci == static_cast<std::size_t>(bi)) continue;
      const auto sig_c = pool[ci];
      ++counts.pairs;
      unsigned need1 = 0, need0 = 0;
      for (std::size_t w = 0; w < W && (need1 & need0) == 0; ++w) {
        const std::uint64_t bw = sig_b[w];
        const std::uint64_t cw = sig_c[w];
        const std::uint64_t on = sig_a[w] & obs[w];
        const std::uint64_t off = ~sig_a[w] & obs[w];
        const std::uint64_t minterms[4] = {~bw & ~cw, bw & ~cw, ~bw & cw,
                                           bw & cw};
        for (unsigned m = 0; m < 4; ++m) {
          if (minterms[m] & on) need1 |= 1u << m;
          if (minterms[m] & off) need0 |= 1u << m;
        }
      }
      if (need1 & need0) continue;
      ++counts.passed;
      for (CellId cell_id : lib().two_input_cells()) {
        const TruthTable& f = lib().cell(cell_id).function;
        unsigned onset = 0;
        for (unsigned m = 0; m < 4; ++m)
          if (f.bit(m)) onset |= 1u << m;
        if ((onset & need1) != need1 || (onset & need0) != 0) continue;
        if (!f.depends_on(0) || !f.depends_on(1)) continue;
        out->push_back(RefMatch{static_cast<std::size_t>(bi), ci, cell_id});
        if (++made >= cap) break;
      }
      if (made >= cap) break;
    }
  }
  return counts;
}

/// The kernel under test, on the same inputs, in RefMatch terms.
PairFilterCounts kernel_pairs(
    std::span<const std::uint64_t> sig_a, std::span<const std::uint64_t> obs,
    const std::vector<std::span<const std::uint64_t>>& pool, int b_limit,
    int cap, std::vector<RefMatch>* out) {
  static const std::vector<ReplacementCell> cells = replacement_cells(lib(), 2);
  std::vector<const std::uint64_t*> sigs;
  for (const auto& sig : pool) sigs.push_back(sig.data());
  std::vector<PairMatch> matches;
  const PairFilterCounts counts =
      filter_pairs(sig_a, obs, sigs, b_limit, cap, cells, &matches);
  for (const PairMatch& m : matches)
    out->push_back(RefMatch{m.b, m.c, cells[m.cell].id});
  return counts;
}

/// The sorted-copy PG_A the stamped one replaced.
double reference_pg_a(const Netlist& netlist, const PowerModel& est,
                      const CandidateSub& sub) {
  if (netlist.kind(sub.target) != GateKind::kCell ||
      !removes_dominated_region(netlist, sub)) {
    if (sub.branch.has_value())
      return netlist.pin_cap(sub.branch->gate, sub.branch->pin) *
             est.activity(sub.target);
    return netlist.signal_cap(sub.target) * est.activity(sub.target);
  }
  std::array<GateId, 2> buf;
  const std::vector<GateId> cone =
      netlist.mffc(sub.target, replacement_sources(sub, buf));
  std::vector<GateId> members = cone;
  std::sort(members.begin(), members.end());
  double gain = 0.0;
  for (GateId g : cone) gain += netlist.signal_cap(g) * est.activity(g);
  for (GateId g : cone) {
    const std::span<const GateId> fanins = netlist.fanins(g);
    for (int pin = 0; pin < static_cast<int>(fanins.size()); ++pin) {
      const GateId fi = fanins[static_cast<std::size_t>(pin)];
      if (!std::binary_search(members.begin(), members.end(), fi))
        gain += netlist.pin_cap(g, pin) * est.activity(fi);
    }
  }
  return gain;
}

/// The word-vector PG_B the word-by-word count replaced (only the new-gate
/// classes changed; the others defer to compute_pg_b).
double reference_pg_b(const Netlist& netlist, const PowerModel& est,
                      const CandidateSub& sub) {
  if (sub.rep.kind != ReplacementFunction::Kind::kTwoInput &&
      sub.rep.kind != ReplacementFunction::Kind::kCell)
    return compute_pg_b(netlist, est, sub);
  const double moved_cap =
      sub.branch.has_value()
          ? netlist.pin_cap(sub.branch->gate, sub.branch->pin)
          : netlist.signal_cap(sub.target);
  const std::vector<std::uint64_t> words =
      replacement_words(est.simulator(), sub.rep);
  std::uint64_t ones = 0;
  for (std::uint64_t w : words)
    ones += static_cast<std::uint64_t>(std::popcount(w));
  const double p =
      static_cast<double>(ones) / (64.0 * static_cast<double>(words.size()));
  const double e_new = 2.0 * p * (1.0 - p);
  const Cell& cell = netlist.library().cell(sub.new_cell);
  double cost = moved_cap * e_new;
  for (int i = 0; i < sub.rep.num_sources(); ++i)
    cost += cell.pins[static_cast<std::size_t>(i)].input_cap *
            est.activity(sub.rep.source(i));
  return -cost;
}

bool is_pair_class(const CandidateSub& c) {
  return c.cls == SubstClass::kOS3 || c.cls == SubstClass::kIS3;
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

  /// Matches every site of the current netlist one by one and checks the
  /// kernels against their references (see the file comment).
  void check_kernels(const std::string& label) {
    model().refresh();
    (void)finder->find();  // refreshes the index the sites are drawn from
    const ResubOptions& resub = opt.candidates.resub;
    for (const auto& site : CandidateFinderTestAccess::match_every_site(*finder)) {
      const std::string where = label + ": target " +
                                std::to_string(site.target) +
                                (site.branch ? " branch" : " stem");
      const auto sig_a = sim.value(site.target);
      const std::vector<std::uint64_t> obs =
          site.branch ? sim.branch_observability(site.target, *site.branch)
                      : sim.stem_observability(site.target);
      std::vector<RefMatch> want;
      PairFilterCounts want_counts;
      if (std::any_of(obs.begin(), obs.end(),
                      [](std::uint64_t w) { return w != 0; })) {
        std::vector<std::span<const std::uint64_t>> pool;
        for (GateId g : site.pool) pool.push_back(sim.value(g));
        want_counts = reference_pairs(
            sig_a, obs, pool,
            std::min<int>(resub.three_sub_b_pool,
                          static_cast<int>(pool.size())),
            resub.max_three_per_target, &want);
      }
      ASSERT_EQ(site.pairs.pairs, want_counts.pairs) << where;
      ASSERT_EQ(site.pairs.passed, want_counts.passed) << where;
      std::vector<const CandidateSub*> got;
      for (const CandidateSub& c : site.cands)
        if (is_pair_class(c)) got.push_back(&c);
      ASSERT_EQ(got.size(), want.size()) << where;
      for (std::size_t i = 0; i < got.size(); ++i) {
        const CandidateSub& c = *got[i];
        ASSERT_EQ(c.rep.kind, ReplacementFunction::Kind::kTwoInput) << where;
        EXPECT_EQ(c.rep.b, site.pool[want[i].b]) << where << " match " << i;
        EXPECT_EQ(c.rep.c, site.pool[want[i].c]) << where << " match " << i;
        EXPECT_EQ(c.new_cell, want[i].cell) << where << " match " << i;
        EXPECT_EQ(c.rep.two_input_fn, lib().cell(want[i].cell).function)
            << where;
      }
      ++kernel_sites;
      three_sub_pairs += site.pairs.pairs;
      for (const CandidateSub& c : site.cands) {
        ASSERT_TRUE(same_bits(c.pg_a, reference_pg_a(nl, model(), c)))
            << where << " " << subst_class_name(c.cls) << " pg_a " << c.pg_a;
        ASSERT_TRUE(same_bits(c.pg_b, reference_pg_b(nl, model(), c)))
            << where << " " << subst_class_name(c.cls) << " pg_b " << c.pg_b;
        ++kernel_candidates;
        if (c.rep.kind == ReplacementFunction::Kind::kCell) ++kernel_k_ary;
        // A source inside the target's MFFC changes the cone PG_A sums.
        if (nl.kind(c.target) == GateKind::kCell &&
            removes_dominated_region(nl, c)) {
          const std::vector<GateId> cone = nl.mffc(c.target);
          for (int i = 0; i < c.rep.num_sources(); ++i)
            if (std::find(cone.begin(), cone.end(), c.rep.source(i)) !=
                cone.end()) {
              ++sources_in_mffc;
              break;
            }
        }
      }
    }
  }

  /// Up to `iterations` harvests; each commits up to `max_commits` greedy
  /// picks that are proved permissible.
  void run(int iterations, int max_commits, const std::string& label) {
    for (int it = 0; it < iterations; ++it) {
      std::vector<CandidateSub> cands =
          harvest(label + " harvest " + std::to_string(harvests));
      SelectionMemo memo(nl, model());
      int commits = 0;
      while (commits < max_commits) {
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
  // check_kernels() coverage.
  std::size_t kernel_sites = 0;
  std::size_t kernel_candidates = 0;
  std::size_t kernel_k_ary = 0;
  std::size_t sources_in_mffc = 0;
  std::uint64_t three_sub_pairs = 0;
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

/// Checks the kernels on every site, then again after a few greedy
/// commits.
void check_kernels_across_commits(HarvestBench& b, const std::string& label) {
  b.check_kernels(label + " initial");
  b.run(1, 6, label);
  b.check_kernels(label + " after commits");
  EXPECT_GT(b.kernel_sites, 0u) << label;
  EXPECT_GT(b.three_sub_pairs, 0u) << label;
}

TEST_P(HarvestParityTest, KernelsMatchReferencesZeroDelay) {
  HarvestBench b(quick(GetParam()), /*timed=*/false, /*tight=*/false, 1);
  check_kernels_across_commits(b, GetParam());
}

TEST_P(HarvestParityTest, KernelsMatchReferencesTimed) {
  HarvestBench b(quick(GetParam()), /*timed=*/true, /*tight=*/false, 1);
  check_kernels_across_commits(b, GetParam() + " timed");
}

TEST_P(HarvestParityTest, KernelsMatchReferencesWithKaryCells) {
  HarvestBench b(quick(GetParam()), /*timed=*/false, /*tight=*/false, 1);
  b.opt.candidates.resub.max_divisors = 3;
  b.finder = std::make_unique<CandidateFinder>(b.nl, b.model(),
                                               b.opt.candidates, b.opt.seed);
  b.check_kernels(GetParam() + " k-ary");
  EXPECT_GT(b.kernel_k_ary, 0u);
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

TEST(HarvestParityScaleTest, Scale500KernelsMatchReferences) {
  HarvestBench b(make_scale_netlist(500), /*timed=*/false, /*tight=*/false,
                 1);
  check_kernels_across_commits(b, "scale500");
  // Sources inside the target's MFFC keep part of the cone alive.
  EXPECT_GT(b.sources_in_mffc, 0u);
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

// ---- synthetic signatures for the pair filter --------------------------

/// Random signatures of W words for the target and a pool of `n` sources.
struct Signatures {
  std::vector<std::uint64_t> a;
  std::vector<std::vector<std::uint64_t>> pool;
  std::vector<std::span<const std::uint64_t>> views() const {
    return {pool.begin(), pool.end()};
  }
};

Signatures random_signatures(std::size_t words, std::size_t n,
                             std::uint64_t seed) {
  Rng rng(seed);
  Signatures s;
  for (std::size_t w = 0; w < words; ++w) s.a.push_back(rng.next64());
  s.pool.resize(n);
  for (auto& sig : s.pool)
    for (std::size_t w = 0; w < words; ++w) sig.push_back(rng.next64());
  return s;
}

/// Kernel vs reference at several b prefixes and caps, with matches and
/// counts equal; returns the number of reference matches at no cap.
std::size_t expect_pair_parity(const Signatures& s,
                               const std::vector<std::uint64_t>& care,
                               const std::string& label) {
  const auto pool = s.views();
  std::size_t uncapped = 0;
  for (int b_limit : {static_cast<int>(pool.size()), 3, 0}) {
    for (int cap : {1 << 20, 6, 1, 0}) {
      std::vector<RefMatch> want, got;
      const PairFilterCounts wc =
          reference_pairs(s.a, care, pool, b_limit, cap, &want);
      const PairFilterCounts gc =
          kernel_pairs(s.a, care, pool, b_limit, cap, &got);
      const std::string where = label + " b_limit " + std::to_string(b_limit) +
                                " cap " + std::to_string(cap);
      EXPECT_EQ(gc.pairs, wc.pairs) << where;
      EXPECT_EQ(gc.passed, wc.passed) << where;
      EXPECT_EQ(got, want) << where;
      if (cap == 1 << 20 && b_limit == static_cast<int>(pool.size()))
        uncapped = want.size();
    }
  }
  return uncapped;
}

TEST(PairFilterSyntheticTest, SingleObservablePattern) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Signatures s = random_signatures(4, 10, seed);
    std::vector<std::uint64_t> care(4, 0);
    care[seed % 4] = 1ull << (seed * 13 % 64);
    // One pattern fixes one minterm: roughly half the cells agree with it.
    EXPECT_GT(expect_pair_parity(s, care, "single pattern"), 0u);
  }
}

TEST(PairFilterSyntheticTest, ZeroCareWordsBetweenCareWords) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Signatures s = random_signatures(6, 10, seed);
    Rng rng(seed + 100);
    std::vector<std::uint64_t> care(6, 0);
    care[0] = rng.next64() & rng.next64();
    care[3] = rng.next64() & rng.next64();
    care[5] = rng.next64() & rng.next64();
    // Make the target a cell function of two sources on the care words,
    // and disagree everywhere else, so only the care words decide.
    const auto& b = s.pool[1];
    const auto& c = s.pool[4];
    for (std::size_t w = 0; w < 6; ++w)
      s.a[w] = care[w] != 0 ? (b[w] & ~c[w]) | (~b[w] & c[w]) : ~s.a[w];
    EXPECT_GT(expect_pair_parity(s, care, "gapped care"), 0u);
  }
}

TEST(PairFilterSyntheticTest, SingleWord) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Signatures s = random_signatures(1, 12, seed);
    Rng rng(seed + 200);
    std::vector<std::uint64_t> care{rng.next64() & rng.next64() &
                                    rng.next64()};
    expect_pair_parity(s, care, "W=1 random");
    s.a[0] = s.pool[2][0] & s.pool[7][0];  // and2 of two pool entries
    EXPECT_GT(expect_pair_parity(s, care, "W=1 and2"), 0u);
  }
}

TEST(PairFilterSyntheticTest, EmptyCareSetPassesEveryPair) {
  const Signatures s = random_signatures(3, 6, 5);
  const std::vector<std::uint64_t> care(3, 0);
  EXPECT_EQ(expect_pair_parity(s, care, "no care"),
            6u * 5u * replacement_cells(lib(), 2).size());
}

}  // namespace
}  // namespace powder
