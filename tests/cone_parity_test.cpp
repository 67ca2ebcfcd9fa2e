// Parity oracle for the O(cone) event kernels (DESIGN.md §6.1). Each fast
// kernel runs next to the whole-netlist code it replaced, kept here as the
// reference:
//
//  * flip-and-diff (stem/branch observability, replacement diffs, trial
//    probabilities): the cone marked with a lease's stamps and sorted by
//    topological position vs the affected set filtered out of the whole
//    topological order, evaluated against a private faulty-value table —
//    equal diff words, equal `changed` sequences, equal evaluation order;
//  * incremental resimulation: the stamped, sorted cone vs the filtered
//    order — equal re-evaluated gates, equal `changed`, and values equal to
//    a fresh simulator's;
//  * cached totals: PowerEstimator::total_power() and Netlist::total_area()
//    vs the full sums over the netlist, bit for bit;
//  * the moved-PO guard vs a compare of every PO word — equal verdicts.
//
// Inputs: greedy commits on the quick suite (zero-delay and timed) and
// scale500; commit/rollback storms with a guard rollback (checked again after
// a rebuild), a delta-log overflow, num_slots growth, resized gates, a full
// refresh and a stamp wraparound forced through SimulatorTestAccess; and
// sharded passes plus concurrent leases from four threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "atpg/atpg.hpp"
#include "benchgen/benchmarks.hpp"
#include "mapper/mapper.hpp"
#include "opt/candidates.hpp"
#include "opt/journal.hpp"
#include "opt/substitution.hpp"
#include "powder.hpp"
#include "power/model.hpp"
#include "power/power.hpp"
#include "sim/simulator.hpp"
#include "util/thread_pool.hpp"

namespace powder {

struct SimulatorTestAccess {
  /// The gates a flip-and-diff pass from `frontier` evaluates, in order.
  static std::vector<GateId> pass_order(const Simulator& sim,
                                        GateId frontier) {
    const Simulator::ScratchLease lease = sim.acquire_scratch();
    std::vector<GateId> order;
    sim.cone_in_topo_order(lease->cone, {&frontier, 1}, false, &order);
    return order;
  }
  /// Moves the stamp epoch of every pooled lease and of the resimulation
  /// marks to `epoch`, so the next few cones wrap around.
  static void set_epochs(Simulator& sim, std::uint32_t epoch) {
    std::lock_guard<std::mutex> lock(sim.scratch_mutex_);
    for (auto& s : sim.scratch_pool_) s->cone.epoch = epoch;
    sim.resim_cone_.epoch = epoch;
  }
  static std::size_t pooled(const Simulator& sim) {
    std::lock_guard<std::mutex> lock(sim.scratch_mutex_);
    return sim.scratch_pool_.size();
  }
  /// True when every pooled lease left its dirty flags clear.
  static bool pool_clean(const Simulator& sim) {
    std::lock_guard<std::mutex> lock(sim.scratch_mutex_);
    for (const auto& s : sim.scratch_pool_) {
      if (!s->dirty_set.empty()) return false;
      if (std::count(s->dirty.begin(), s->dirty.end(), 1) != 0) return false;
      for (const auto& lane : s->lane_dirty)
        if (std::count(lane.begin(), lane.end(), 1) != 0) return false;
    }
    return true;
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

// ---- the references: the whole-netlist code the kernels replaced ---------

/// The transitive fanout of `seeds` (with the seeds when `with_seeds`) as
/// the filter over the whole topological order produced it.
std::vector<GateId> reference_cone(const Netlist& nl,
                                   std::span<const GateId> seeds,
                                   bool with_seeds) {
  std::vector<std::uint8_t> affected(nl.num_slots(), 0);
  std::vector<GateId> stack;
  auto mark = [&](GateId g) {
    if (affected[g]) return;
    affected[g] = 1;
    stack.push_back(g);
  };
  for (const GateId g : seeds) {
    if (with_seeds) {
      mark(g);
    } else {
      for (const FanoutRef& br : nl.fanouts(g)) mark(br.gate);
    }
  }
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (const FanoutRef& br : nl.fanouts(g)) mark(br.gate);
  }
  std::vector<GateId> order;
  for (const GateId g : nl.topo_order())
    if (affected[g]) order.push_back(g);
  return order;
}

/// One flip-and-diff pass the whole-netlist way: the site (stem) or the
/// branch's sink takes the replacement, the cone is re-evaluated in
/// filtered topological order against a private faulty-value table.
struct ReferencePass {
  std::vector<std::uint64_t> diff;
  std::vector<GateId> changed;
  std::vector<double> probs;  // of `changed`, from the faulty words
};

ReferencePass reference_replace(const Simulator& sim, GateId site,
                                const FanoutRef* branch,
                                std::span<const std::uint64_t> rep) {
  const Netlist& nl = sim.netlist();
  const auto nw = static_cast<std::size_t>(sim.num_words());
  std::vector<std::uint8_t> dirty(nl.num_slots(), 0);
  std::vector<std::uint64_t> faulty(nl.num_slots() * nw, 0);
  ReferencePass out;
  out.diff.assign(nw, 0);
  auto words = [&](GateId g) -> const std::uint64_t* {
    return dirty[g] ? &faulty[g * nw] : sim.value(g).data();
  };
  auto eval = [&](GateId g, const FanoutRef* pin_override) {
    std::uint64_t* dest = &faulty[g * nw];
    const std::span<const GateId> fi = nl.fanins(g);
    for (std::size_t w = 0; w < nw; ++w) {
      if (nl.kind(g) == GateKind::kOutput) {
        dest[w] = pin_override != nullptr ? rep[w] : words(fi[0])[w];
        continue;
      }
      std::vector<std::uint64_t> in(fi.size());
      for (std::size_t k = 0; k < fi.size(); ++k) in[k] = words(fi[k])[w];
      if (pin_override != nullptr)
        in[static_cast<std::size_t>(pin_override->pin)] = rep[w];
      dest[w] = sim.evaluator().evaluate(nl.cell_id(g), in);
    }
  };
  auto moved = [&](GateId g) {
    const auto good = sim.value(g);
    return !std::equal(good.begin(), good.end(), &faulty[g * nw]);
  };
  auto record = [&](GateId g) {
    dirty[g] = 1;
    out.changed.push_back(g);
    if (nl.kind(g) == GateKind::kOutput) {
      const auto good = sim.value(g);
      for (std::size_t w = 0; w < nw; ++w)
        out.diff[w] |= faulty[g * nw + w] ^ good[w];
    }
  };
  GateId frontier = site;
  if (branch == nullptr) {
    std::copy(rep.begin(), rep.end(), &faulty[site * nw]);
    dirty[site] = 1;
  } else {
    frontier = branch->gate;
    eval(frontier, branch);
    if (!moved(frontier)) return out;
    record(frontier);
  }
  for (const GateId g : reference_cone(nl, {&frontier, 1}, false)) {
    eval(g, nullptr);
    if (moved(g)) record(g);
  }
  for (const GateId g : out.changed) {
    std::uint64_t ones = 0;
    for (std::size_t w = 0; w < nw; ++w)
      ones += static_cast<std::uint64_t>(std::popcount(faulty[g * nw + w]));
    out.probs.push_back(static_cast<double>(ones) /
                        (64.0 * static_cast<double>(nw)));
  }
  return out;
}

double reference_total_power(const PowerEstimator& est) {
  const Netlist& nl = est.simulator().netlist();
  double total = 0.0;
  for (GateId g = 0; g < nl.num_slots(); ++g)
    if (nl.alive(g) && nl.kind(g) != GateKind::kOutput)
      total += nl.signal_cap(g) * est.activity(g);
  return total;
}

double reference_total_area(const Netlist& nl) {
  double a = 0.0;
  for (GateId g = 0; g < nl.num_slots(); ++g)
    if (nl.alive(g) && nl.kind(g) == GateKind::kCell) a += nl.cell_of(g).area;
  return a;
}

std::vector<std::uint64_t> all_words(const Simulator& sim) {
  std::vector<std::uint64_t> out;
  for (GateId g = 0; g < sim.netlist().num_slots(); ++g) {
    const auto w = sim.value(g);
    out.insert(out.end(), w.begin(), w.end());
  }
  return out;
}

// ---- the bench ------------------------------------------------------------

struct Storm {
  bool rollbacks = false;     ///< undo every third commit
  bool guard = false;         ///< commit a PO-changing edit, then undo it
  bool overflow = false;      ///< > 1024 deltas between two refreshes
  bool growth = false;        ///< add and remove a dangling gate
  bool resize = false;        ///< swap inverter sizes between two checks
  bool full_refresh = false;  ///< a full estimate between two checks
  bool wrap = false;          ///< force every stamp epoch to wrap around
};

struct ConeBench {
  ConeBench(Netlist netlist, bool timed, std::string name, int patterns = 256)
      : nl(std::move(netlist)),
        sim(nl, patterns, {}, kSeed),
        est(&sim),
        resim(nl, patterns, {}, kSeed ^ 0x51ull),
        verify(nl, patterns, {}, kSeed ^ 0x5EC0ull),
        guard(verify),
        journal(&nl),
        label(std::move(name)) {
    if (timed) {
      GlitchOptions glitch;
      glitch.num_vector_pairs = 64;
      timed_model = std::make_unique<TimedPowerModel>(&est, glitch);
      label += " timed";
    }
    finder = std::make_unique<CandidateFinder>(nl, model(), opt.candidates,
                                               kSeed);
    po_snapshot = po_words();
    resim_before = all_words(resim);
    resim_epoch = nl.epoch();
  }

  static constexpr std::uint64_t kSeed = 0xC0DEull;

  PowerModel& model() {
    return timed_model ? static_cast<PowerModel&>(*timed_model) : est;
  }

  std::vector<std::uint64_t> po_words() const {
    std::vector<std::uint64_t> out;
    for (const GateId o : nl.outputs()) {
      const auto w = verify.value(o);
      out.insert(out.end(), w.begin(), w.end());
    }
    return out;
  }

  /// Refreshes every analysis the way the optimizer's resync does and
  /// checks each kernel against its reference.
  void refresh_and_check(const std::string& where) {
    model().refresh();
    check_resimulation(where);
    guard.note(verify.refresh());
    const bool want = po_words() == po_snapshot;
    EXPECT_EQ(guard.ok_full(), want) << where;
    EXPECT_EQ(guard.ok(), want) << where;
    guard_checks += 1;
    guard_failures += want ? 0 : 1;
    EXPECT_TRUE(same_bits(est.total_power(), reference_total_power(est)))
        << where << " total_power " << est.total_power() << " vs "
        << reference_total_power(est);
    EXPECT_TRUE(same_bits(nl.total_area(), reference_total_area(nl)))
        << where << " total_area";
    check_flip_and_diff(where);
  }

  /// The resimulation simulator's refresh vs the filtered order, its
  /// `changed` vs a comparison with the words before, and its values vs a
  /// fresh simulator's.
  void check_resimulation(const std::string& where) {
    const auto deltas = nl.deltas_since(resim_epoch);
    const Simulator::RefreshResult r = resim.refresh();
    if (deltas.has_value() && !r.full) {
      std::vector<GateId> roots;
      for (const NetlistDelta& d : *deltas)
        if (d.kind != DeltaKind::kGateRemoved &&
            d.kind != DeltaKind::kRebuilt && nl.alive(d.gate))
          roots.push_back(d.gate);
      std::vector<GateId> want = reference_cone(nl, roots, true);
      std::erase_if(want, [&](GateId g) {
        return nl.kind(g) == GateKind::kInput;
      });
      EXPECT_EQ(r.gates, want) << where << " resimulated gates";
      std::vector<GateId> changed;
      const auto nw = static_cast<std::size_t>(resim.num_words());
      for (const GateId g : want) {
        const auto now = resim.value(g);
        const bool moved =
            (g + 1) * nw > resim_before.size()
                ? std::any_of(now.begin(), now.end(),
                              [](std::uint64_t w) { return w != 0; })
                : !std::equal(now.begin(), now.end(),
                              resim_before.begin() +
                                  static_cast<std::ptrdiff_t>(g * nw));
        if (moved) changed.push_back(g);
      }
      EXPECT_EQ(r.changed, changed) << where << " changed gates";
      resim_checks += 1;
    }
    Simulator fresh(nl, resim.num_patterns(), {}, kSeed ^ 0x51ull);
    for (GateId g = 0; g < nl.num_slots(); ++g) {
      if (!nl.alive(g)) continue;
      const auto a = resim.value(g);
      const auto b = fresh.value(g);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
          << where << " value of gate " << g;
    }
    resim_before = all_words(resim);
    resim_epoch = nl.epoch();
  }

  /// Stem and branch flip-and-diff passes on a sample of signals.
  void check_flip_and_diff(const std::string& where) {
    const auto nw = static_cast<std::size_t>(sim.num_words());
    const std::size_t stride = std::max<std::size_t>(1, nl.num_slots() / 48);
    for (GateId g = 0; g < nl.num_slots(); g += stride) {
      if (!nl.alive(g) || nl.kind(g) == GateKind::kOutput) continue;
      const std::string at = where + " gate " + std::to_string(g);
      EXPECT_EQ(SimulatorTestAccess::pass_order(sim, g),
                reference_cone(nl, {&g, 1}, false))
          << at << " evaluation order";
      std::vector<std::uint64_t> flipped(nw);
      const auto good = sim.value(g);
      for (std::size_t w = 0; w < nw; ++w) flipped[w] = ~good[w];
      EXPECT_EQ(sim.stem_observability(g),
                reference_replace(sim, g, nullptr, flipped).diff)
          << at << " stem";
      // A replacement by another signal's words: some gates change, some
      // do not, so `changed` is a proper subsequence of the cone.
      const GateId other = nl.inputs()[g % nl.inputs().size()];
      const auto rep = sim.value(other);
      const ReferencePass ref = reference_replace(sim, g, nullptr, rep);
      EXPECT_EQ(sim.output_diff_with_replacement(g, nullptr, rep), ref.diff)
          << at << " replacement";
      expect_trial(sim.trial_new_probs(g, nullptr, rep), ref, at + " trial");
      if (nl.num_fanouts(g) > 0) {
        const FanoutRef br = nl.fanouts(g).back();
        EXPECT_EQ(sim.branch_observability(g, br),
                  reference_replace(sim, g, &br, flipped).diff)
            << at << " branch";
        const ReferencePass bref = reference_replace(sim, g, &br, rep);
        EXPECT_EQ(sim.output_diff_with_replacement(g, &br, rep), bref.diff)
            << at << " branch replacement";
        expect_trial(sim.trial_new_probs(g, &br, rep), bref,
                     at + " branch trial");
      }
      passes += 1;
    }
    EXPECT_TRUE(SimulatorTestAccess::pool_clean(sim)) << where;
  }

  static void expect_trial(const std::vector<std::pair<GateId, double>>& got,
                           const ReferencePass& ref, const std::string& at) {
    ASSERT_EQ(got.size(), ref.changed.size()) << at;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, ref.changed[i]) << at << " position " << i;
      EXPECT_TRUE(same_bits(got[i].second, ref.probs[i])) << at;
    }
  }

  /// A stem replacement by a constant on a PO driver whose words are not
  /// constant: the PO moves, so the guard must refuse it.
  CandidateSub po_breaking_edit() const {
    for (const GateId o : nl.outputs()) {
      const GateId d = nl.fanin(o, 0);
      if (nl.kind(d) != GateKind::kCell) continue;
      const auto w = verify.value(d);
      const bool all0 = std::all_of(w.begin(), w.end(),
                                    [](std::uint64_t x) { return x == 0; });
      const bool all1 = std::all_of(w.begin(), w.end(),
                                    [](std::uint64_t x) { return x == ~0ull; });
      if (all0 || all1) continue;
      CandidateSub c;
      c.cls = ResubClass::kOS2;
      c.target = d;
      c.rep = ReplacementFunction::constant(false);
      return c;
    }
    return {};
  }

  /// Up to `harvests` harvests, each committing up to `max_commits` proved
  /// candidates in harvest order, with `storm`'s events in between.
  void run(int harvests, int max_commits, const Storm& storm) {
    refresh_and_check(label + " start");
    for (int h = 0; h < harvests && !::testing::Test::HasFailure(); ++h) {
      model().refresh();
      const std::vector<CandidateSub> cands = finder->find();
      int commits = 0;
      for (const CandidateSub& c : cands) {
        if (commits >= max_commits || ::testing::Test::HasFailure()) break;
        if (!substitution_still_valid(nl, c)) continue;
        AtpgChecker atpg(nl);
        if (atpg.check_replacement(c.site(), c.rep) != AtpgResult::kUntestable)
          continue;
        journal.apply(c);
        ++commits;
        const std::string where = label + " harvest " + std::to_string(h) +
                                  " commit " + std::to_string(commits);
        refresh_and_check(where);
        if (storm.rollbacks && commits % 3 == 0) {
          journal.rollback_last();
          refresh_and_check(where + " rollback");
          ++rollbacks;
        }
        if (storm.guard && commits == 2) {
          const CandidateSub bad = po_breaking_edit();
          ASSERT_NE(bad.target, kNullGate) << where;
          journal.apply(bad);
          refresh_and_check(where + " bad edit");
          // A failed check keeps its POs: a later check still sees them,
          // and after a full refresh (a rebuilt netlist) all of them.
          refresh_and_check(where + " bad edit, checked again");
          const Netlist copy(nl);
          nl = copy;
          refresh_and_check(where + " bad edit, rebuilt");
          journal.rollback_last();
          refresh_and_check(where + " guard rollback");
          ++guard_rollbacks;
        }
        if (storm.overflow && commits == 4) {
          const std::uint64_t from = nl.epoch();
          while (nl.deltas_since(from).has_value()) {
            journal.rollback_last();
            journal.apply(c);
          }
          refresh_and_check(where + " overflow");
          ++overflows;
        }
        if (storm.growth && commits == 5) {
          const CellId nand2 = lib().find("nand2");
          const std::size_t slots = nl.num_slots();
          const GateId extra =
              nl.add_gate(nand2, {nl.inputs()[0], nl.inputs()[1]});
          refresh_and_check(where + " growth");
          EXPECT_GT(nl.num_slots(), slots);
          nl.remove_single_gate(extra);
          refresh_and_check(where + " growth removed");
          ++growths;
        }
        if (storm.resize && commits == 6) {
          // Same function, other pin caps: the drivers' loads move.
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
          refresh_and_check(where + " resize");
          resizes += swapped;
        }
        if (storm.full_refresh && commits == 7) {
          est.estimate_all();
          refresh_and_check(where + " full refresh");
          ++full_refreshes;
        }
        if (storm.wrap && commits == 1) {
          ASSERT_GT(SimulatorTestAccess::pooled(sim), 0u);
          const std::uint32_t near =
              std::numeric_limits<std::uint32_t>::max() - 3;
          SimulatorTestAccess::set_epochs(sim, near);
          SimulatorTestAccess::set_epochs(resim, near);
          refresh_and_check(where + " wrap");
          ++wraps;
        }
      }
      if (commits == 0) break;
    }
  }

  PowderOptions opt;
  Netlist nl;
  Simulator sim;
  PowerEstimator est;
  std::unique_ptr<TimedPowerModel> timed_model;
  Simulator resim;   // its refresh results are checked
  Simulator verify;  // the guard's simulator
  PoSignatureGuard guard;
  SubstJournal journal;
  std::unique_ptr<CandidateFinder> finder;
  std::string label;
  std::vector<std::uint64_t> po_snapshot;
  std::vector<std::uint64_t> resim_before;
  std::uint64_t resim_epoch = 0;
  long passes = 0;
  long resim_checks = 0;
  long guard_checks = 0;
  long guard_failures = 0;
  long rollbacks = 0;
  long guard_rollbacks = 0;
  long overflows = 0;
  long growths = 0;
  long resizes = 0;
  long full_refreshes = 0;
  long wraps = 0;
};

Netlist quick(const std::string& name) {
  return map_aig(make_benchmark(name), lib());
}

void expect_exercised(const ConeBench& b) {
  EXPECT_GT(b.journal.size(), 0u) << b.label;
  EXPECT_GT(b.passes, 0) << b.label;
  EXPECT_GT(b.resim_checks, 0) << b.label;
  EXPECT_GT(b.guard_checks, 0) << b.label;
}

class ConeParityTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(ConeParityTest, GreedyCommits) {
  const auto& [name, timed] = GetParam();
  ConeBench b(quick(name), timed, name);
  b.run(2, 6, Storm{});
  expect_exercised(b);
}

INSTANTIATE_TEST_SUITE_P(
    QuickSuite, ConeParityTest,
    ::testing::Combine(::testing::Values("comp", "Z5xp1", "rd84", "misex3",
                                         "duke2", "t481"),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_timed" : "_zero_delay");
    });

TEST(ConeParityScaleTest, Scale500GreedyCommits) {
  ConeBench b(make_scale_netlist(500), false, "scale500");
  b.run(2, 10, Storm{});
  expect_exercised(b);
}

TEST(ConeParityStormTest, CommitRollbackStorm) {
  for (const bool timed : {false, true}) {
    for (const char* name : {"misex3", "duke2"}) {
      ConeBench b(quick(name), timed, name);
      b.run(2, 8, Storm{true, true, true, true, true, true, true});
      expect_exercised(b);
      EXPECT_GT(b.rollbacks, 0) << b.label;
      EXPECT_GT(b.guard_rollbacks, 0) << b.label;
      EXPECT_GT(b.guard_failures, 0) << b.label;
      EXPECT_GT(b.overflows, 0) << b.label;
      EXPECT_GT(b.growths, 0) << b.label;
      EXPECT_GT(b.resizes, 0) << b.label;
      EXPECT_GT(b.full_refreshes, 0) << b.label;
      EXPECT_GT(b.wraps, 0) << b.label;
    }
  }
}

TEST(ConeParityStormTest, Scale500Storm) {
  ConeBench b(make_scale_netlist(500), false, "scale500");
  b.run(1, 8, Storm{true, true, true, true, true, true, true});
  expect_exercised(b);
  EXPECT_GT(b.guard_failures, 0);
  EXPECT_GT(b.wraps, 0);
}

// Sharded passes (a pool attached, 1024 patterns = 16 words) and
// concurrent leases (four threads querying at once, the harvest's shape):
// every result equals the serial reference.
TEST(ConeParityThreadsTest, ShardedAndConcurrentPasses) {
  Netlist nl = quick("duke2");
  Simulator sim(nl, 1024, {}, 7);
  ThreadPool pool(3);
  sim.set_thread_pool(&pool);
  std::vector<GateId> gates;
  for (GateId g = 0; g < nl.num_slots(); ++g)
    if (nl.alive(g) && nl.kind(g) != GateKind::kOutput) gates.push_back(g);
  std::vector<std::vector<std::uint64_t>> want(gates.size());
  const auto nw = static_cast<std::size_t>(sim.num_words());
  for (std::size_t i = 0; i < gates.size(); ++i) {
    std::vector<std::uint64_t> flipped(nw);
    const auto good = sim.value(gates[i]);
    for (std::size_t w = 0; w < nw; ++w) flipped[w] = ~good[w];
    want[i] = reference_replace(sim, gates[i], nullptr, flipped).diff;
    // Top level: the pass shards its words across the pool's lanes.
    EXPECT_EQ(sim.stem_observability(gates[i]), want[i]) << gates[i];
    const GateId other = nl.inputs()[i % nl.inputs().size()];
    const auto rep = sim.value(other);
    const ReferencePass ref = reference_replace(sim, gates[i], nullptr, rep);
    ConeBench::expect_trial(sim.trial_new_probs(gates[i], nullptr, rep), ref,
                            "sharded trial " + std::to_string(gates[i]));
  }
  EXPECT_TRUE(SimulatorTestAccess::pool_clean(sim));
  // Inside a parallel region each lane leases its own scratch.
  std::vector<std::vector<std::uint64_t>> got(gates.size());
  pool.for_shards(4, [&](int shard, int shards) {
    for (std::size_t i = static_cast<std::size_t>(shard); i < gates.size();
         i += static_cast<std::size_t>(shards))
      got[i] = sim.stem_observability(gates[i]);
  });
  EXPECT_EQ(got, want);
  EXPECT_TRUE(SimulatorTestAccess::pool_clean(sim));
}

}  // namespace
}  // namespace powder
