#include "opt/power_gain.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>

#include "util/check.hpp"

namespace powder {

namespace {

/// Calls emit(w, word) for each of the substituting signal's value words
/// under the simulator's current patterns, in word order.
template <class Emit>
void for_each_replacement_word(const Simulator& sim,
                               const ReplacementFunction& rep, Emit&& emit) {
  const auto W = static_cast<std::size_t>(sim.num_words());
  switch (rep.kind) {
    case ReplacementFunction::Kind::kConstant: {
      const std::uint64_t word = rep.constant_value ? ~0ull : 0ull;
      for (std::size_t w = 0; w < W; ++w) emit(w, word);
      break;
    }
    case ReplacementFunction::Kind::kSignal: {
      const auto vb = sim.value(rep.b);
      for (std::size_t w = 0; w < W; ++w)
        emit(w, rep.invert_b ? ~vb[w] : vb[w]);
      break;
    }
    case ReplacementFunction::Kind::kTwoInput: {
      const auto vb = sim.value(rep.b);
      const auto vc = sim.value(rep.c);
      const TruthTable& f = rep.two_input_fn;
      for (std::size_t w = 0; w < W; ++w) {
        std::uint64_t b = vb[w];
        std::uint64_t c = vc[w];
        if (rep.invert_b) b = ~b;
        if (rep.invert_c) c = ~c;
        std::uint64_t r = 0;
        if (f.bit(0)) r |= ~b & ~c;
        if (f.bit(1)) r |= b & ~c;
        if (f.bit(2)) r |= ~b & c;
        if (f.bit(3)) r |= b & c;
        emit(w, r);
      }
      break;
    }
    case ReplacementFunction::Kind::kCell: {
      // k-ary word evaluation: OR together one AND-term per onset minterm.
      const int k = static_cast<int>(rep.divisors.size());
      const TruthTable& f = rep.two_input_fn;
      const std::uint64_t minterms = 1ull << k;
      for (std::size_t w = 0; w < W; ++w) {
        std::uint64_t r = 0;
        for (std::uint64_t m = 0; m < minterms; ++m) {
          if (!f.bit(m)) continue;
          std::uint64_t term = ~0ull;
          for (int v = 0; v < k; ++v) {
            const std::uint64_t dv =
                sim.value(rep.divisors[static_cast<std::size_t>(v)])[w];
            term &= ((m >> v) & 1) ? dv : ~dv;
          }
          r |= term;
        }
        emit(w, r);
      }
      break;
    }
  }
}

}  // namespace

std::vector<std::uint64_t> replacement_words(const Simulator& sim,
                                             const ReplacementFunction& rep) {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(sim.num_words()));
  for_each_replacement_word(
      sim, rep, [&](std::size_t w, std::uint64_t word) { out[w] = word; });
  return out;
}

bool refuted_by_simulation(const Simulator& sim, const CandidateSub& sub) {
  const std::vector<std::uint64_t> words = replacement_words(sim, sub.rep);
  const FanoutRef* branch = sub.branch.has_value() ? &*sub.branch : nullptr;
  const auto diff = sim.output_diff_with_replacement(sub.target, branch, words);
  return std::any_of(diff.begin(), diff.end(),
                     [](std::uint64_t w) { return w != 0; });
}

double compute_pg_a(const Netlist& netlist, const PowerModel& est,
                    const CandidateSub& sub, PgaReads* reads) {
  if (reads != nullptr) {
    reads->cone.push_back(sub.target);
    if (sub.branch.has_value()) reads->cone.push_back(sub.branch->gate);
  }
  if (netlist.kind(sub.target) != GateKind::kCell ||
      !removes_dominated_region(netlist, sub)) {
    // Input substitution on a multi-fanout stem (or a PI driver): only the
    // branch pin's capacitance is unloaded; nothing is pruned.
    if (sub.branch.has_value())
      return netlist.pin_cap(sub.branch->gate, sub.branch->pin) *
             est.activity(sub.target);
    // Stem substitution of a PI signal: the PI remains, its load goes away.
    return netlist.signal_cap(sub.target) * est.activity(sub.target);
  }

  // Dominated-region removal (Eq. 3): the MFFC of the target dies — except
  // for gates the replacement itself keeps alive (its sources may sit
  // inside the cone). The cone stays in the thread's MFFC scratch, which
  // also answers membership.
  std::array<GateId, 2> buf;
  const Netlist::MffcCone cone =
      netlist.mffc_cone(sub.target, replacement_sources(sub, buf));

  double gain = 0.0;
  // First sum: switched capacitance of the pruned gates' signals. The
  // target's own term uses its current load, which the substituting signal
  // inherits (PG_B charges it back at the new activity).
  for (GateId g : cone.gates()) gain += netlist.signal_cap(g) * est.activity(g);
  // Second sum: pins of surviving signals that fed the cone.
  for (GateId g : cone.gates()) {
    const std::span<const GateId> fanins = netlist.fanins(g);
    for (int pin = 0; pin < static_cast<int>(fanins.size()); ++pin) {
      const GateId fi = fanins[static_cast<std::size_t>(pin)];
      if (!cone.contains(fi))
        gain += netlist.pin_cap(g, pin) * est.activity(fi);
    }
  }
  if (reads != nullptr) {
    reads->cone.insert(reads->cone.end(), cone.gates().begin(),
                       cone.gates().end());
    for (GateId g : cone.gates())
      for (GateId fi : netlist.fanins(g))
        if (!cone.contains(fi)) reads->boundary.push_back(fi);
  }
  return gain;
}

double compute_pg_b(const Netlist& netlist, const PowerModel& est,
                    const CandidateSub& sub) {
  const CellLibrary& lib = netlist.library();
  // Load that moves onto the substituting signal.
  const double moved_cap =
      sub.branch.has_value()
          ? netlist.pin_cap(sub.branch->gate, sub.branch->pin)
          : netlist.signal_cap(sub.target);

  switch (sub.rep.kind) {
    case ReplacementFunction::Kind::kConstant:
      return 0.0;  // a constant never switches
    case ReplacementFunction::Kind::kSignal: {
      const double eb = est.activity(sub.rep.b);
      if (!sub.rep.invert_b) return -moved_cap * eb;
      // Inserted inverter: b gains the inverter pin; the inverter output
      // (same activity as b: E(s) is phase-symmetric) drives the load.
      const Cell& inv = lib.cell(lib.inverter());
      return -(inv.pins[0].input_cap * eb + moved_cap * eb);
    }
    case ReplacementFunction::Kind::kTwoInput:
    case ReplacementFunction::Kind::kCell: {
      const Cell& cell = lib.cell(sub.new_cell);
      // The new gate's zero-delay activity 2p(1-p), p its share of ones.
      const Simulator& sim = est.simulator();
      std::uint64_t ones = 0;
      for_each_replacement_word(sim, sub.rep,
                                [&](std::size_t, std::uint64_t word) {
                                  ones += static_cast<std::uint64_t>(
                                      std::popcount(word));
                                });
      const double p = static_cast<double>(ones) /
                       (64.0 * static_cast<double>(sim.num_words()));
      const double e_new = 2.0 * p * (1.0 - p);
      double cost = moved_cap * e_new;
      for (int i = 0; i < sub.rep.num_sources(); ++i)
        cost += cell.pins[static_cast<std::size_t>(i)].input_cap *
                est.activity(sub.rep.source(i));
      return -cost;
    }
  }
  POWDER_CHECK(false);
}

double compute_area_gain(const Netlist& netlist, const CandidateSub& sub) {
  const CellLibrary& lib = netlist.library();
  double gain = 0.0;
  // Inserted gate.
  switch (sub.rep.kind) {
    case ReplacementFunction::Kind::kConstant:
      gain -= lib.cell(sub.rep.constant_value ? lib.const1() : lib.const0())
                  .area;
      break;
    case ReplacementFunction::Kind::kSignal:
      if (sub.rep.invert_b) gain -= lib.cell(lib.inverter()).area;
      break;
    case ReplacementFunction::Kind::kTwoInput:
    case ReplacementFunction::Kind::kCell:
      gain -= lib.cell(sub.new_cell).area;
      break;
  }
  // Removed cone (only when the whole dominated region dies).
  if (netlist.kind(sub.target) == GateKind::kCell &&
      removes_dominated_region(netlist, sub)) {
    std::array<GateId, 2> buf;
    for (GateId g :
         netlist.mffc_cone(sub.target, replacement_sources(sub, buf)).gates())
      gain += netlist.cell_of(g).area;
  }
  return gain;
}

namespace {

/// Zero-delay PG_C: non-destructive trial re-simulation of the TFO region
/// (paper §3.5) against the estimator's cached activities.
double zero_delay_pg_c(const Netlist& netlist, const PowerModel& est,
                       const CandidateSub& sub) {
  const std::vector<std::uint64_t> rep_words =
      replacement_words(est.simulator(), sub.rep);
  const FanoutRef* branch =
      sub.branch.has_value() ? &*sub.branch : nullptr;
  const auto changed =
      est.simulator().trial_new_probs(sub.target, branch, rep_words);
  double gain = 0.0;
  for (const auto& [g, new_p] : changed) {
    if (netlist.kind(g) == GateKind::kOutput) continue;
    const double new_e = 2.0 * new_p * (1.0 - new_p);
    gain += netlist.signal_cap(g) * (est.activity(g) - new_e);
  }
  return gain;
}

/// Timed PG_C: plan the substitution (the same plan the delay check
/// overlays), re-estimate the planned netlist by replaying the event
/// simulation over the edit's cone only (TimedPowerModel::trial_power,
/// bitwise equal to a full estimate of the edited netlist), and book the
/// exact glitch-inclusive delta minus the PG_A + PG_B already carried by
/// `sub` — so pg_a + pg_b + pg_c is the measured timed power saving.
double timed_pg_c(const Netlist& netlist, const TimedPowerModel& est,
                  const CandidateSub& sub) {
  EditPlan plan;
  try {
    plan = plan_substitution(netlist, sub);
  } catch (const CheckError&) {
    // Structurally inapplicable (stale candidate); report a hopeless gain
    // so the loop discards it.
    return -est.total_power();
  }
  return (est.total_power() - est.trial_power(plan)) - sub.pg_a - sub.pg_b;
}

}  // namespace

double compute_pg_c(const Netlist& netlist, const PowerModel& est,
                    const CandidateSub& sub) {
  if (est.kind() == PowerModelKind::kTimed)
    return timed_pg_c(netlist, static_cast<const TimedPowerModel&>(est), sub);
  return zero_delay_pg_c(netlist, est, sub);
}

}  // namespace powder
