#include "opt/power_gain.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "util/check.hpp"

namespace powder {

std::vector<std::uint64_t> replacement_words(const Simulator& sim,
                                             const ReplacementFunction& rep) {
  const int W = sim.num_words();
  std::vector<std::uint64_t> out(static_cast<std::size_t>(W), 0);
  switch (rep.kind) {
    case ReplacementFunction::Kind::kConstant:
      if (rep.constant_value)
        for (auto& w : out) w = ~0ull;
      break;
    case ReplacementFunction::Kind::kSignal: {
      const auto vb = sim.value(rep.b);
      for (int w = 0; w < W; ++w)
        out[static_cast<std::size_t>(w)] =
            rep.invert_b ? ~vb[static_cast<std::size_t>(w)]
                         : vb[static_cast<std::size_t>(w)];
      break;
    }
    case ReplacementFunction::Kind::kTwoInput: {
      const auto vb = sim.value(rep.b);
      const auto vc = sim.value(rep.c);
      const TruthTable& f = rep.two_input_fn;
      for (int w = 0; w < W; ++w) {
        std::uint64_t b = vb[static_cast<std::size_t>(w)];
        std::uint64_t c = vc[static_cast<std::size_t>(w)];
        if (rep.invert_b) b = ~b;
        if (rep.invert_c) c = ~c;
        std::uint64_t r = 0;
        if (f.bit(0)) r |= ~b & ~c;
        if (f.bit(1)) r |= b & ~c;
        if (f.bit(2)) r |= ~b & c;
        if (f.bit(3)) r |= b & c;
        out[static_cast<std::size_t>(w)] = r;
      }
      break;
    }
    case ReplacementFunction::Kind::kCell: {
      // k-ary word evaluation: OR together one AND-term per onset minterm.
      const int k = static_cast<int>(rep.divisors.size());
      std::vector<std::span<const std::uint64_t>> vals;
      vals.reserve(static_cast<std::size_t>(k));
      for (const GateId d : rep.divisors) vals.push_back(sim.value(d));
      const TruthTable& f = rep.two_input_fn;
      const std::uint64_t minterms = 1ull << k;
      for (int w = 0; w < W; ++w) {
        std::uint64_t r = 0;
        for (std::uint64_t m = 0; m < minterms; ++m) {
          if (!f.bit(m)) continue;
          std::uint64_t term = ~0ull;
          for (int v = 0; v < k; ++v) {
            const std::uint64_t dv =
                vals[static_cast<std::size_t>(v)][static_cast<std::size_t>(w)];
            term &= ((m >> v) & 1) ? dv : ~dv;
          }
          r |= term;
        }
        out[static_cast<std::size_t>(w)] = r;
      }
      break;
    }
  }
  return out;
}

double words_activity(std::span<const std::uint64_t> words) {
  std::uint64_t ones = 0;
  for (std::uint64_t w : words)
    ones += static_cast<std::uint64_t>(std::popcount(w));
  const double p =
      static_cast<double>(ones) / (64.0 * static_cast<double>(words.size()));
  return 2.0 * p * (1.0 - p);
}

namespace {

/// True when the substitution removes the whole dominated region of the
/// target (stem substitution, or the branch is the stem's only fanout).
/// When the replacement itself reads the target (e.g. rewiring a branch of
/// `a` to an inverter of `a`), the target stays alive and nothing dies.
bool removes_dominated_region(const Netlist& netlist,
                              const CandidateSub& sub) {
  for (int i = 0; i < sub.rep.num_sources(); ++i)
    if (sub.rep.source(i) == sub.target) return false;
  if (!sub.branch.has_value()) return true;
  return netlist.num_fanouts(sub.target) == 1;
}

/// The replacement's divisor set, for MFFC keep-alive computations.
std::vector<GateId> replacement_sources(const CandidateSub& sub) {
  std::vector<GateId> keep_alive;
  keep_alive.reserve(static_cast<std::size_t>(sub.rep.num_sources()));
  for (int i = 0; i < sub.rep.num_sources(); ++i)
    keep_alive.push_back(sub.rep.source(i));
  return keep_alive;
}

}  // namespace

double compute_pg_a(const Netlist& netlist, const PowerModel& est,
                    const CandidateSub& sub) {
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
  // inside the cone).
  const std::vector<GateId> cone =
      netlist.mffc(sub.target, replacement_sources(sub));
  // Cone-sized membership: a sorted copy, searched per fanin.
  std::vector<GateId> members = cone;
  std::sort(members.begin(), members.end());

  double gain = 0.0;
  // First sum: switched capacitance of the pruned gates' signals. The
  // target's own term uses its current load, which the substituting signal
  // inherits (PG_B charges it back at the new activity).
  for (GateId g : cone) gain += netlist.signal_cap(g) * est.activity(g);
  // Second sum: pins of surviving signals that fed the cone.
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
      const double e_new =
          words_activity(replacement_words(est.simulator(), sub.rep));
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
    for (GateId g : netlist.mffc(sub.target, replacement_sources(sub)))
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

/// Timed PG_C: apply the substitution to a scratch copy (the same pattern
/// as the optimizer's trial STA), re-estimate it by replaying the event
/// simulation over the copy's affected cone only (TimedPowerModel::
/// trial_power, bitwise equal to a full estimate of the copy), and book the
/// exact glitch-inclusive delta minus the PG_A + PG_B already carried by
/// `sub` — so pg_a + pg_b + pg_c is the measured timed power saving.
double timed_pg_c(const Netlist& netlist, const TimedPowerModel& est,
                  const CandidateSub& sub) {
  Netlist scratch = netlist;  // copies drop observers: mutations stay local
  try {
    (void)apply_substitution(scratch, sub);
  } catch (const CheckError&) {
    // Structurally inapplicable on the scratch copy (stale candidate);
    // report a hopeless gain so the loop discards it.
    return -est.total_power();
  }
  return (est.total_power() - est.trial_power(scratch)) - sub.pg_a - sub.pg_b;
}

}  // namespace

double compute_pg_c(const Netlist& netlist, const PowerModel& est,
                    const CandidateSub& sub) {
  if (est.kind() == PowerModelKind::kTimed)
    return timed_pg_c(netlist, static_cast<const TimedPowerModel&>(est), sub);
  return zero_delay_pg_c(netlist, est, sub);
}

}  // namespace powder
