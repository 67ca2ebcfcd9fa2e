#include "opt/substitution.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace powder {

const char* resub_class_name(ResubClass c) {
  switch (c) {
    case ResubClass::kOS2: return "OS2";
    case ResubClass::kIS2: return "IS2";
    case ResubClass::kOS3: return "OS3";
    case ResubClass::kIS3: return "IS3";
    case ResubClass::kOSK: return "OSK";
    case ResubClass::kISK: return "ISK";
    case ResubClass::kFuncRed: return "FUNCRED";
  }
  return "?";
}

const char* subst_class_name(SubstClass c) { return resub_class_name(c); }

namespace {

/// Everything apply_substitution validates before its first mutation, so a
/// CheckError never leaves the netlist half-modified.
void check_applicable(const Netlist& netlist, const CandidateSub& sub) {
  POWDER_CHECK_MSG(substitution_still_valid(netlist, sub),
                   "applying a stale substitution");
  const CellLibrary& lib = netlist.library();
  switch (sub.rep.kind) {
    case ReplacementFunction::Kind::kConstant:
      POWDER_CHECK_MSG((sub.rep.constant_value ? lib.const1()
                                               : lib.const0()) != kInvalidCell,
                       "library lacks constant cells");
      break;
    case ReplacementFunction::Kind::kSignal:
      if (sub.rep.invert_b)
        POWDER_CHECK_MSG(lib.inverter() != kInvalidCell,
                         "library lacks an inverter");
      break;
    case ReplacementFunction::Kind::kTwoInput:
      POWDER_CHECK(sub.new_cell != kInvalidCell);
      POWDER_CHECK(!sub.rep.invert_b && !sub.rep.invert_c);
      break;
    case ReplacementFunction::Kind::kCell:
      POWDER_CHECK(sub.new_cell != kInvalidCell);
      POWDER_CHECK(!sub.rep.divisors.empty());
      break;
  }
}

}  // namespace

std::vector<GateId> replacement_sources(const CandidateSub& sub) {
  std::vector<GateId> sources;
  sources.reserve(static_cast<std::size_t>(sub.rep.num_sources()));
  for (int i = 0; i < sub.rep.num_sources(); ++i)
    sources.push_back(sub.rep.source(i));
  return sources;
}

bool removes_dominated_region(const Netlist& netlist,
                              const CandidateSub& sub) {
  for (int i = 0; i < sub.rep.num_sources(); ++i)
    if (sub.rep.source(i) == sub.target) return false;
  if (!sub.branch.has_value()) return true;
  return netlist.num_fanouts(sub.target) == 1;
}

bool substitution_still_valid(const Netlist& netlist,
                              const CandidateSub& sub) {
  if (sub.target >= netlist.num_slots() || !netlist.alive(sub.target))
    return false;
  if (sub.branch.has_value()) {
    const FanoutRef& br = *sub.branch;
    if (br.gate >= netlist.num_slots() || !netlist.alive(br.gate))
      return false;
    if (br.pin >= netlist.num_fanins(br.gate) ||
        netlist.fanin(br.gate, br.pin) != sub.target)
      return false;
  } else {
    // OS: target must be a removable cell gate that still has fanout.
    if (netlist.kind(sub.target) != GateKind::kCell) return false;
    if (netlist.fanouts(sub.target).empty()) return false;
  }
  // Sources must be alive and outside the faulty region.
  const GateId entry =
      sub.branch.has_value() ? sub.branch->gate : sub.target;
  auto source_ok = [&](GateId s) {
    if (s >= netlist.num_slots() || !netlist.alive(s)) return false;
    if (s == entry) return false;
    return !netlist.in_tfo(entry, s);
  };
  for (int i = 0; i < sub.rep.num_sources(); ++i) {
    const GateId s = sub.rep.source(i);
    if (!source_ok(s)) return false;
    // For a stem substitution the sources must also differ from the stem
    // itself (replacing a by a is a no-op).
    if (!sub.branch.has_value() && s == sub.target) return false;
  }
  // Rewiring a branch of a back to a itself is a no-op too.
  if (sub.branch.has_value() &&
      sub.rep.kind == ReplacementFunction::Kind::kSignal &&
      sub.rep.b == sub.target && !sub.rep.invert_b)
    return false;
  return true;
}

EditPlan plan_substitution(const Netlist& netlist, const CandidateSub& sub) {
  check_applicable(netlist, sub);
  const CellLibrary& lib = netlist.library();
  EditPlan plan;
  plan.target = sub.target;
  // The replacement driver: the existing signal, or an inserted inverter,
  // constant or library gate over the divisor set.
  GateId driver = kNullGate;
  switch (sub.rep.kind) {
    case ReplacementFunction::Kind::kConstant:
      plan.new_cell = sub.rep.constant_value ? lib.const1() : lib.const0();
      break;
    case ReplacementFunction::Kind::kSignal:
      if (sub.rep.invert_b) {
        plan.new_cell = lib.inverter();
        plan.new_fanins = {sub.rep.b};
      } else {
        driver = sub.rep.b;
      }
      break;
    case ReplacementFunction::Kind::kTwoInput:
      plan.new_cell = sub.new_cell;
      plan.new_fanins = {sub.rep.b, sub.rep.c};
      break;
    case ReplacementFunction::Kind::kCell:
      plan.new_cell = sub.new_cell;
      plan.new_fanins = sub.rep.divisors;
      break;
  }
  if (driver == kNullGate) {
    plan.new_gate = static_cast<GateId>(netlist.num_slots());
    driver = plan.new_gate;
  }

  if (sub.branch.has_value()) {
    plan.rewired_pins.push_back(
        RewiredPin{sub.branch->gate, sub.branch->pin,
                   netlist.fanin(sub.branch->gate, sub.branch->pin), driver});
  } else {
    for (const FanoutRef& br : netlist.fanouts(sub.target))
      plan.rewired_pins.push_back(
          RewiredPin{br.gate, br.pin, sub.target, driver});
  }

  if (netlist.kind(sub.target) == GateKind::kCell &&
      removes_dominated_region(netlist, sub))
    plan.removed_gates = netlist.mffc(sub.target, replacement_sources(sub));
  return plan;
}

AppliedSub apply_substitution(Netlist& netlist, const CandidateSub& sub) {
  const EditPlan plan = plan_substitution(netlist, sub);
  AppliedSub applied;
  GateId driver = plan.new_driver();
  if (plan.new_gate != kNullGate) {
    driver = netlist.add_gate(plan.new_cell, plan.new_fanins);
    POWDER_DCHECK(driver == plan.new_gate);
    applied.new_gate = driver;
    applied.area_delta += netlist.library().cell(plan.new_cell).area;
  }

  if (sub.branch.has_value()) {
    const GateId old_driver =
        netlist.fanin(sub.branch->gate, sub.branch->pin);
    netlist.set_fanin(sub.branch->gate, sub.branch->pin, driver);
    applied.rewired_pins.push_back(
        RewiredPin{sub.branch->gate, sub.branch->pin, old_driver, driver});
    applied.changed_roots.push_back(sub.branch->gate);
  } else {
    // Collect the sinks being rewired: their simulated values can change
    // (within the target's ODC set), so they seed re-simulation.
    for (const FanoutRef& br : netlist.fanouts(sub.target)) {
      applied.rewired_pins.push_back(
          RewiredPin{br.gate, br.pin, sub.target, driver});
      if (std::find(applied.changed_roots.begin(), applied.changed_roots.end(),
                    br.gate) == applied.changed_roots.end())
        applied.changed_roots.push_back(br.gate);
    }
    netlist.replace_all_fanouts(sub.target, driver);
  }
  if (applied.new_gate != kNullGate)
    applied.changed_roots.insert(applied.changed_roots.begin(),
                                 applied.new_gate);

  // Sweep logic that lost its last fanout (the paper's Dom(a) removal; for
  // IS this only triggers when the rewired branch was the last one).
  double removed_area = 0.0;
  if (netlist.kind(sub.target) == GateKind::kCell &&
      netlist.fanouts(sub.target).empty()) {
    applied.removed_gates =
        netlist.remove_gate_recursive(sub.target, &applied.removed_fanins);
    for (GateId g : applied.removed_gates)
      removed_area += netlist.library().cell(netlist.cell_id(g)).area;
  }
  applied.area_delta -= removed_area;
  return applied;
}

}  // namespace powder
