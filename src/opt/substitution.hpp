#pragma once
// Application of resubstitution transforms (paper Definitions 1 and 2,
// generalized by the transform IR in opt/transform.hpp) to the netlist.
//
//   OS2(a,b):     replace stem a by existing signal b (optionally inverted,
//                 which inserts a library inverter).
//   IS2(a,b):     replace one fanout branch of a by b (optionally inverted).
//   OS3(a,b,c):   replace stem a by a NEW 2-input library gate g(b,c).
//   IS3(a,b,c):   replace one branch of a by a new 2-input gate g(b,c).
//   OSK/ISK:      stem/branch replaced by a new k-input gate (k >= 3).
//   OS2 by constant: special case used for unobservable stems.

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "atpg/atpg.hpp"
#include "netlist/edit_plan.hpp"
#include "netlist/netlist.hpp"
#include "opt/transform.hpp"

namespace powder {

/// One cell swap (gate re-sizing), with enough context to swap it back.
struct ResizedCell {
  GateId gate = kNullGate;
  CellId old_cell = kInvalidCell;
  CellId new_cell = kInvalidCell;
};

/// Result of applying a substitution. Besides the forward summary (what
/// changed, for cache updates) it carries the full inverse delta — rewired
/// pins with their previous drivers and the fanin lists of every swept
/// gate — which SubstJournal uses for checkpoint/rollback.
struct AppliedSub {
  std::vector<GateId> removed_gates;  ///< swept MFFC (tombstoned)
  /// Fanin list each removed gate had before the sweep (parallel to
  /// `removed_gates`); input to Netlist::revive_gate on rollback.
  std::vector<std::vector<GateId>> removed_fanins;
  /// Every rewired pin in application order, with its previous driver.
  std::vector<RewiredPin> rewired_pins;
  /// Cell swaps (journal-applied re-sizing commits), application order.
  std::vector<ResizedCell> resized_cells;
  GateId new_gate = kNullGate;        ///< inserted gate (OS3/IS3/inverted)
  /// Gates whose *function* changed and therefore seed re-simulation: the
  /// new gate (if any) and the rewired sinks.
  std::vector<GateId> changed_roots;
  double area_delta = 0.0;            ///< new area minus removed area
};

/// Applies `sub` to `netlist`. The caller must already have established
/// permissibility; this routine only performs the structural edit, sweeps
/// dead logic, and reports what changed. All validation (staleness, library
/// capabilities) happens before the first mutation, so a CheckError from
/// here leaves the netlist untouched.
AppliedSub apply_substitution(Netlist& netlist, const CandidateSub& sub);

/// Describes the edit apply_substitution(netlist, sub) would make, without
/// making it: the inserted gate (under the slot id it would get), the
/// rewired pins in apply order, and the swept cone. Side-effect free; it
/// throws the same CheckError apply_substitution would, before any work.
EditPlan plan_substitution(const Netlist& netlist, const CandidateSub& sub);

/// The replacement's divisor set: the signals an MFFC sweep must keep alive.
/// Allocation-free: a k-input cell's divisors are viewed in place, the pair
/// classes' sources are written to `buf`.
std::span<const GateId> replacement_sources(const CandidateSub& sub,
                                            std::array<GateId, 2>& buf);

/// True when the substitution leaves the target fanout-free, so its whole
/// dominated region dies: a stem substitution, or the branch was the
/// stem's only fanout — unless the replacement itself reads the target
/// (e.g. rewiring a branch of `a` to an inverter of `a`).
bool removes_dominated_region(const Netlist& netlist, const CandidateSub& sub);

/// Cheap structural validity: every referenced gate alive, the branch still
/// wired to the target, sources outside the faulty region (no cycles).
bool substitution_still_valid(const Netlist& netlist, const CandidateSub& sub);

}  // namespace powder
