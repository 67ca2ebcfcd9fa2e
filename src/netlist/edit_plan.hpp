#pragma once
// A structural edit described without performing it: what a substitution
// would insert, rewire and sweep (opt/substitution.hpp's plan_substitution
// builds one). Analyses evaluate an edit against the live netlist through
// this description — IncrementalTiming::trial_delay is the delay check of
// the greedy loop — so trying a candidate never mutates the netlist, never
// publishes a delta and never copies it.

#include <vector>

#include "netlist/netlist.hpp"

namespace powder {

/// One rewired input pin, with enough context to rewire it back.
struct RewiredPin {
  GateId sink = kNullGate;
  int pin = 0;
  GateId old_driver = kNullGate;
  GateId new_driver = kNullGate;
};

struct EditPlan {
  /// The signal whose pins are rewired away (every rewired pin's
  /// old_driver).
  GateId target = kNullGate;
  /// The inserted gate, named by the slot applying the edit would give it
  /// (the netlist's num_slots() at planning time); kNullGate when the
  /// replacement is an existing signal. It does not exist in the netlist.
  GateId new_gate = kNullGate;
  CellId new_cell = kInvalidCell;
  std::vector<GateId> new_fanins;  ///< the inserted gate's fanins, pin order
  /// Every rewired pin in application order; the new driver is the inserted
  /// gate or the existing replacement signal.
  std::vector<RewiredPin> rewired_pins;
  /// The dead logic the edit sweeps: the target's fanout-free cone in
  /// Netlist::mffc order (empty when the target keeps a fanout).
  std::vector<GateId> removed_gates;

  /// The signal every rewired pin reads after the edit (a plan always
  /// rewires at least one pin).
  GateId new_driver() const { return rewired_pins.front().new_driver; }
};

}  // namespace powder
