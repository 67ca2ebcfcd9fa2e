#pragma once
// A structural edit described without performing it: what a substitution
// would insert, rewire and sweep (opt/substitution.hpp's plan_substitution
// builds one). Analyses evaluate an edit against the live netlist through
// this description — IncrementalTiming::trial_delay is the delay check of
// the greedy loop, TimedPowerModel::trial_power its timed PG_C — so trying
// a candidate never mutates the netlist, never publishes a delta and never
// copies it. EditOverlay answers the structural questions both ask.

#include <cstdint>
#include <span>
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

/// The netlist as `plan` would leave it, read through the live netlist: the
/// inserted gate exists (as slot plan.new_gate), the rewired pins read the
/// new driver, and the swept gates are gone. Roles are stamped per plan, so
/// reset() costs what the plan holds and nothing proportional to the
/// netlist; the stamp table only grows. One overlay serves one plan at a
/// time and is not for concurrent use.
class EditOverlay {
 public:
  /// Describes `plan` over `netlist` (both must outlive the next reset()).
  void reset(const Netlist& netlist, const EditPlan& plan);

  const Netlist& netlist() const { return *nl_; }
  const EditPlan& plan() const { return *plan_; }
  /// The inserted gate (kNullGate when the replacement is an existing
  /// signal).
  GateId new_gate() const { return plan_->new_gate; }
  /// Slots the edited netlist has: one more than the live one when the
  /// edit inserts a gate.
  std::size_t num_slots() const {
    return nl_->num_slots() + (plan_->new_gate != kNullGate ? 1 : 0);
  }

  bool removed(GateId g) const { return has(g, kRemoved); }
  bool load_changed(GateId g) const { return has(g, kLoadChanged); }
  /// Every surviving gate whose fanout list the edit changes, once each:
  /// the target when it survives, an existing replacement driver, the
  /// inserted gate's fanins and the fanins of the swept gates.
  const std::vector<GateId>& load_changed_gates() const {
    return load_changed_;
  }

  /// Capacitive load on `g`'s signal after the edit: the edited netlist's
  /// signal_cap, summed in the order the edit leaves the fanout list —
  /// surviving pins (erasure preserves order), then the appended ones (the
  /// inserted gate's pins on its fanins, or the moved pins on an existing
  /// replacement driver). Bit-identical to signal_cap after applying.
  double load(GateId g) const;

  /// Visits the driver of each input pin of `g` after the edit, pin order.
  template <class Fn>
  void for_each_fanin(GateId g, Fn&& fn) const {
    if (g == plan_->new_gate) {
      for (const GateId fi : plan_->new_fanins) fn(fi);
      return;
    }
    const std::span<const GateId> fanins = nl_->fanins(g);
    const bool sink = rewired_sink(g);
    for (int pin = 0; pin < static_cast<int>(fanins.size()); ++pin) {
      const GateId fi = fanins[static_cast<std::size_t>(pin)];
      fn(sink && fi == plan_->target && rewired(g, pin) ? driver_ : fi);
    }
  }

  /// Visits the sink of each fanout branch of `g` after the edit, one call
  /// per pin (a sink reading `g` twice is visited twice).
  template <class Fn>
  void for_each_fanout(GateId g, Fn&& fn) const {
    const GateId virt = plan_->new_gate;
    if (g != virt) {
      const bool is_target = g == plan_->target;
      for (const FanoutRef& br : nl_->fanouts(g)) {
        if (removed(br.gate)) continue;
        if (is_target && rewired(br.gate, br.pin)) continue;
        fn(br.gate);
      }
      if (virt != kNullGate) {
        for (const GateId fi : plan_->new_fanins)
          if (fi == g) fn(virt);
        return;
      }
      if (g != driver_) return;
    }
    for (const RewiredPin& rp : plan_->rewired_pins) fn(rp.sink);
  }

 private:
  static constexpr std::uint8_t kRemoved = 1;      ///< swept by the edit
  static constexpr std::uint8_t kLoadChanged = 2;  ///< fanout list changes
  static constexpr std::uint8_t kRewiredSink = 4;  ///< a pin is rewired

  struct Role {
    std::uint32_t stamp = 0;
    std::uint8_t flags = 0;
  };

  // reset() sizes the table past the inserted gate's slot.
  bool has(GateId g, std::uint8_t flag) const {
    const Role& r = roles_[g];
    return r.stamp == stamp_ && (r.flags & flag) != 0;
  }
  bool rewired_sink(GateId g) const { return has(g, kRewiredSink); }
  /// True when input pin `pin` of `sink` is rewired to the new driver.
  bool rewired(GateId sink, int pin) const {
    if (!rewired_sink(sink)) return false;
    for (const RewiredPin& rp : plan_->rewired_pins)
      if (rp.sink == sink && rp.pin == pin) return true;
    return false;
  }
  void mark(GateId g, std::uint8_t flag);

  const Netlist* nl_ = nullptr;
  const EditPlan* plan_ = nullptr;
  GateId driver_ = kNullGate;
  std::vector<Role> roles_;
  std::uint32_t stamp_ = 0;
  std::vector<GateId> load_changed_;
};

}  // namespace powder
