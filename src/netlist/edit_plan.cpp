#include "netlist/edit_plan.hpp"

#include "util/check.hpp"

namespace powder {

void EditOverlay::mark(GateId g, std::uint8_t flag) {
  Role& r = roles_[g];
  if (r.stamp != stamp_) {
    r.stamp = stamp_;
    r.flags = 0;
  }
  r.flags |= flag;
}

void EditOverlay::reset(const Netlist& netlist, const EditPlan& plan) {
  POWDER_CHECK(!plan.rewired_pins.empty());
  POWDER_CHECK(plan.new_gate == kNullGate ||
               plan.new_gate == netlist.num_slots());
  nl_ = &netlist;
  plan_ = &plan;
  driver_ = plan.new_driver();
  if (roles_.size() < netlist.num_slots() + 1)
    roles_.resize(netlist.num_slots() + 1);
  if (++stamp_ == 0) {  // wrapped: clear stamps that could alias
    for (Role& r : roles_) r.stamp = 0;
    stamp_ = 1;
  }
  load_changed_.clear();

  for (const GateId g : plan.removed_gates) mark(g, kRemoved);
  for (const RewiredPin& rp : plan.rewired_pins) mark(rp.sink, kRewiredSink);
  auto changed = [&](GateId g) {
    if (removed(g) || load_changed(g)) return;
    mark(g, kLoadChanged);
    load_changed_.push_back(g);
  };
  if (plan.removed_gates.empty()) changed(plan.target);
  if (plan.new_gate == kNullGate) changed(driver_);
  for (const GateId fi : plan.new_fanins) changed(fi);
  for (const GateId r : plan.removed_gates)
    for (const GateId fi : netlist.fanins(r)) changed(fi);
}

double EditOverlay::load(GateId g) const {
  const Netlist& nl = *nl_;
  const EditPlan& plan = *plan_;
  double c = 0.0;
  if (g == plan.new_gate) {
    for (const RewiredPin& rp : plan.rewired_pins)
      c += nl.pin_cap(rp.sink, rp.pin);
    return c;
  }
  const bool is_target = g == plan.target;
  for (const FanoutRef& br : nl.fanouts(g)) {
    if (removed(br.gate)) continue;
    if (is_target && rewired(br.gate, br.pin)) continue;
    c += nl.pin_cap(br.gate, br.pin);
  }
  if (plan.new_gate != kNullGate) {
    const Cell& cell = nl.library().cell(plan.new_cell);
    for (std::size_t i = 0; i < plan.new_fanins.size(); ++i)
      if (plan.new_fanins[i] == g) c += cell.pins[i].input_cap;
  } else if (g == driver_) {
    for (const RewiredPin& rp : plan.rewired_pins)
      c += nl.pin_cap(rp.sink, rp.pin);
  }
  return c;
}

}  // namespace powder
