#include "timing/timing.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace powder {

double gate_delay(const Netlist& netlist, GateId g) {
  if (netlist.kind(g) != GateKind::kCell) return 0.0;
  return cell_delay(netlist.cell_of(g), netlist.signal_cap(g));
}

TimingAnalysis analyze_timing(const Netlist& netlist, double constraint) {
  TimingAnalysis ta;
  ta.arrival.assign(netlist.num_slots(), 0.0);
  ta.required.assign(netlist.num_slots(),
                     std::numeric_limits<double>::infinity());

  const std::vector<GateId>& order = netlist.topo_order();
  for (GateId g : order) {
    if (netlist.kind(g) == GateKind::kInput) {
      ta.arrival[g] = 0.0;
      continue;
    }
    double in_arr = 0.0;
    for (GateId fi : netlist.fanins(g))
      in_arr = std::max(in_arr, ta.arrival[fi]);
    ta.arrival[g] = in_arr + gate_delay(netlist, g);
  }
  for (GateId o : netlist.outputs())
    ta.circuit_delay = std::max(ta.circuit_delay, ta.arrival[o]);

  const double target = constraint < 0.0 ? ta.circuit_delay : constraint;
  for (GateId o : netlist.outputs()) ta.required[o] = target;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const GateId g = *it;
    if (netlist.kind(g) == GateKind::kOutput) {
      // The PO's driver must arrive by the PO's required time.
      const GateId drv = netlist.fanin(g, 0);
      ta.required[drv] = std::min(ta.required[drv], ta.required[g]);
      continue;
    }
    const double d = gate_delay(netlist, g);
    for (GateId fi : netlist.fanins(g))
      ta.required[fi] = std::min(ta.required[fi], ta.required[g] - d);
  }
  return ta;
}

}  // namespace powder
