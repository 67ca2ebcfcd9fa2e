#pragma once
// Static timing analysis with the paper's linear delay model (§2):
//   D(gate) = tau + C_load * R_drive
// Arrival times propagate from primary inputs; required times from the
// primary outputs given a delay constraint. POWDER consults this to discard
// substitutions that would push the circuit past the constraint (§3.4).

#include "netlist/netlist.hpp"
#include "util/gate_map.hpp"

namespace powder {

struct TimingAnalysis {
  GateMap<double> arrival;   ///< indexed by GateId (signal at output)
  GateMap<double> required;  ///< meaningful after analyze(.., constraint)
  double circuit_delay = 0.0;  ///< max PO arrival

  double slack(GateId g) const { return required[g] - arrival[g]; }
};

/// Delay of a cell driving `load`: tau + C * R. The one spelling of the
/// formula, so every caller rounds it identically.
inline double cell_delay(const Cell& cell, double load) {
  return cell.intrinsic_delay + load * cell.drive_resistance;
}

/// Delay of one gate given its current load.
double gate_delay(const Netlist& netlist, GateId g);

/// Full STA. If `constraint < 0`, required times are computed against the
/// circuit's own delay (zero-slack critical path).
TimingAnalysis analyze_timing(const Netlist& netlist, double constraint = -1.0);

}  // namespace powder
