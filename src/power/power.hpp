#pragma once
// Zero-delay switched-capacitance power estimation (paper §2).
//
// The reported "power" is sum_i C(i)*E(i) over all signals, exactly like
// Table 1 of the paper (the constant 1/2 V^2 f factor is dropped; it
// cancels in every ratio the experiments report). E(s) = 2 p(s) (1-p(s)).
//
// Three estimators for p(s):
//  * simulation-based (default; supports incremental TFO re-estimation and
//    is what POWDER uses, matching the paper's "reestimate the transitive
//    fanout" step),
//  * independence propagation (gate inputs assumed independent; cheap,
//    used for cross-checks and the power-driven mapper),
//  * exact via BDDs (tests; exponential worst case).

#include <cstdint>
#include <mutex>
#include <vector>

#include "netlist/netlist.hpp"
#include "power/model.hpp"
#include "sim/simulator.hpp"
#include "util/gate_map.hpp"

namespace powder {

/// Simulation-backed zero-delay estimator with incremental update — the
/// default PowerModel implementation. The estimator rides the netlist
/// delta bus through its simulator: after any sequence of mutations, one
/// `refresh()` re-simulates the dirty region and re-derives the cached
/// probabilities/activities of exactly the gates whose value vectors were
/// recomputed (paper: power_estimate_update).
class PowerEstimator : public PowerModel {
 public:
  /// Borrows `simulator` (which must outlive the estimator) and computes
  /// the initial estimate from its current values.
  explicit PowerEstimator(Simulator* simulator);

  PowerModelKind kind() const override { return PowerModelKind::kZeroDelay; }

  const Simulator& simulator() const override { return *sim_; }
  Simulator& simulator() override { return *sim_; }

  /// Recomputes everything from the simulator's current values.
  void estimate_all();

  /// Brings the simulator and the cached activities up to date with every
  /// netlist delta observed since the last refresh. Cheap no-op when the
  /// netlist is unchanged.
  void refresh() override;

  /// Cached activity E(s) of the signal driven by `g`.
  double activity(GateId g) const override { return activity_[g]; }
  /// Cached signal probability p(s).
  double probability(GateId g) const override { return prob_[g]; }

  /// C(s) * E(s) for one signal, with C taken live from the netlist.
  double signal_power(GateId g) const override;

  /// sum_i C(i)*E(i) over all live signals, served from a per-slot term
  /// array (see below). Requires a refreshed estimator.
  double total_power() const override;

  /// The gates whose value words the simulator refreshes changed (every
  /// gate after a full estimate).
  ModelChanges drain_changes() const override { return changes_.drain(); }

 private:
  Simulator* sim_;
  mutable ModelChangeLog changes_;
  GateMap<double> activity_;
  GateMap<double> prob_;

  // Cached totals: term_[g] = signal_cap(g) * activity_[g] for every live
  // non-PO gate and +0.0 elsewhere, current as of netlist epoch
  // terms_epoch_. A refresh re-derives the terms of the gates it
  // re-simulated and of the gates whose load a delta changed. The total
  // is the slot-order sum of the array: the same additions in the same
  // order as the full sum, plus +0.0 terms that leave it bitwise unchanged.
  // It is re-summed lazily, under a mutex, after a term changed.
  std::vector<double> term_;
  std::uint64_t terms_epoch_ = kNoTermsEpoch;
  mutable double total_ = 0.0;
  mutable bool total_stale_ = true;
  mutable std::mutex total_mutex_;
  static constexpr std::uint64_t kNoTermsEpoch = ~std::uint64_t{0};

  void refresh_gate(GateId g);
  void refresh_term(GateId g);
  /// Re-derives every term (a full estimate, a rebuilt netlist or an
  /// evicted delta log).
  void refresh_all_terms();
};

/// Independence-assumption propagation: output probability of each gate
/// computed from its cell function and fanin probabilities (inputs treated
/// as independent). Returns p(s) indexed by GateId.
std::vector<double> propagate_signal_probs(const Netlist& netlist,
                                           const std::vector<double>& pi_probs);

/// Exact signal probabilities via global BDDs (small circuits / tests).
std::vector<double> exact_signal_probs(const Netlist& netlist,
                                       const std::vector<double>& pi_probs);

/// sum_i C(i)*E(i) from a probability vector (any of the above sources).
double switched_capacitance(const Netlist& netlist,
                            const std::vector<double>& probs);

/// Reset-state-aware signal probabilities for sequential netlists: latch Q
/// probabilities start from the reset state (0 -> 0.0, 1 -> 1.0,
/// don't-care/unknown -> 0.5) and are damped toward their D probabilities
/// through repeated independence propagation until the fixed point
/// converges (or `max_iterations` runs out). `primary_pi_probs` covers the
/// *non-latch* PIs in inputs() order (empty = all 0.5). Deterministic:
/// same netlist + same probs -> bit-identical result.
std::vector<double> sequential_signal_probs(
    const Netlist& netlist, const std::vector<double>& primary_pi_probs,
    int max_iterations = 64, double damping = 0.5, double tolerance = 1e-9);

/// Expands user-facing PI probabilities (sized to the non-latch PIs, or
/// empty for all 0.5) into a full inputs()-sized stimulus: latch Q entries
/// take their sequential fixed-point probabilities. Combinational netlists
/// pass through unchanged (an empty vector stays empty), keeping the
/// default path bit-identical.
std::vector<double> expand_pi_probs(const Netlist& netlist,
                                    const std::vector<double>& user_probs);

}  // namespace powder
