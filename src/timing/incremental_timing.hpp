#pragma once
// Incremental static timing: a delta-bus subscriber that keeps arrival and
// required times coherent across netlist mutations (DESIGN.md §6).
//
// The full analyze_timing() recomputes every gate on every query; POWDER's
// §3.4 delay check calls it once per attempted substitution, which makes
// the constraint check the dominant cost on larger circuits. This class
// instead accumulates a dirty region from the published deltas and, on
// refresh, re-propagates only that region:
//  * arrival times flow forward through a topo-position min-heap with an
//    exact-equality early cutoff (a gate whose recomputed arrival is
//    bit-identical does not enqueue its fanouts);
//  * required times flow backward through a max-heap with the same cutoff,
//    using the pull form required[g] = min over sinks s of
//    (required[s] - gate_delay(s)).
// Both recomputations perform the same max/min reductions as the full STA,
// and min/max over doubles are order-independent, so refreshed values are
// bit-identical to analyze_timing() on the same netlist object.
//
// Structural deltas (rewire / add / remove / revive) invalidate the
// required graph wholesale (required_full_); cell swaps — the re-sizing
// pass's bread and butter — take the incremental required path. When the
// delay target is derived from the circuit's own delay (constraint < 0),
// any change of the max PO arrival also forces a full required pass.
//
// The greedy loop's delay check (paper §3.4) asks what the circuit delay
// would be after a candidate edit, without making it: trial_delay() takes
// the edit as an EditPlan and overlays it on the live arrival times. Only
// the gates whose load or fanins the edit changes are recomputed, plus the
// forward cone their new arrivals reach; everything else reads the live
// values. The overlay's scratch is stamped per check, so a check costs
// nothing proportional to the netlist and the netlist is never copied.

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "netlist/edit_plan.hpp"
#include "netlist/netlist.hpp"
#include "timing/timing.hpp"
#include "util/gate_map.hpp"

namespace powder {

class TraceSession;
class MetricsRegistry;

class IncrementalTiming final : public NetlistObserver {
 public:
  /// Attaches to `netlist`'s delta bus (the netlist must outlive this
  /// object). If `constraint < 0`, required times are computed against the
  /// circuit's own delay (zero-slack critical path), like analyze_timing.
  explicit IncrementalTiming(const Netlist& netlist, double constraint = -1.0);

  /// Seeded construction for a structural twin: `netlist` must be
  /// structurally identical to `seed`'s netlist (e.g. a fresh copy of it).
  /// Arrival state is transplanted from `seed` (which is refreshed first)
  /// so the analysis starts warm and only re-propagates mutations made to
  /// the twin afterwards. Used by reference checks and by benchmarks that
  /// time a copy-based evaluation; the optimizer's delay check uses
  /// trial_delay instead.
  IncrementalTiming(const Netlist& netlist, IncrementalTiming& seed);

  ~IncrementalTiming() override;
  IncrementalTiming(const IncrementalTiming&) = delete;
  IncrementalTiming& operator=(const IncrementalTiming&) = delete;

  void on_delta(const NetlistDelta& delta) override;

  /// Attaches observability sinks (both borrowed, either may be null).
  /// Refreshes that actually re-propagate then emit "sta_resync_arrival" /
  /// "sta_resync_required" spans and feed the resync latency histogram.
  void set_trace(TraceSession* trace, MetricsRegistry* metrics);

  double constraint() const { return constraint_; }
  void set_constraint(double constraint);

  /// Brings arrival and required times up to date with every observed
  /// delta. Queries below refresh lazily; call this to pay the cost at a
  /// chosen point instead.
  void refresh();

  /// Max primary-output arrival (refreshes arrival times).
  double circuit_delay();

  double arrival(GateId g);
  double required(GateId g);
  double slack(GateId g);

  /// Circuit delay the netlist would have after applying `plan`, computed
  /// without applying it: bit-identical to analyze_timing() on the edited
  /// netlist. Needs refreshed arrival times (call circuit_delay() first).
  /// Const towards the analysis, but it reuses internal scratch, so calls
  /// must not overlap (the optimizer's single commit thread makes them).
  /// `visits` (optional) receives the number of gate evaluations.
  double trial_delay(const EditPlan& plan,
                     std::uint64_t* visits = nullptr) const;

  /// Live gates in the current topological order: what a full forward STA
  /// evaluates.
  std::size_t live_gates() const { return topo_.size(); }

  // Diagnostics: gates actually re-evaluated by refreshes, and what a full
  // forward+backward STA would have evaluated for the same refreshes.
  std::uint64_t nodes_visited() const { return nodes_visited_; }
  std::uint64_t full_equiv_visits() const { return full_equiv_visits_; }

 private:
  static constexpr std::uint32_t kNoPos = static_cast<std::uint32_t>(-1);

  const Netlist* netlist_;
  double constraint_;
  double last_target_ = -1.0;  ///< target the current required times use

  GateMap<double> arrival_;
  GateMap<double> required_;
  double circuit_delay_ = 0.0;

  std::vector<GateId> topo_;       ///< live gates, topological order
  GateMap<std::uint32_t> pos_;     ///< topo position; kNoPos when dead
  bool topo_dirty_ = true;

  bool arrival_full_ = true;
  bool required_full_ = true;
  std::vector<GateId> pending_arrival_;   ///< dirty seeds, forward pass
  std::vector<GateId> pending_required_;  ///< dirty seeds, backward pass
  GateMap<std::uint8_t> pending_arrival_flag_;
  GateMap<std::uint8_t> pending_required_flag_;
  GateMap<std::uint8_t> in_queue_;  ///< heap dedup, zeroed by each drain

  std::uint64_t nodes_visited_ = 0;
  std::uint64_t full_equiv_visits_ = 0;

  // trial_delay scratch. A slot belongs to the current check only when its
  // stamp equals trial_stamp_; the table grows with the netlist (one slot
  // past it for the planned inserted gate) and is never cleared per check.
  struct TrialSlot {
    double arrival = 0.0;
    std::uint32_t stamp = 0;
    std::uint8_t flags = 0;
  };
  mutable EditOverlay trial_edit_;
  mutable std::vector<TrialSlot> trial_;
  mutable std::uint32_t trial_stamp_ = 0;
  mutable std::vector<std::pair<std::uint32_t, GateId>> trial_heap_;
  mutable std::vector<GateId> trial_written_;

  TraceSession* trace_ = nullptr;
  class Counter* m_resyncs_ = nullptr;
  class Histogram* h_resync_ns_ = nullptr;

  bool tracing() const { return trace_ != nullptr || m_resyncs_ != nullptr; }
  void record_resync(const char* name, std::uint64_t t0, bool full,
                     std::uint64_t visited);

  void seed_arrival(GateId g);
  void seed_required(GateId g);
  void ensure_topo();
  void refresh_arrival();
  void refresh_required();
  double recompute_arrival(GateId g) const;
  double recompute_required(GateId g, double target) const;
};

}  // namespace powder
