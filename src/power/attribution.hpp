// Per-gate power attribution: the "where did the savings come from" plane.
//
// The optimizer reports *totals* (initial/final power, per-class deltas);
// this subsystem keeps the per-gate, per-cell, per-class
// breakdown behind them. It is an opt-in sink wired through TraceOptions
// like the audit log and metrics registry: a null pointer costs one branch
// per probe site, so the default path stays inside the observability
// budget (DESIGN.md §10).
//
// Reconciliation is a hard invariant, not a best-effort estimate:
//
//  * `contribution_sum_before/after` are accumulated by sweeping
//    `PowerModel::signal_power(g)` over live non-PO gates in ascending
//    gate-id order — the exact iteration set and summation order of
//    `PowerEstimator::total_power()` (and, after the activity-first fix in
//    glitch.cpp, of `TimedPowerModel::total_power()`), so the sum equals
//    `total_power()` *bitwise*, for both models.
//  * The per-class applied-gain ledger is fed the very doubles the
//    optimizer pushes into its commit log, and unwound at the same
//    end-of-run guard-walk pops, so each class gain equals
//    `diagnostics.resub.by_class[i].gain` bitwise.
//
// The subsystem also subscribes to the netlist delta bus for lifecycle
// accounting (mutation churn, last journal epoch); activities across a
// re-simulated transitive fanout are captured by the sweeps, not by
// replaying deltas.
#ifndef POWDER_POWER_ATTRIBUTION_HPP
#define POWDER_POWER_ATTRIBUTION_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "power/model.hpp"

namespace powder {

/// Document version of the `--attribution-out` JSON. Stability rules follow
/// DESIGN.md §11.4: adding keys does not bump, removing/redefining does.
inline constexpr int kAttributionSchemaVersion = 1;

/// Number of resubstitution classes the ledger tracks. Kept as a local
/// constant so `src/power/` does not depend on the optimizer headers; the
/// optimizer static_asserts it against `kNumResubClasses`.
inline constexpr int kAttributionClasses = 7;

class PowerAttribution final : public NetlistObserver {
 public:
  /// One gate in a heatmap snapshot. Names and cell kinds are copied at
  /// sweep time because the gate may be dead by the time JSON is written.
  struct TopGate {
    GateId gate = kNullGate;
    std::string name;
    std::string cell;
    double power = 0.0;
  };

  /// Per-cell-kind aggregate within one snapshot.
  struct CellAgg {
    double power = 0.0;
    long gates = 0;
  };

  /// One sweep over the live netlist (taken at run start and run end).
  struct Snapshot {
    bool taken = false;
    double sum = 0.0;          ///< == model->total_power(), bitwise
    double total_power = 0.0;  ///< model->total_power() at sweep time
    long gates = 0;            ///< live non-PO gates swept
    std::vector<TopGate> top;  ///< top-K by power desc, ties by id asc
    std::map<std::string, CellAgg> by_cell;
  };

  explicit PowerAttribution(int top_k = 16);
  ~PowerAttribution() override;

  PowerAttribution(const PowerAttribution&) = delete;
  PowerAttribution& operator=(const PowerAttribution&) = delete;

  /// Binds to a run: attaches to the delta bus and takes the "before"
  /// sweep. Called by the optimizer once the power model is constructed
  /// and refreshed.
  void begin_run(const Netlist* netlist, const PowerModel* model);

  /// Takes the "after" sweep and detaches from the delta bus. Safe to
  /// call once after begin_run; the optimizer calls it right after the
  /// final `total_power()` read.
  void end_run();

  /// Ledger feed: called at every commit-log push with the same class tag
  /// and power delta the optimizer records.
  void record_commit(int cls, double power_delta);

  /// Ledger unwind: called at every end-of-run guard-walk pop (last
  /// recorded commit first), mirroring the optimizer's own `-=`.
  void record_rollback();

  // NetlistObserver: lifecycle accounting only.
  void on_delta(const NetlistDelta& delta) override;

  const Snapshot& before() const { return before_; }
  const Snapshot& after() const { return after_; }
  double class_gain(int cls) const { return class_gain_[cls]; }
  long class_applied(int cls) const { return class_applied_[cls]; }
  long commits_recorded() const { return commits_recorded_; }
  long rollbacks_recorded() const { return rollbacks_recorded_; }
  long long deltas_observed() const { return deltas_observed_; }

  /// Serializes the whole attribution document (single line, key order
  /// fixed, doubles at %.17g so bitwise-equal values render identically).
  std::string to_json() const;

 private:
  struct LedgerEntry {
    int cls = 0;
    double power_delta = 0.0;
  };

  void sweep(Snapshot* out) const;

  int top_k_;
  const Netlist* netlist_ = nullptr;   ///< borrowed; null outside a run
  const PowerModel* model_ = nullptr;  ///< borrowed; null outside a run
  std::string model_name_;             ///< captured at begin_run
  bool attached_ = false;

  Snapshot before_;
  Snapshot after_;

  std::vector<LedgerEntry> ledger_;  ///< aligned with the commit log
  double class_gain_[kAttributionClasses] = {};
  long class_applied_[kAttributionClasses] = {};
  /// Running aggregate over every ledger entry, written as the document's
  /// one `by_window` entry (window -1).
  long ledger_commits_ = 0;
  double ledger_gain_ = 0.0;
  long commits_recorded_ = 0;
  long rollbacks_recorded_ = 0;
  long long deltas_observed_ = 0;
  std::uint64_t last_epoch_ = 0;
};

/// Validates an `--attribution-out` document: schema shape, the exact
/// sum == total_power reconciliation on both snapshots, descending top-K
/// order, all seven classes present, and the class-gain ledger summing to
/// the observed power drop (FP-tolerant; the telescoped commit deltas and
/// the end-to-end subtraction accumulate in different orders). Returns
/// true on success; fills `*error` otherwise.
bool validate_attribution_json(const std::string& text, std::string* error);

}  // namespace powder

#endif  // POWDER_POWER_ATTRIBUTION_HPP
