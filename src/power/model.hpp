#pragma once
// Pluggable power models (DESIGN.md §13).
//
// The optimizer's economics — PG_A/PG_B preselection, the PG_C shortlist,
// window boundary sampling, reported totals — are written against this
// interface instead of the concrete zero-delay estimator. Two
// implementations exist:
//
//  * PowerEstimator (power.hpp): the paper's zero-delay model,
//    E(s) = 2 p(s)(1-p(s)), incrementally maintained through the
//    simulator. The default; bit-identical to the pre-refactor behavior.
//  * TimedPowerModel (below): the event-driven transport-delay model
//    promoted out of estimate_glitch_power, whose activities include
//    glitches. It layers over a PowerEstimator: signal probabilities are
//    delay-independent and keep coming from the base simulator, while
//    activities and totals come from the timed event simulation.
//
// Both models ride the netlist delta bus. The zero-delay model refreshes
// incrementally (dirty-region resimulation). The timed model runs the full
// event-driven estimate once, with a fixed seed, and records a per-pair
// GlitchTrace of it; afterwards each delta only names the gates it touched,
// and refresh() replays their fanout cone against the record, equal bit
// for bit to a fresh full estimate. The estimate is therefore a pure
// function of (netlist, options) and identical at any thread count.
// trial_power() re-estimates a planned edit the same way, without making
// it.

#include "netlist/netlist.hpp"
#include "power/glitch.hpp"

namespace powder {

class Simulator;
class PowerEstimator;

enum class PowerModelKind : std::uint8_t {
  kZeroDelay,  ///< the paper's model: E(s) = 2 p(s)(1-p(s))
  kTimed,      ///< event-driven transport-delay model, glitches included
};

/// Stable spelling for reports, CLI flags and diagnostics.
const char* power_model_name(PowerModelKind kind);

/// Abstract activity/power oracle the optimization stack is written
/// against. All cached quantities follow the refresh() contract of the
/// zero-delay estimator: call refresh() after mutations, then read.
class PowerModel {
 public:
  virtual ~PowerModel() = default;

  virtual PowerModelKind kind() const = 0;

  /// The pattern simulator backing the model: word-parallel signatures for
  /// candidate harvesting, replacement evaluation and trial re-estimation.
  virtual const Simulator& simulator() const = 0;
  virtual Simulator& simulator() = 0;

  /// Brings the model (and its simulator) up to date with every netlist
  /// delta observed since the last refresh.
  virtual void refresh() = 0;

  /// Cached switching activity of the signal driven by `g` — transitions
  /// per cycle under this model's semantics (may exceed 1 for the timed
  /// model: glitches).
  virtual double activity(GateId g) const = 0;
  /// Cached signal probability p(s) (delay-independent).
  virtual double probability(GateId g) const = 0;
  /// C(s) * activity(s) for one signal.
  virtual double signal_power(GateId g) const = 0;
  /// sum_i C(i) * activity(i) over all live non-PO signals.
  virtual double total_power() const = 0;
};

/// Event-driven timed power model. Borrows a zero-delay estimator (which
/// must outlive it) for probabilities and simulator access, and maintains
/// the glitch-inclusive activity estimate on top: the gates each delta
/// touches are collected, and refresh() re-estimates their cone.
class TimedPowerModel final : public PowerModel, public NetlistObserver {
 public:
  TimedPowerModel(PowerEstimator* base, GlitchOptions options);
  ~TimedPowerModel() override;
  TimedPowerModel(const TimedPowerModel&) = delete;
  TimedPowerModel& operator=(const TimedPowerModel&) = delete;

  PowerModelKind kind() const override { return PowerModelKind::kTimed; }
  const Simulator& simulator() const override;
  Simulator& simulator() override;
  /// Re-estimates the fanout cone of the gates the observed deltas touched
  /// by replaying it against the trace (GlitchReplayer::refresh); a full
  /// estimate runs only on construction and after a kRebuilt delta (or one
  /// that adds an input or output).
  void refresh() override;
  double activity(GateId g) const override;
  double probability(GateId g) const override;
  double signal_power(GateId g) const override;
  double total_power() const override { return estimate_.timed_power; }

  void on_delta(const NetlistDelta& delta) override;

  /// The engine options, reused by the gain analysis for trial estimates
  /// (same stimulus, same seed, same budget).
  const GlitchOptions& glitch_options() const { return options_; }
  const GlitchEstimate& estimate() const { return estimate_; }

  /// Timed power the model's netlist would have with `plan` applied:
  /// bitwise the estimate_glitch_power(edited, glitch_options()).timed_power,
  /// computed by replaying the edit's cone against the trace of the last
  /// refresh(), without applying or copying anything. Requires a refreshed
  /// model; not for concurrent callers (it reuses scratch and counts into
  /// replay_stats()).
  double trial_power(const EditPlan& plan) const;

  // Diagnostics: full event-driven estimates run, cone refreshes run, and
  // vector pairs truncated by the event budget, summed over every refresh
  // that re-estimated something.
  long resim_count() const { return resims_; }
  long cone_refreshes() const { return cone_refreshes_; }
  long event_overflows() const { return overflows_total_; }
  /// Work of the trial_power() replays so far.
  const GlitchReplayStats& replay_stats() const { return replay_stats_; }
  /// Work of the cone refreshes so far.
  const GlitchReplayStats& refresh_stats() const { return refresh_stats_; }
  const GlitchTrace& trace() const { return trace_; }

 private:
  bool stale() const {
    return rebuild_ || !changed_.empty() || !loaded_.empty();
  }

  const Netlist* netlist_;
  PowerEstimator* base_;
  GlitchOptions options_;
  GlitchEstimate estimate_;
  GlitchTrace trace_;
  mutable GlitchReplayer replayer_;
  mutable GlitchReplayStats replay_stats_;
  GlitchReplayStats refresh_stats_;
  /// Seeds of the next refresh: gates whose kind, cell or fanins may have
  /// changed (removed slots included), and gates whose load may have.
  std::vector<GateId> changed_;
  std::vector<GateId> loaded_;
  bool rebuild_ = true;
  long resims_ = 0;
  long cone_refreshes_ = 0;
  long overflows_total_ = 0;
};

}  // namespace powder
