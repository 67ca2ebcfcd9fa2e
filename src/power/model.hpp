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
// incrementally (dirty-region resimulation); the timed model invalidates
// its cached estimate on any structural delta and recomputes it lazily on
// refresh() with a fixed seed, so the estimate is a pure function of
// (netlist, options) and identical at any thread count. That pass also
// records a per-pair GlitchTrace, from which trial_power() re-estimates an
// edited copy by replaying only the gates the edit can affect.

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
/// the glitch-inclusive activity estimate on top, invalidated through the
/// delta bus and recomputed lazily by refresh().
class TimedPowerModel final : public PowerModel, public NetlistObserver {
 public:
  TimedPowerModel(PowerEstimator* base, GlitchOptions options);
  ~TimedPowerModel() override;
  TimedPowerModel(const TimedPowerModel&) = delete;
  TimedPowerModel& operator=(const TimedPowerModel&) = delete;

  PowerModelKind kind() const override { return PowerModelKind::kTimed; }
  const Simulator& simulator() const override;
  Simulator& simulator() override;
  void refresh() override;
  double activity(GateId g) const override;
  double probability(GateId g) const override;
  double signal_power(GateId g) const override;
  double total_power() const override { return estimate_.timed_power; }

  void on_delta(const NetlistDelta& delta) override;

  /// The engine options, reused by the gain analysis for trial estimates
  /// of mutated scratch copies (same stimulus, same seed, same budget).
  const GlitchOptions& glitch_options() const { return options_; }
  const GlitchEstimate& estimate() const { return estimate_; }

  /// Timed power of `trial`, a copy of the model's netlist with one local
  /// edit applied: bitwise the estimate_glitch_power(trial,
  /// glitch_options()).timed_power, computed by replay_timed_power from the
  /// trace of the last refresh(). Requires a refreshed model; not for
  /// concurrent callers (it counts into replay_stats()).
  double trial_power(const Netlist& trial) const;

  // Diagnostics: full event-driven recomputations performed, and vector
  // pairs truncated by the event budget across all of them.
  long resim_count() const { return resims_; }
  long event_overflows() const { return overflows_total_; }
  /// Work of the trial_power() replays so far.
  const GlitchReplayStats& replay_stats() const { return replay_stats_; }
  const GlitchTrace& trace() const { return trace_; }

 private:
  const Netlist* netlist_;
  PowerEstimator* base_;
  GlitchOptions options_;
  GlitchEstimate estimate_;
  GlitchTrace trace_;
  mutable GlitchReplayStats replay_stats_;
  bool dirty_ = true;
  long resims_ = 0;
  long overflows_total_ = 0;
};

}  // namespace powder
