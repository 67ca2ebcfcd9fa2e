#include "power/model.hpp"

#include "power/power.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace powder {

const char* power_model_name(PowerModelKind kind) {
  switch (kind) {
    case PowerModelKind::kZeroDelay:
      return "zero-delay";
    case PowerModelKind::kTimed:
      return "timed";
  }
  POWDER_CHECK(false);
}

TimedPowerModel::TimedPowerModel(PowerEstimator* base, GlitchOptions options)
    : netlist_(&base->simulator().netlist()),
      base_(base),
      options_(std::move(options)) {
  POWDER_CHECK(base_ != nullptr);
  netlist_->attach_observer(this);
  refresh();
}

TimedPowerModel::~TimedPowerModel() { netlist_->detach_observer(this); }

const Simulator& TimedPowerModel::simulator() const {
  return base_->simulator();
}

Simulator& TimedPowerModel::simulator() { return base_->simulator(); }

void TimedPowerModel::on_delta(const NetlistDelta& delta) {
  // Re-sizing swaps a cell for a functionally identical one, but its delay
  // changes, which moves glitches around — every delta kind invalidates.
  (void)delta;
  dirty_ = true;
}

void TimedPowerModel::refresh() {
  base_->refresh();
  if (!dirty_) return;
  estimate_ = estimate_glitch_power(*netlist_, options_, &trace_);
  overflows_total_ += estimate_.event_overflows;
  ++resims_;
  dirty_ = false;
}

double TimedPowerModel::trial_power(const Netlist& trial) const {
  POWDER_CHECK_MSG(!dirty_, "trial_power() on a model that needs refresh()");
  return replay_timed_power(*netlist_, trace_, trial, options_,
                            &replay_stats_);
}

double TimedPowerModel::activity(GateId g) const {
  return g < estimate_.timed_activity.size() ? estimate_.timed_activity[g]
                                             : 0.0;
}

double TimedPowerModel::probability(GateId g) const {
  return base_->probability(g);
}

double TimedPowerModel::signal_power(GateId g) const {
  return netlist_->signal_cap(g) * activity(g);
}

}  // namespace powder
