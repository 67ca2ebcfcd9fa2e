#include "power/model.hpp"

#include <cstring>

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

namespace {
/// ModelChangeLog bound: past this the consumer is clearly not draining (or
/// the circuit churned wholesale) and the log degrades to `full`.
constexpr std::size_t kChangeLogCap = 1 << 16;
}  // namespace

void ModelChangeLog::record(std::span<const GateId> gates) {
  if (pending_.full) return;
  if (pending_.gates.size() + gates.size() > kChangeLogCap) {
    mark_full();
    return;
  }
  pending_.gates.insert(pending_.gates.end(), gates.begin(), gates.end());
}

void ModelChangeLog::mark_full() {
  pending_.full = true;
  pending_.gates.clear();
}

ModelChanges ModelChangeLog::drain() {
  ModelChanges out;
  std::swap(out, pending_);
  return out;
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
  // and its pins' loads change, which moves glitches around: every kind of
  // delta seeds the next refresh.
  switch (delta.kind) {
    case DeltaKind::kFaninChanged:
      // The sink reads a new signal; both drivers' loads changed.
      changed_.push_back(delta.gate);
      if (delta.old_driver != kNullGate) loaded_.push_back(delta.old_driver);
      if (delta.new_driver != kNullGate) loaded_.push_back(delta.new_driver);
      break;
    case DeltaKind::kCellChanged:
      changed_.push_back(delta.gate);
      for (const GateId fi : netlist_->fanins(delta.gate))
        loaded_.push_back(fi);
      break;
    case DeltaKind::kGateAdded:
      // A new input would change the stimulus itself.
      if (delta.gate_kind != GateKind::kCell) {
        rebuild_ = true;
        break;
      }
      [[fallthrough]];
    case DeltaKind::kGateRevived:
    case DeltaKind::kGateRemoved:
      // The slot (whose record a removal clears) and the fanins whose
      // loads gained or lost its pins.
      changed_.push_back(delta.gate);
      for (const GateId fi : delta.fanins) loaded_.push_back(fi);
      break;
    case DeltaKind::kRebuilt:
      rebuild_ = true;
      break;
  }
}

void TimedPowerModel::refresh() {
  base_->refresh();
  if (!stale()) return;
  if (rebuild_) {
    estimate_ = estimate_glitch_power(*netlist_, options_, &trace_);
    ++resims_;
    changes_.mark_full();
  } else {
    // The refresh rewrites every activity; keep the old ones by swapping.
    before_.swap(estimate_.timed_activity);
    const GlitchReplayStats done = replayer_.refresh(
        *netlist_, changed_, loaded_, options_, &trace_, &estimate_);
    refresh_stats_.cone_gates += done.cone_gates;
    refresh_stats_.fallback_pairs += done.fallback_pairs;
    ++cone_refreshes_;
    const std::vector<double>& after = estimate_.timed_activity;
    for (const GateId g : replayer_.refreshed_slots())
      if (g >= before_.size() ||
          std::memcmp(&before_[g], &after[g], sizeof(double)) != 0)
        changes_.record({&g, 1});
  }
  overflows_total_ += estimate_.event_overflows;
  rebuild_ = false;
  changed_.clear();
  loaded_.clear();
}

double TimedPowerModel::trial_power(const EditPlan& plan) const {
  POWDER_CHECK_MSG(!stale(), "trial_power() on a model that needs refresh()");
  return replayer_.trial_power(*netlist_, trace_, plan, options_,
                               &replay_stats_);
}

ModelChanges TimedPowerModel::drain_changes() const {
  ModelChanges out = base_->drain_changes();
  ModelChanges own = changes_.drain();
  out.full = out.full || own.full;
  if (out.full)
    out.gates.clear();
  else
    out.gates.insert(out.gates.end(), own.gates.begin(), own.gates.end());
  return out;
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
