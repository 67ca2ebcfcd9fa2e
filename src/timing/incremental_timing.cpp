#include "timing/incremental_timing.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <span>
#include <utility>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace powder {

namespace {

void clear_seeds(std::vector<GateId>& seeds, GateMap<std::uint8_t>& flags) {
  for (GateId g : seeds) flags[g] = 0;
  seeds.clear();
}

// State of a gate in one trial_delay check (its role in the edit lives in
// the EditOverlay).
constexpr std::uint8_t kQueued = 1;      ///< on the trial heap
constexpr std::uint8_t kHasArrival = 2;  ///< trial arrival differs from live

}  // namespace

IncrementalTiming::IncrementalTiming(const Netlist& netlist, double constraint)
    : netlist_(&netlist), constraint_(constraint) {
  netlist_->attach_observer(this);
}

IncrementalTiming::IncrementalTiming(const Netlist& netlist,
                                     IncrementalTiming& seed)
    : netlist_(&netlist), constraint_(seed.constraint_) {
  POWDER_CHECK_MSG(netlist_->num_slots() == seed.netlist_->num_slots(),
                   "seeded IncrementalTiming needs a structural twin");
  seed.refresh_arrival();
  arrival_ = seed.arrival_;
  topo_ = seed.topo_;
  pos_ = seed.pos_;
  circuit_delay_ = seed.circuit_delay_;
  topo_dirty_ = false;
  arrival_full_ = false;
  required_full_ = true;
  netlist_->attach_observer(this);
}

IncrementalTiming::~IncrementalTiming() { netlist_->detach_observer(this); }

void IncrementalTiming::seed_arrival(GateId g) {
  pending_arrival_flag_.ensure(netlist_->num_slots());
  if (pending_arrival_flag_[g]) return;
  pending_arrival_flag_[g] = 1;
  pending_arrival_.push_back(g);
}

void IncrementalTiming::seed_required(GateId g) {
  pending_required_flag_.ensure(netlist_->num_slots());
  if (pending_required_flag_[g]) return;
  pending_required_flag_[g] = 1;
  pending_required_.push_back(g);
}

void IncrementalTiming::on_delta(const NetlistDelta& delta) {
  switch (delta.kind) {
    case DeltaKind::kFaninChanged:
      // The rewired sink sees a new input arrival; both drivers' loads
      // (hence delays) changed. The required graph changed shape.
      seed_arrival(delta.gate);
      if (delta.old_driver != kNullGate) seed_arrival(delta.old_driver);
      if (delta.new_driver != kNullGate) seed_arrival(delta.new_driver);
      topo_dirty_ = true;
      required_full_ = true;
      break;
    case DeltaKind::kCellChanged: {
      // The swap changes the gate's own drive and its input pin caps, so
      // the delay-dirty set is {g} ∪ fanins(g); required times are dirty
      // for the fanins of every delay-dirty gate.
      seed_arrival(delta.gate);
      for (GateId fi : netlist_->fanins(delta.gate)) {
        seed_arrival(fi);
        seed_required(fi);
        for (GateId ff : netlist_->fanins(fi)) seed_required(ff);
      }
      break;
    }
    case DeltaKind::kGateAdded:
    case DeltaKind::kGateRevived:
      seed_arrival(delta.gate);
      for (GateId fi : delta.fanins) seed_arrival(fi);
      topo_dirty_ = true;
      required_full_ = true;
      break;
    case DeltaKind::kGateRemoved:
      // The tombstoned gate itself is filtered by its dead topo position;
      // its former fanins lost a fanout pin of load.
      for (GateId fi : delta.fanins) seed_arrival(fi);
      topo_dirty_ = true;
      required_full_ = true;
      break;
    case DeltaKind::kRebuilt:
      clear_seeds(pending_arrival_, pending_arrival_flag_);
      clear_seeds(pending_required_, pending_required_flag_);
      arrival_full_ = true;
      required_full_ = true;
      topo_dirty_ = true;
      break;
  }
}

void IncrementalTiming::set_constraint(double constraint) {
  constraint_ = constraint;  // refresh_required() notices a target change
}

void IncrementalTiming::ensure_topo() {
  if (!topo_dirty_) return;
  topo_ = netlist_->topo_order();
  pos_.assign(netlist_->num_slots(), kNoPos);
  for (std::uint32_t i = 0; i < topo_.size(); ++i) pos_[topo_[i]] = i;
  topo_dirty_ = false;
}

double IncrementalTiming::recompute_arrival(GateId g) const {
  if (netlist_->kind(g) == GateKind::kInput) return 0.0;
  double in_arr = 0.0;
  for (GateId fi : netlist_->fanins(g))
    in_arr = std::max(in_arr, arrival_[fi]);
  return in_arr + gate_delay(*netlist_, g);
}

double IncrementalTiming::recompute_required(GateId g, double target) const {
  if (netlist_->kind(g) == GateKind::kOutput) return target;
  double r = std::numeric_limits<double>::infinity();
  for (const FanoutRef& br : netlist_->fanouts(g)) {
    const double rs = required_[br.gate];
    r = std::min(r, netlist_->kind(br.gate) == GateKind::kCell
                        ? rs - gate_delay(*netlist_, br.gate)
                        : rs);
  }
  return r;
}

void IncrementalTiming::set_trace(TraceSession* trace,
                                  MetricsRegistry* metrics) {
  trace_ = trace;
  if (metrics != nullptr) {
    m_resyncs_ = metrics->counter(
        "powder_sta_resyncs_total",
        "Incremental STA refreshes that re-propagated timing");
    h_resync_ns_ = metrics->histogram("powder_sta_resync_duration_ns",
                                      "Wall time per STA resync pass");
  } else {
    m_resyncs_ = nullptr;
    h_resync_ns_ = nullptr;
  }
}

void IncrementalTiming::record_resync(const char* name, std::uint64_t t0,
                                      bool full, std::uint64_t visited) {
  const std::uint64_t dur = trace_now_ns() - t0;
  if (m_resyncs_ != nullptr) {
    m_resyncs_->inc();
    h_resync_ns_->observe(dur);
  }
  if (trace_ != nullptr)
    trace_->record_span(name, "sta", t0, dur, "visited",
                        static_cast<long long>(visited), "full",
                        full ? 1 : 0);
}

void IncrementalTiming::refresh_arrival() {
  if (!arrival_full_ && pending_arrival_.empty()) return;
  const bool was_full = arrival_full_;
  const std::uint64_t t0 = tracing() ? trace_now_ns() : 0;
  const std::uint64_t nv0 = nodes_visited_;
  const Netlist& nl = *netlist_;
  ensure_topo();
  arrival_.ensure(nl.num_slots());

  if (arrival_full_) {
    arrival_.assign(nl.num_slots(), 0.0);
    for (GateId g : topo_) {
      arrival_[g] = recompute_arrival(g);
      ++nodes_visited_;
    }
    clear_seeds(pending_arrival_, pending_arrival_flag_);
    arrival_full_ = false;
  } else {
    using Entry = std::pair<std::uint32_t, GateId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    in_queue_.ensure(nl.num_slots());
    for (GateId g : pending_arrival_) {
      pending_arrival_flag_[g] = 0;
      if (pos_[g] == kNoPos) continue;  // dead (e.g. rolled-back insertion)
      if (!in_queue_[g]) {
        in_queue_[g] = 1;
        heap.emplace(pos_[g], g);
      }
    }
    pending_arrival_.clear();
    while (!heap.empty()) {
      const GateId g = heap.top().second;
      heap.pop();
      in_queue_[g] = 0;
      ++nodes_visited_;
      const double a = recompute_arrival(g);
      if (a == arrival_[g]) continue;  // exact cutoff: fanout unaffected
      arrival_[g] = a;
      for (const FanoutRef& br : nl.fanouts(g)) {
        const GateId s = br.gate;
        if (pos_[s] == kNoPos || in_queue_[s]) continue;
        in_queue_[s] = 1;
        heap.emplace(pos_[s], s);
      }
    }
  }

  circuit_delay_ = 0.0;
  for (GateId o : nl.outputs())
    circuit_delay_ = std::max(circuit_delay_, arrival_[o]);
  full_equiv_visits_ += topo_.size();
  if (tracing())
    record_resync("sta_resync_arrival", t0, was_full, nodes_visited_ - nv0);
}

void IncrementalTiming::refresh_required() {
  refresh_arrival();  // a self-referenced target tracks the circuit delay
  const double target = constraint_ < 0.0 ? circuit_delay_ : constraint_;
  if (target != last_target_) required_full_ = true;
  if (!required_full_ && pending_required_.empty()) return;
  const bool was_full = required_full_;
  const std::uint64_t t0 = tracing() ? trace_now_ns() : 0;
  const std::uint64_t nv0 = nodes_visited_;
  const Netlist& nl = *netlist_;
  ensure_topo();

  if (required_full_) {
    // Mirror of analyze_timing's backward pass — bit-identical by
    // construction.
    required_.assign(nl.num_slots(), std::numeric_limits<double>::infinity());
    for (GateId o : nl.outputs()) required_[o] = target;
    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
      const GateId g = *it;
      ++nodes_visited_;
      if (nl.kind(g) == GateKind::kOutput) {
        const GateId drv = nl.fanin(g, 0);
        required_[drv] = std::min(required_[drv], required_[g]);
        continue;
      }
      const double d = gate_delay(nl, g);
      for (GateId fi : nl.fanins(g))
        required_[fi] = std::min(required_[fi], required_[g] - d);
    }
    clear_seeds(pending_required_, pending_required_flag_);
    required_full_ = false;
  } else {
    using Entry = std::pair<std::uint32_t, GateId>;
    std::priority_queue<Entry> heap;  // max-heap: reverse topological order
    in_queue_.ensure(nl.num_slots());
    for (GateId g : pending_required_) {
      pending_required_flag_[g] = 0;
      if (pos_[g] == kNoPos) continue;
      if (!in_queue_[g]) {
        in_queue_[g] = 1;
        heap.emplace(pos_[g], g);
      }
    }
    pending_required_.clear();
    while (!heap.empty()) {
      const GateId g = heap.top().second;
      heap.pop();
      in_queue_[g] = 0;
      ++nodes_visited_;
      const double r = recompute_required(g, target);
      if (r == required_[g]) continue;
      required_[g] = r;
      for (GateId fi : nl.fanins(g)) {
        if (pos_[fi] == kNoPos || in_queue_[fi]) continue;
        in_queue_[fi] = 1;
        heap.emplace(pos_[fi], fi);
      }
    }
  }
  last_target_ = target;
  full_equiv_visits_ += topo_.size();
  if (tracing())
    record_resync("sta_resync_required", t0, was_full, nodes_visited_ - nv0);
}

void IncrementalTiming::refresh() { refresh_required(); }

double IncrementalTiming::trial_delay(const EditPlan& plan,
                                      std::uint64_t* visits) const {
  const Netlist& nl = *netlist_;
  POWDER_CHECK_MSG(!arrival_full_ && pending_arrival_.empty(),
                   "trial_delay needs refreshed arrival times");
  EditOverlay& edit = trial_edit_;
  edit.reset(nl, plan);
  const GateId virt = plan.new_gate;  // not in the netlist

  if (trial_.size() < nl.num_slots() + 1) trial_.resize(nl.num_slots() + 1);
  if (++trial_stamp_ == 0) {  // wrapped: clear stamps that could alias
    for (TrialSlot& t : trial_) t.stamp = 0;
    trial_stamp_ = 1;
  }
  const std::uint32_t stamp = trial_stamp_;
  trial_heap_.clear();
  trial_written_.clear();

  auto slot = [&](GateId g) -> TrialSlot& {
    TrialSlot& t = trial_[g];
    if (t.stamp != stamp) {
      t.stamp = stamp;
      t.flags = 0;
    }
    return t;
  };
  auto has_arrival = [&](GateId g) {
    const TrialSlot& t = trial_[g];
    return t.stamp == stamp && (t.flags & kHasArrival) != 0;
  };
  auto value = [&](GateId g) {
    return has_arrival(g) ? trial_[g].arrival : arrival_[g];
  };
  auto compute = [&](GateId g) {
    if (g != virt && nl.kind(g) == GateKind::kInput) return 0.0;
    double in_arr = 0.0;
    edit.for_each_fanin(
        g, [&](GateId fi) { in_arr = std::max(in_arr, value(fi)); });
    if (g == virt)
      return in_arr + cell_delay(nl.library().cell(plan.new_cell),
                                 edit.load(virt));
    if (nl.kind(g) != GateKind::kCell) return in_arr;
    return in_arr + (edit.load_changed(g)
                         ? cell_delay(nl.cell_of(g), edit.load(g))
                         : gate_delay(nl, g));
  };
  // Heap keys follow the live topological order; the inserted gate sorts
  // right after its latest fanin. An edit can make a gate read a signal
  // that comes later in that order, so a popped gate may be re-queued when
  // a fanin changes afterwards — the overlay settles at the fixed point,
  // which on the (acyclic) edited netlist is its exact STA.
  auto position = [&](GateId g) -> std::uint32_t {
    return pos_.covers(g) && pos_[g] != kNoPos ? pos_[g] : 0;
  };
  auto enqueue = [&](GateId g) {
    if (edit.removed(g)) return;
    TrialSlot& t = slot(g);
    if ((t.flags & kQueued) != 0) return;
    t.flags |= kQueued;
    std::uint32_t key = 0;
    if (g == virt) {
      for (GateId fi : plan.new_fanins) key = std::max(key, position(fi));
    } else {
      key = position(g);
    }
    trial_heap_.emplace_back(key, g);
    std::push_heap(trial_heap_.begin(), trial_heap_.end(), std::greater<>{});
  };

  // Seeds: every gate whose load or fanins the edit changes. An input
  // arrives at 0 whatever its load.
  for (const GateId g : edit.load_changed_gates())
    if (nl.kind(g) != GateKind::kInput) enqueue(g);
  for (const RewiredPin& rp : plan.rewired_pins) enqueue(rp.sink);
  std::uint64_t n = 0;
  if (virt != kNullGate) {
    // Evaluated up front so its sinks always read a value; it is re-queued
    // if one of its fanins changes.
    TrialSlot& t = slot(virt);
    t.arrival = compute(virt);
    t.flags |= kHasArrival;
    ++n;
  }

  while (!trial_heap_.empty()) {
    std::pop_heap(trial_heap_.begin(), trial_heap_.end(), std::greater<>{});
    const GateId g = trial_heap_.back().second;
    trial_heap_.pop_back();
    TrialSlot& t = trial_[g];
    t.flags &= static_cast<std::uint8_t>(~kQueued);
    ++n;
    const double a = compute(g);
    if ((t.flags & kHasArrival) != 0) {
      if (a == t.arrival) continue;
    } else {
      if (a == arrival_[g]) continue;
      t.flags |= kHasArrival;
      trial_written_.push_back(g);
    }
    t.arrival = a;
    edit.for_each_fanout(g, enqueue);
  }
  if (visits != nullptr) *visits = n;

  // Max over the POs: unchanged POs keep the live maximum unless a changed
  // PO that held it got faster, in which case rescan them all.
  double delay = circuit_delay_;
  bool rescan = false;
  for (GateId g : trial_written_) {
    if (nl.kind(g) != GateKind::kOutput) continue;
    if (trial_[g].arrival < arrival_[g] && arrival_[g] == circuit_delay_)
      rescan = true;
    delay = std::max(delay, trial_[g].arrival);
  }
  if (rescan) {
    delay = 0.0;
    for (GateId o : nl.outputs()) delay = std::max(delay, value(o));
  }
  return delay;
}

double IncrementalTiming::circuit_delay() {
  refresh_arrival();
  return circuit_delay_;
}

double IncrementalTiming::arrival(GateId g) {
  refresh_arrival();
  return arrival_[g];
}

double IncrementalTiming::required(GateId g) {
  refresh_required();
  return required_[g];
}

double IncrementalTiming::slack(GateId g) {
  refresh_required();
  return required_[g] - arrival_[g];
}

}  // namespace powder
