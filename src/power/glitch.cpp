#include "power/glitch.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "timing/timing.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace powder {

namespace {

/// The live netlist as the event loop reads it, with delays from a table.
struct LiveView {
  const Netlist& nl;
  const std::vector<double>& delays;

  GateKind kind(GateId g) const { return nl.kind(g); }
  const TruthTable& function(GateId g) const {
    return nl.cell_of(g).function;
  }
  double delay(GateId g) const { return delays[g]; }
  int num_fanins(GateId g) const { return nl.num_fanins(g); }
  template <class Fn>
  void for_each_fanin(GateId g, Fn&& fn) const {
    for (const GateId fi : nl.fanins(g)) fn(fi);
  }
  template <class Fn>
  void for_each_fanout(GateId g, Fn&& fn) const {
    for (const FanoutRef& br : nl.fanouts(g)) fn(br.gate);
  }
};

/// The netlist with an EditPlan applied, read through its EditOverlay.
/// Delays are the record's, except for the inserted gate and the gates
/// whose load the edit changes (`edited`, valid at exactly those slots).
struct OverlayView {
  const EditOverlay& edit;
  const std::vector<double>& recorded;
  const std::vector<double>& edited;

  bool inserted(GateId g) const { return g == edit.new_gate(); }
  GateKind kind(GateId g) const {
    return inserted(g) ? GateKind::kCell : edit.netlist().kind(g);
  }
  const TruthTable& function(GateId g) const {
    const Netlist& nl = edit.netlist();
    return inserted(g) ? nl.library().cell(edit.plan().new_cell).function
                       : nl.cell_of(g).function;
  }
  double delay(GateId g) const {
    return inserted(g) || edit.load_changed(g) ? edited[g] : recorded[g];
  }
  int num_fanins(GateId g) const {
    return inserted(g) ? static_cast<int>(edit.plan().new_fanins.size())
                       : edit.netlist().num_fanins(g);
  }
  template <class Fn>
  void for_each_fanin(GateId g, Fn&& fn) const {
    edit.for_each_fanin(g, fn);
  }
  template <class Fn>
  void for_each_fanout(GateId g, Fn&& fn) const {
    edit.for_each_fanout(g, fn);
  }
};

/// A replay cone compiled to local ids for the replays' inner loop: the
/// cone's gates are 0..size-1 in topological order, its boundary follows.
/// Fanout lists hold only sinks inside the cone, so the event loop needs no
/// membership test.
struct LocalCone {
  std::size_t size = 0;
  std::vector<GateId> gate;  ///< local id -> GateId
  std::vector<std::uint32_t> fanin_begin, fanin;    ///< cone gates, CSR
  std::vector<std::uint32_t> fanout_begin, fanout;  ///< every node, CSR
  /// Truth table of a cone gate with at most six inputs (a PO reads its
  /// one fanin: table 0b10); wider cells go through `wide`.
  std::vector<std::uint64_t> table;
  std::vector<const TruthTable*> wide;
  std::vector<double> delay;

  void clear() {
    size = 0;
    gate.clear();
    fanin_begin.assign(1, 0);
    fanin.clear();
    fanout_begin.assign(1, 0);
    fanout.clear();
    table.clear();
    wide.clear();
    delay.clear();
  }
};

/// The event loop's view of a LocalCone.
struct LocalView {
  const LocalCone& c;

  double delay(GateId i) const { return c.delay[i]; }
  template <class Fn>
  void for_each_fanout(GateId i, Fn&& fn) const {
    for (std::uint32_t e = c.fanout_begin[i]; e < c.fanout_begin[i + 1]; ++e)
      fn(c.fanout[e]);
  }
};

/// Zero-time value of non-input gate `g` against the current values.
template <class View>
std::uint8_t evaluate(const View& v, GateId g,
                      const std::vector<std::uint8_t>& val) {
  std::uint64_t idx = 0;
  int pin = 0;
  v.for_each_fanin(g, [&](GateId fi) {
    if (val[fi]) idx |= 1ull << pin;
    ++pin;
  });
  if (v.kind(g) == GateKind::kOutput) return static_cast<std::uint8_t>(idx);
  return v.function(g).bit(idx) ? 1 : 0;
}

std::uint8_t evaluate(const LiveView& v, GateId g,
                      const std::vector<std::uint8_t>& val) {
  const Netlist& nl = v.nl;
  if (nl.kind(g) == GateKind::kOutput) return val[nl.fanin(g, 0)];
  const std::span<const GateId> fanins = nl.fanins(g);
  std::uint64_t idx = 0;
  for (std::size_t pin = 0; pin < fanins.size(); ++pin)
    if (val[fanins[pin]]) idx |= 1ull << pin;
  return nl.cell_of(g).function.bit(idx) ? 1 : 0;
}

std::uint8_t evaluate(const LocalView& v, GateId i,
                      const std::vector<std::uint8_t>& val) {
  const LocalCone& c = v.c;
  std::uint64_t idx = 0;
  int pin = 0;
  for (std::uint32_t e = c.fanin_begin[i]; e < c.fanin_begin[i + 1]; ++e)
    idx |= static_cast<std::uint64_t>(val[c.fanin[e]]) << pin++;
  if (c.wide[i] != nullptr) return c.wide[i]->bit(idx) ? 1 : 0;
  return static_cast<std::uint8_t>((c.table[i] >> idx) & 1);
}

/// Steady-state evaluation of the non-input gates of `order` (a
/// topological order); the values they read must already be in `val`.
template <class View>
void settle(const View& v, std::span<const GateId> order,
            std::vector<std::uint8_t>* val) {
  for (GateId g : order)
    if (v.kind(g) != GateKind::kInput) (*val)[g] = evaluate(v, g, *val);
}

/// An event (t, g, v): at time t, signal g takes value v.
struct Event {
  double time;
  GateId gate;
  std::uint8_t value;
  bool operator>(const Event& o) const { return time > o.time; }
};

/// A recorded transition fed into a replay: at `time` the signal of `gate`,
/// which the replay does not simulate, flips.
struct SourceEvent {
  double time;
  GateId gate;
};

/// Working state of the event loop. The batch serial only grows, so the
/// tables carry over from one run to the next without clearing.
struct EdgeScratch {
  /// Min-heap on time, driven by the same push_heap/pop_heap calls as
  /// std::priority_queue, so a given push/pop sequence pops events in the
  /// same order.
  std::vector<Event> heap;
  std::vector<GateId> dirty;
  /// Batch serial and value of each gate's last popped event (tie check).
  std::vector<std::uint64_t> last_batch;
  std::vector<std::uint8_t> last_value;
  std::uint64_t batch = 0;

  void ensure(std::size_t slots) {
    if (last_batch.size() < slots) {
      last_batch.resize(slots, 0);
      last_value.resize(slots, 0);
    }
  }
  void push(const Event& e) {
    heap.push_back(e);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  }
};

struct EdgeOutcome {
  long batches = 0;
  bool overflow = false;  ///< the budget ran out with events pending
  /// Two events of different value for one gate popped in one batch: the
  /// heap's order among them decides the outcome.
  bool tie = false;
};

/// The event loop behind both the full estimate and the cone replays:
/// propagates one v1 -> v2 edge under transport delays. `val` holds the
/// settled v1 values and the heap the initial events; `sources` are
/// transitions of signals the loop does not simulate, in time order. When a
/// signal changes, each fanout gate the view lists is re-evaluated against
/// the *current* values and its new output scheduled after its own delay.
/// Events sharing a timestamp are applied as one batch and the affected
/// gates re-evaluated once — simultaneous input changes must not be
/// serialized into phantom glitches. Every change a heap event
/// makes is reported to on_transition(g, time).
template <class View, class OnTransition>
EdgeOutcome run_edge(const View& v, std::span<const SourceEvent> sources,
                     long budget,
                     bool stop_on_tie, std::vector<std::uint8_t>& val,
                     EdgeScratch& s, OnTransition&& on_transition) {
  EdgeOutcome out;
  std::vector<Event>& heap = s.heap;
  std::size_t next = 0;
  auto dirty_fanouts = [&](GateId g) {
    v.for_each_fanout(g, [&](GateId f) { s.dirty.push_back(f); });
  };
  while ((!heap.empty() || next < sources.size()) && out.batches < budget) {
    ++out.batches;
    ++s.batch;
    double now = heap.empty() ? sources[next].time : heap.front().time;
    if (next < sources.size()) now = std::min(now, sources[next].time);
    s.dirty.clear();
    for (; next < sources.size() && sources[next].time == now; ++next) {
      val[sources[next].gate] ^= 1;
      dirty_fanouts(sources[next].gate);
    }
    while (!heap.empty() && heap.front().time == now) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const Event ev = heap.back();
      heap.pop_back();
      if (s.last_batch[ev.gate] == s.batch &&
          s.last_value[ev.gate] != ev.value) {
        out.tie = true;
        if (stop_on_tie) return out;
      }
      s.last_batch[ev.gate] = s.batch;
      s.last_value[ev.gate] = ev.value;
      if (val[ev.gate] == ev.value) continue;  // absorbed
      val[ev.gate] = ev.value;
      on_transition(ev.gate, now);
      dirty_fanouts(ev.gate);
    }
    // Unique-ify cheaply; duplicate evaluations would be harmless but
    // would schedule duplicate (identical) events.
    std::sort(s.dirty.begin(), s.dirty.end());
    s.dirty.erase(std::unique(s.dirty.begin(), s.dirty.end()), s.dirty.end());
    for (GateId g : s.dirty)
      s.push(Event{now + v.delay(g), g, evaluate(v, g, val)});
  }
  out.overflow = !heap.empty() || next < sources.size();
  return out;
}

long event_budget(const GlitchOptions& options, std::size_t live_gates) {
  return options.max_events_per_pair > 0
             ? options.max_events_per_pair
             : 1000 * static_cast<long>(live_gates) + 10000;
}

bool pair_bit(const std::vector<std::uint64_t>& bits, int words, GateId row,
              int pair) {
  return (bits[static_cast<std::size_t>(row) * static_cast<std::size_t>(words) +
               static_cast<std::size_t>(pair / 64)] >>
          (pair % 64)) &
         1;
}

void put_pair_bit(std::vector<std::uint64_t>* bits, int words, GateId row,
                  int pair, bool value) {
  std::uint64_t& w =
      (*bits)[static_cast<std::size_t>(row) * static_cast<std::size_t>(words) +
              static_cast<std::size_t>(pair / 64)];
  const std::uint64_t mask = 1ull << (pair % 64);
  w = value ? w | mask : w & ~mask;
}

/// Fills the estimate's activities and totals from per-gate transition
/// counts (timed(g), and zero[g] pairs whose settled value changed), and
/// the trace's power terms when one is kept. Every estimate, full or
/// refreshed, ends here, so the totals are summed in one order: GateId
/// order.
template <class Timed>
void summarize(const Netlist& netlist, Timed&& timed,
               const std::vector<std::uint32_t>& zero, int pairs,
               GlitchEstimate* out, GlitchTrace* trace) {
  const std::size_t slots = netlist.num_slots();
  out->zero_delay_power = 0.0;
  out->timed_power = 0.0;
  out->timed_activity.assign(slots, 0.0);
  if (trace != nullptr) {
    trace->power_term.assign(slots, 0.0);
    trace->power_before.resize(slots + 1);
  }
  const double n = static_cast<double>(pairs);
  for (GateId g = 0; g < slots; ++g) {
    if (trace != nullptr) trace->power_before[g] = out->timed_power;
    if (!netlist.alive(g) || netlist.kind(g) == GateKind::kOutput) continue;
    const double cap = netlist.signal_cap(g);
    out->zero_delay_power += cap * static_cast<double>(zero[g]) / n;
    // Round the per-gate activity first and accumulate cap * activity, so
    // that `timed_power` equals the sum of per-gate `signal_power(g)` terms
    // bitwise — the attribution plane reconciles against exactly that sum.
    out->timed_activity[g] = static_cast<double>(timed(g)) / n;
    const double term = cap * out->timed_activity[g];
    out->timed_power += term;
    if (trace != nullptr) trace->power_term[g] = term;
  }
  if (trace != nullptr) trace->power_before[slots] = out->timed_power;
}

}  // namespace

std::size_t GlitchTrace::bytes() const {
  return (delay.capacity() + power_term.capacity() + power_before.capacity()) *
             sizeof(double) +
         (v1.capacity() + pi_v2.capacity()) * sizeof(std::uint64_t) +
         (offset.capacity() + pair_of.capacity() +
          zero_delay_transitions.capacity()) *
             sizeof(std::uint32_t) +
         time.capacity() * sizeof(double) + batches.capacity() * sizeof(long) +
         replayable.capacity();
}

GlitchEstimate estimate_glitch_power(const Netlist& netlist,
                                     const GlitchOptions& options,
                                     GlitchTrace* trace) {
  GlitchEstimate out;
  const std::vector<GateId>& topo = netlist.topo_order();
  const std::size_t slots = netlist.num_slots();

  // Resolve the stimulus spec: empty = independent 0.5; probabilities
  // without toggle densities = temporally independent chains.
  std::vector<double> pi_probs = options.stimulus.prob;
  if (pi_probs.empty())
    pi_probs.assign(static_cast<std::size_t>(netlist.num_inputs()), 0.5);
  POWDER_CHECK_MSG(static_cast<int>(pi_probs.size()) == netlist.num_inputs(),
                   "glitch stimulus size does not match the input count");
  std::vector<double> pi_toggle = options.stimulus.toggle;
  if (pi_toggle.empty()) {
    pi_toggle.resize(pi_probs.size());
    for (std::size_t i = 0; i < pi_probs.size(); ++i)
      pi_toggle[i] = 2.0 * pi_probs[i] * (1.0 - pi_probs[i]);
  }
  POWDER_CHECK_MSG(pi_toggle.size() == pi_probs.size(),
                   "glitch stimulus toggle size does not match its probs");
  // Per-input chain transition probabilities P(1->0) and P(0->1).
  std::vector<double> fall(pi_probs.size(), 0.0), rise(pi_probs.size(), 0.0);
  for (std::size_t i = 0; i < pi_probs.size(); ++i) {
    const double p = pi_probs[i], d = pi_toggle[i];
    POWDER_CHECK_MSG(d >= 0.0 &&
                         d <= 2.0 * std::min(p, 1.0 - p) + 1e-12,
                     "glitch stimulus toggle density out of range");
    fall[i] = p > 0.0 ? std::min(1.0, d / (2.0 * p)) : 0.0;
    rise[i] = p < 1.0 ? std::min(1.0, d / (2.0 * (1.0 - p))) : 0.0;
  }

  // Per-gate propagation delay (fixed load during the analysis).
  std::vector<double> delay(slots, 0.0);
  for (GateId g = 0; g < slots; ++g)
    if (netlist.alive(g)) delay[g] = gate_delay(netlist, g);
  const LiveView view{netlist, delay};

  std::vector<std::uint32_t> zero_transitions(slots, 0);
  std::vector<std::uint32_t> timed_transitions(slots, 0);

  const long budget = event_budget(options, topo.size());
  const int pairs = options.num_vector_pairs;
  const int num_inputs = netlist.num_inputs();
  const int words = (pairs + 63) / 64;
  // Transitions in the order they happen (pair, then time), bucketed by
  // gate once the run is over.
  struct Recorded {
    std::uint32_t pair;
    GateId gate;
    double time;
  };
  std::vector<Recorded> recorded;
  if (trace != nullptr) {
    *trace = GlitchTrace{};
    trace->epoch = netlist.epoch();
    trace->pairs = pairs;
    trace->words = words;
    trace->delay = delay;
    trace->v1.assign(slots * static_cast<std::size_t>(words), 0);
    trace->pi_v2.assign(
        static_cast<std::size_t>(num_inputs) * static_cast<std::size_t>(words),
        0);
    trace->batches.assign(static_cast<std::size_t>(pairs), 0);
    trace->replayable.assign(static_cast<std::size_t>(pairs), 0);
  }

  Rng rng(options.seed);
  std::vector<std::uint8_t> val(slots, 0);
  std::vector<std::uint8_t> initial;
  std::vector<bool> v1(static_cast<std::size_t>(num_inputs));
  std::vector<bool> v2 = v1;
  EdgeScratch scratch;
  scratch.ensure(slots);

  for (int pair = 0; pair < pairs; ++pair) {
    for (int i = 0; i < num_inputs; ++i) {
      const std::size_t si = static_cast<std::size_t>(i);
      v1[si] = rng.flip(pi_probs[si]);
      // One Markov-chain step from v1: toggle with the state-conditional
      // transition probability (reduces to an independent redraw when the
      // stimulus is the independent model).
      const bool toggles = rng.flip(v1[si] ? fall[si] : rise[si]);
      v2[si] = toggles ? !v1[si] : v1[si];
    }
    for (int i = 0; i < num_inputs; ++i)
      val[netlist.inputs()[static_cast<std::size_t>(i)]] =
          v1[static_cast<std::size_t>(i)] ? 1 : 0;
    settle(view, topo, &val);
    initial = val;

    scratch.heap.clear();
    for (int i = 0; i < num_inputs; ++i) {
      const GateId g = netlist.inputs()[static_cast<std::size_t>(i)];
      const std::uint8_t want = v2[static_cast<std::size_t>(i)] ? 1 : 0;
      if (val[g] != want) scratch.push(Event{0.0, g, want});
    }
    const EdgeOutcome edge = run_edge(
        view, {}, budget, /*stop_on_tie=*/false, val, scratch,
        [&](GateId g, double t) {
          ++timed_transitions[g];
          if (trace != nullptr)
            recorded.push_back(
                Recorded{static_cast<std::uint32_t>(pair), g, t});
        });
    if (edge.overflow) ++out.event_overflows;  // budget ran out mid-storm

    for (GateId g = 0; g < slots; ++g) {
      if (!netlist.alive(g)) continue;
      if (val[g] != initial[g]) ++zero_transitions[g];
      if (trace != nullptr && initial[g])
        put_pair_bit(&trace->v1, words, g, pair, true);
    }
    if (trace != nullptr) {
      for (int i = 0; i < num_inputs; ++i)
        if (v2[static_cast<std::size_t>(i)])
          put_pair_bit(&trace->pi_v2, words, static_cast<GateId>(i), pair,
                       true);
      trace->batches[static_cast<std::size_t>(pair)] = edge.batches;
      trace->replayable[static_cast<std::size_t>(pair)] =
          edge.overflow || edge.tie ? 0 : 1;
    }
  }

  if (trace != nullptr) {
    // Counting sort by gate keeps each gate's transitions in (pair, time)
    // order.
    trace->offset.assign(slots + 1, 0);
    for (const Recorded& r : recorded) ++trace->offset[r.gate + 1];
    for (std::size_t g = 0; g < slots; ++g)
      trace->offset[g + 1] += trace->offset[g];
    trace->time.resize(recorded.size());
    trace->pair_of.resize(recorded.size());
    std::vector<std::uint32_t> fill(trace->offset.begin(),
                                    trace->offset.end() - 1);
    for (const Recorded& r : recorded) {
      const std::uint32_t at = fill[r.gate]++;
      trace->time[at] = r.time;
      trace->pair_of[at] = r.pair;
    }
  }

  summarize(
      netlist, [&](GateId g) { return timed_transitions[g]; },
      zero_transitions, pairs, &out, trace);
  if (trace != nullptr)
    trace->zero_delay_transitions = std::move(zero_transitions);
  return out;
}

/// Scratch of the cone replays. Every table is indexed by GateId, grows
/// with the netlist and is stamped or overwritten per call, never cleared.
struct GlitchReplayer::Scratch {
  const Netlist* netlist = nullptr;  ///< whose inputs the full runs drive
  EditOverlay edit;
  EdgeScratch edge;
  std::vector<std::uint8_t> val;
  /// Cone membership: mark == stamp in the cone, stamp + 1 on its boundary.
  std::vector<std::uint32_t> mark;
  std::uint32_t stamp = 0;
  std::vector<double> delay;  ///< edited delays (trial_power)
  std::vector<double> load;   ///< edited loads (trial_power)
  std::vector<long> count;    ///< transitions per gate (trial_power)
  std::vector<std::uint32_t> indegree;
  std::vector<GateId> cone;   ///< the cone, topologically ordered
  LocalCone local;            ///< the cone and its boundary, compiled
  std::vector<std::uint32_t> local_id;  ///< GateId -> id in `local`
  std::vector<std::uint8_t> local_val;
  EdgeScratch local_edge;
  std::vector<std::uint8_t> cone_v1;  ///< settled v1 of the cone, per pair
  std::vector<GateId> order;
  std::vector<GateId> boundary;
  std::vector<GateId> changed;
  std::vector<std::uint32_t> cursor;
  std::vector<SourceEvent> sources;
  /// Transitions of the pair being simulated, in the order they happen.
  struct Flip {
    GateId gate;
    double time;
  };
  std::vector<Flip> flips;
  std::vector<std::uint8_t> full_pair;
  // refresh(): the new transitions, and the rebuilt transition lists.
  struct Recorded {
    std::uint32_t pair;
    GateId gate;
    double time;
  };
  std::vector<Recorded> recorded;
  std::vector<GateId> dead;  ///< seeds that are no longer alive
  std::vector<std::uint32_t> offset;
  std::vector<double> time;
  std::vector<std::uint32_t> pair_of;

  void begin(std::size_t slots) {
    if (mark.size() < slots) {
      mark.resize(slots, 0);
      val.resize(slots, 0);
      delay.resize(slots, 0.0);
      load.resize(slots, 0.0);
      count.resize(slots, 0);
      indegree.resize(slots, 0);
      local_id.resize(slots, 0);
    }
    edge.ensure(slots);
    if (stamp > std::numeric_limits<std::uint32_t>::max() - 2) {
      std::fill(mark.begin(), mark.end(), 0);
      stamp = 0;
    }
    stamp += 2;
    cone.clear();
  }
  bool member(GateId g) const { return mark[g] == stamp; }
  void seed(GateId g) {
    if (member(g)) return;
    mark[g] = stamp;
    cone.push_back(g);
  }

  /// Closes the seeds in `cone` under fanout, orders the cone
  /// topologically, collects its boundary (the fanins outside it) and
  /// compiles both into `local`. Returns false when a boundary gate with
  /// fanins has zero delay: it switches in a later batch than its recorded
  /// transition's timestamp suggests, so no pair of this cone may be
  /// replayed. Inputs and fanin-less cells (constants) are exempt: they
  /// never switch after t = 0.
  template <class View>
  bool close_cone(const View& v) {
    for (std::size_t i = 0; i < cone.size(); ++i)
      v.for_each_fanout(cone[i], [&](GateId f) { seed(f); });
    for (const GateId g : cone) {
      indegree[g] = 0;
      v.for_each_fanin(g, [&](GateId fi) {
        if (member(fi)) ++indegree[g];
      });
    }
    order.clear();
    for (const GateId g : cone)
      if (indegree[g] == 0) order.push_back(g);
    for (std::size_t i = 0; i < order.size(); ++i)
      v.for_each_fanout(order[i], [&](GateId f) {
        if (member(f) && --indegree[f] == 0) order.push_back(f);
      });
    POWDER_CHECK_MSG(order.size() == cone.size(), "cyclic replay cone");
    cone.swap(order);

    boundary.clear();
    bool replayable = true;
    for (const GateId g : cone)
      v.for_each_fanin(g, [&](GateId fi) {
        if (mark[fi] == stamp || mark[fi] == stamp + 1) return;
        mark[fi] = stamp + 1;
        boundary.push_back(fi);
        if (v.num_fanins(fi) > 0 && !(v.delay(fi) > 0.0)) replayable = false;
      });

    local.clear();
    local.size = cone.size();
    for (const GateId g : cone) local.gate.push_back(g);
    for (const GateId b : boundary) local.gate.push_back(b);
    for (std::uint32_t i = 0; i < local.gate.size(); ++i)
      local_id[local.gate[i]] = i;
    for (const GateId g : cone) {
      v.for_each_fanin(g,
                       [&](GateId fi) { local.fanin.push_back(local_id[fi]); });
      local.fanin_begin.push_back(
          static_cast<std::uint32_t>(local.fanin.size()));
      const bool output = v.kind(g) == GateKind::kOutput;
      const TruthTable* f = output ? nullptr : &v.function(g);
      const bool narrow = f == nullptr || f->num_vars() <= 6;
      local.table.push_back(output ? 0b10 : narrow ? f->words()[0] : 0);
      local.wide.push_back(narrow ? nullptr : f);
      local.delay.push_back(v.delay(g));
    }
    for (const GateId g : local.gate) {
      v.for_each_fanout(g, [&](GateId f) {
        if (member(f)) local.fanout.push_back(local_id[f]);
      });
      local.fanout_begin.push_back(
          static_cast<std::uint32_t>(local.fanout.size()));
    }
    if (local_val.size() < local.gate.size()) {
      local_val.resize(local.gate.size(), 0);
      local_edge.ensure(local.gate.size());
    }
    cone_v1.resize(cone.size());
    return replayable;
  }

  /// Simulates every pair of `trace`: the cone alone (compiled) against its
  /// boundary's recorded transitions where that reproduces a full run
  /// exactly, the whole netlist through `v` (`settle_all` settles it once
  /// the inputs hold their v1 values) where it does not. on_settled(p)
  /// runs once the cone's v1 values are in `cone_v1`; on_pair(p, full,
  /// edge) once the pair's transitions are in `flips` (the cone's for a
  /// replay, every gate's for a full run). Returns the number of pairs run
  /// in full.
  template <class View, class SettleAll, class OnSettled, class OnPair>
  long run_pairs(const View& v, const GlitchTrace& trace, long budget,
                 bool replayable, SettleAll&& settle_all,
                 OnSettled&& on_settled, OnPair&& on_pair) {
    const int pairs = trace.pairs;
    const int words = trace.words;
    const LocalView lv{local};
    const std::uint32_t k = static_cast<std::uint32_t>(local.size);
    cursor.resize(boundary.size());
    for (std::size_t i = 0; i < boundary.size(); ++i)
      cursor[i] = trace.offset[boundary[i]];
    long fallbacks = 0;
    for (int p = 0; p < pairs; ++p) {
      const std::size_t sp = static_cast<std::size_t>(p);
      // Replay the cone against the boundary's recorded transitions. A
      // full run forms no more batches than the record plus the replay, so
      // a replay within the remaining budget cannot hide an overflow.
      if (replayable && trace.replayable[sp] && trace.batches[sp] < budget) {
        sources.clear();
        for (std::size_t i = 0; i < boundary.size(); ++i) {
          const GateId b = boundary[i];
          const GateId id = k + static_cast<GateId>(i);
          local_val[id] = pair_bit(trace.v1, words, b, p) ? 1 : 0;
          std::uint32_t& c = cursor[i];
          const std::uint32_t end = trace.offset[b + 1];
          while (c < end && trace.pair_of[c] < static_cast<std::uint32_t>(p))
            ++c;
          for (; c < end && trace.pair_of[c] == static_cast<std::uint32_t>(p);
               ++c)
            sources.push_back(SourceEvent{trace.time[c], id});
        }
        std::sort(sources.begin(), sources.end(),
                  [](const SourceEvent& x, const SourceEvent& y) {
                    return x.time < y.time ||
                           (x.time == y.time && x.gate < y.gate);
                  });
        for (GateId i = 0; i < k; ++i) {
          local_val[i] = evaluate(lv, i, local_val);
          cone_v1[i] = local_val[i];
        }
        on_settled(p);
        local_edge.heap.clear();
        flips.clear();
        const EdgeOutcome out = run_edge(
            lv, sources, budget - trace.batches[sp], /*stop_on_tie=*/true,
            local_val, local_edge, [&](GateId i, double t) {
              flips.push_back(Flip{local.gate[i], t});
            });
        if (!out.tie && !out.overflow) {
          on_pair(p, false, out);
          continue;
        }
      }
      // Fallback: the whole pair, exactly as estimate_glitch_power runs it.
      ++fallbacks;
      load_inputs_v1(p, trace);
      settle_all();
      for (std::size_t i = 0; i < cone.size(); ++i) cone_v1[i] = val[cone[i]];
      on_settled(p);
      edge.heap.clear();
      flips.clear();
      schedule_inputs_v2(p, trace);
      const EdgeOutcome out =
          run_edge(v, {}, budget, /*stop_on_tie=*/false, val, edge,
                   [&](GateId g, double t) { flips.push_back(Flip{g, t}); });
      on_pair(p, true, out);
    }
    return fallbacks;
  }

  /// Loads pair `p`'s v1 input values into `val`.
  void load_inputs_v1(int p, const GlitchTrace& trace) {
    for (const GateId g : netlist->inputs())
      val[g] = pair_bit(trace.v1, trace.words, g, p) ? 1 : 0;
  }
  /// Schedules pair `p`'s input changes at t = 0.
  void schedule_inputs_v2(int p, const GlitchTrace& trace) {
    for (int i = 0; i < netlist->num_inputs(); ++i) {
      const GateId g = netlist->inputs()[static_cast<std::size_t>(i)];
      const std::uint8_t want =
          pair_bit(trace.pi_v2, trace.words, static_cast<GateId>(i), p) ? 1
                                                                         : 0;
      if (val[g] != want) edge.push(Event{0.0, g, want});
    }
  }
};

GlitchReplayer::GlitchReplayer() : s_(std::make_unique<Scratch>()) {}
GlitchReplayer::~GlitchReplayer() = default;

double GlitchReplayer::trial_power(const Netlist& netlist,
                                   const GlitchTrace& trace,
                                   const EditPlan& plan,
                                   const GlitchOptions& options,
                                   GlitchReplayStats* stats) {
  POWDER_CHECK_MSG(netlist.epoch() == trace.epoch &&
                       trace.delay.size() == netlist.num_slots() &&
                       trace.pairs == options.num_vector_pairs,
                   "glitch trace does not describe the netlist");
  Scratch& s = *s_;
  s.netlist = &netlist;
  s.edit.reset(netlist, plan);
  const EditOverlay& edit = s.edit;
  const std::size_t slots = netlist.num_slots();
  const GateId virt = plan.new_gate;
  s.begin(edit.num_slots());
  const OverlayView view{edit, trace.delay, s.delay};

  // Seeds: the inserted gate, the rewired sinks, and every surviving gate
  // whose load change moves its delay. Only their fanout closure can
  // switch differently from the record.
  if (virt != kNullGate) {
    s.load[virt] = edit.load(virt);
    s.delay[virt] =
        cell_delay(netlist.library().cell(plan.new_cell), s.load[virt]);
    s.seed(virt);
  }
  for (const RewiredPin& rp : plan.rewired_pins) s.seed(rp.sink);
  for (const GateId g : edit.load_changed_gates()) {
    s.load[g] = edit.load(g);
    s.delay[g] = netlist.kind(g) == GateKind::kCell
                     ? cell_delay(netlist.cell_of(g), s.load[g])
                     : 0.0;
    if (s.delay[g] != trace.delay[g]) s.seed(g);
  }
  const bool replayable = s.close_cone(view);
  for (const GateId g : s.cone) s.count[g] = 0;

  const std::size_t live = netlist.topo_order().size() +
                           (virt != kNullGate ? 1 : 0) -
                           plan.removed_gates.size();
  const long budget = event_budget(options, live);
  auto recorded = [&](GateId g) {
    return static_cast<long>(trace.offset[g + 1] - trace.offset[g]);
  };
  // A pair run in full recounts every gate: from the first one on, every
  // surviving gate keeps a count.
  bool dense = false;
  s.full_pair.assign(static_cast<std::size_t>(trace.pairs), 0);
  const long fallbacks = s.run_pairs(
      view, trace, budget, replayable,
      [&] {
        // Gates outside the cone read only gates outside it, so the live
        // order settles them; the cone follows in its own order.
        for (const GateId g : netlist.topo_order())
          if (netlist.kind(g) != GateKind::kInput && !edit.removed(g) &&
              !s.member(g))
            s.val[g] = evaluate(view, g, s.val);
        settle(view, s.cone, &s.val);
      },
      [](int) {},
      [&](int p, bool full, const EdgeOutcome&) {
        if (full) {
          if (!dense) {
            for (GateId g = 0; g < slots; ++g)
              if (netlist.alive(g) && !edit.removed(g) && !s.member(g))
                s.count[g] = recorded(g);
            dense = true;
          }
          s.full_pair[static_cast<std::size_t>(p)] = 1;
        }
        for (const Scratch::Flip& f : s.flips) ++s.count[f.gate];
      });
  // A fully re-simulated pair recounted every gate: take its recorded
  // transitions back out of the totals of the gates outside the cone.
  if (dense)
    for (GateId g = 0; g < slots; ++g)
      if (netlist.alive(g) && !edit.removed(g) && !s.member(g))
        for (std::uint32_t e = trace.offset[g]; e < trace.offset[g + 1]; ++e)
          if (s.full_pair[trace.pair_of[e]]) --s.count[g];
  if (stats != nullptr) {
    stats->cone_gates += static_cast<long>(s.cone.size());
    stats->fallback_pairs += fallbacks;
  }

  // The same terms in the same GateId order as estimate_glitch_power, so
  // the result is bitwise equal. Unchanged gates contribute their recorded
  // term, and the sum restarts from the recorded running total at the
  // first slot whose term changes.
  const double n = static_cast<double>(trace.pairs);
  auto term = [&](GateId g) {
    const double cap = g == virt || edit.load_changed(g)
                           ? s.load[g]
                           : netlist.signal_cap(g);
    const long c = dense || s.member(g) ? s.count[g] : recorded(g);
    return cap * (static_cast<double>(c) / n);
  };
  double power = 0.0;
  if (dense) {
    for (GateId g = 0; g < slots; ++g)
      if (netlist.alive(g) && !edit.removed(g) &&
          netlist.kind(g) != GateKind::kOutput)
        power += term(g);
  } else {
    std::vector<GateId>& changed = s.changed;
    changed.clear();
    for (const GateId g : s.cone)
      if (g != virt) changed.push_back(g);
    changed.insert(changed.end(), edit.load_changed_gates().begin(),
                   edit.load_changed_gates().end());
    changed.insert(changed.end(), plan.removed_gates.begin(),
                   plan.removed_gates.end());
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
    GateId g = changed.empty() ? static_cast<GateId>(slots) : changed.front();
    power = trace.power_before[g];
    for (auto it = changed.begin(); g < slots; ++g) {
      if (it == changed.end() || *it != g) {
        power += trace.power_term[g];
        continue;
      }
      ++it;
      if (!edit.removed(g) && netlist.kind(g) != GateKind::kOutput)
        power += term(g);
    }
  }
  if (virt != kNullGate) power += term(virt);
  return power;
}

GlitchReplayStats GlitchReplayer::refresh(const Netlist& netlist,
                                          std::span<const GateId> changed,
                                          std::span<const GateId> loaded,
                                          const GlitchOptions& options,
                                          GlitchTrace* trace,
                                          GlitchEstimate* estimate) {
  POWDER_CHECK_MSG(trace->pairs == options.num_vector_pairs,
                   "glitch trace was recorded under other options");
  const std::size_t old_slots = trace->delay.size();
  const std::size_t slots = netlist.num_slots();
  POWDER_CHECK(slots >= old_slots);
  const int words = trace->words;
  const std::size_t row = static_cast<std::size_t>(words);
  // New slots start empty; the dead ones stay that way.
  trace->delay.resize(slots, 0.0);
  trace->v1.resize(slots * row, 0);
  trace->offset.resize(slots + 1, trace->offset.back());

  Scratch& s = *s_;
  s.netlist = &netlist;
  s.begin(slots);
  const LiveView view{netlist, trace->delay};
  s.dead.clear();
  auto clear_row = [&](GateId g) {
    s.dead.push_back(g);
    trace->delay[g] = 0.0;
    std::fill_n(trace->v1.begin() + static_cast<std::ptrdiff_t>(g * row),
                row, 0);
  };
  // Seeds: every live gate whose kind, cell or fanins may have changed, and
  // every live gate whose load change moved its delay.
  for (const GateId g : changed) {
    if (!netlist.alive(g)) {
      clear_row(g);
      continue;
    }
    trace->delay[g] = gate_delay(netlist, g);
    s.seed(g);
  }
  for (const GateId g : loaded) {
    if (!netlist.alive(g)) {
      clear_row(g);
      continue;
    }
    const double d = gate_delay(netlist, g);
    if (d == trace->delay[g] && g < old_slots) continue;
    trace->delay[g] = d;
    s.seed(g);
  }
  const bool replayable = s.close_cone(view);

  GlitchReplayStats stats;
  stats.cone_gates = static_cast<long>(s.cone.size());
  s.recorded.clear();
  s.full_pair.assign(static_cast<std::size_t>(trace->pairs), 0);
  if (!s.cone.empty()) {
    const long budget = event_budget(options, netlist.topo_order().size());
    long overflows = 0;
    stats.fallback_pairs = s.run_pairs(
        view, *trace, budget, replayable,
        [&] { settle(view, netlist.topo_order(), &s.val); },
        [&](int p) {
          for (std::size_t i = 0; i < s.cone.size(); ++i)
            put_pair_bit(&trace->v1, words, s.cone[i], p, s.cone_v1[i] != 0);
        },
        [&](int p, bool full, const EdgeOutcome& out) {
          const std::size_t sp = static_cast<std::size_t>(p);
          for (const Scratch::Flip& f : s.flips)
            s.recorded.push_back(Scratch::Recorded{
                static_cast<std::uint32_t>(p), f.gate, f.time});
          if (!full) {
            trace->batches[sp] += out.batches;
            return;
          }
          s.full_pair[sp] = 1;
          trace->batches[sp] = out.batches;
          trace->replayable[sp] = out.overflow || out.tie ? 0 : 1;
          if (out.overflow) ++overflows;
        });
    // Every pair was replayed (and so cannot overflow) or run in full.
    estimate->event_overflows = overflows;
  }

  // Rebuild the transition lists. The cone's are the new ones and a dead
  // gate's is empty; every other live gate keeps its record, except in the
  // pairs run in full, whose new transitions merge in by pair. Without such
  // pairs, the runs of untouched gates between two touched ones move whole.
  std::vector<Scratch::Recorded>& rec = s.recorded;
  std::stable_sort(rec.begin(), rec.end(),
                   [](const Scratch::Recorded& a, const Scratch::Recorded& b) {
                     return a.gate < b.gate;
                   });
  std::vector<GateId>& touched = s.changed;
  touched.clear();
  if (stats.fallback_pairs > 0) {
    for (GateId g = 0; g < slots; ++g) touched.push_back(g);
  } else {
    touched.assign(s.cone.begin(), s.cone.end());
    touched.insert(touched.end(), s.dead.begin(), s.dead.end());
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  }
  s.offset.resize(slots + 1);
  s.time.clear();
  s.pair_of.clear();
  s.time.reserve(trace->time.size() + rec.size());
  s.pair_of.reserve(trace->time.size() + rec.size());
  trace->zero_delay_transitions.resize(slots, 0);
  auto copy_run = [&](GateId from, GateId to) {
    const std::uint32_t b = trace->offset[from];
    const std::uint32_t e = trace->offset[to];
    const std::uint32_t at = static_cast<std::uint32_t>(s.time.size());
    for (GateId g = from; g < to; ++g) s.offset[g] = trace->offset[g] - b + at;
    s.time.insert(s.time.end(), trace->time.begin() + b,
                  trace->time.begin() + e);
    s.pair_of.insert(s.pair_of.end(), trace->pair_of.begin() + b,
                     trace->pair_of.begin() + e);
  };
  GateId next = 0;
  auto r = rec.begin();
  for (const GateId g : touched) {
    copy_run(next, g);
    next = g + 1;
    const std::size_t begin = s.time.size();
    s.offset[g] = static_cast<std::uint32_t>(begin);
    while (r != rec.end() && r->gate < g) ++r;
    if (netlist.alive(g)) {
      std::uint32_t i = trace->offset[g];
      const std::uint32_t i_end = s.member(g) ? i : trace->offset[g + 1];
      while (i < i_end || (r != rec.end() && r->gate == g)) {
        if (i < i_end && s.full_pair[trace->pair_of[i]]) {
          ++i;
        } else if (r == rec.end() || r->gate != g ||
                   (i < i_end && trace->pair_of[i] < r->pair)) {
          s.time.push_back(trace->time[i]);
          s.pair_of.push_back(trace->pair_of[i]);
          ++i;
        } else {
          s.time.push_back(r->time);
          s.pair_of.push_back(r->pair);
          ++r;
        }
      }
    }
    // A transition always flips the signal: the settled value changed in
    // exactly the pairs with an odd number of transitions.
    std::uint32_t zero = 0;
    const std::size_t end = s.time.size();
    for (std::size_t e = begin; e < end;) {
      std::size_t k = e;
      while (k < end && s.pair_of[k] == s.pair_of[e]) ++k;
      zero += (k - e) % 2;
      e = k;
    }
    trace->zero_delay_transitions[g] = zero;
  }
  copy_run(next, static_cast<GateId>(slots));
  s.offset[slots] = static_cast<std::uint32_t>(s.time.size());
  trace->offset.swap(s.offset);
  trace->time.swap(s.time);
  trace->pair_of.swap(s.pair_of);
  trace->epoch = netlist.epoch();

  summarize(
      netlist,
      [&](GateId g) { return trace->offset[g + 1] - trace->offset[g]; },
      trace->zero_delay_transitions, trace->pairs, estimate, trace);
  return stats;
}

}  // namespace powder
