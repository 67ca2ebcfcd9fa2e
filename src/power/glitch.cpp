#include "power/glitch.hpp"

#include <algorithm>
#include <bit>
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

/// A replay cone compiled to local ids for the gate-major pass: the cone's
/// gates are 0..size-1 in topological order, its boundary follows.
struct LocalCone {
  std::size_t size = 0;
  std::vector<GateId> gate;  ///< local id -> GateId
  std::vector<std::uint32_t> fanin_begin, fanin;  ///< cone gates, CSR
  /// Truth table of a cone gate with at most six inputs (a PO reads its
  /// one fanin: table 0b10); wider cells go through `wide`.
  std::vector<std::uint64_t> table;
  std::vector<const TruthTable*> wide;
  std::vector<double> delay;
  std::vector<std::uint8_t> fans_out;  ///< the cone gate drives a gate

  void clear() {
    size = 0;
    gate.clear();
    fanin_begin.assign(1, 0);
    fanin.clear();
    table.clear();
    wide.clear();
    delay.clear();
    fans_out.clear();
  }

  /// The cone gate's value in the 64 pairs of one word; in[pin] holds its
  /// fanins' words.
  std::uint64_t eval_word(std::uint32_t i, const std::uint64_t* in) const {
    const std::size_t n = fanin_begin[i + 1] - fanin_begin[i];
    if (wide[i] != nullptr) {
      std::uint64_t out = 0;
      for (int bit = 0; bit < 64; ++bit) {
        std::uint64_t idx = 0;
        for (std::size_t pin = 0; pin < n; ++pin)
          idx |= ((in[pin] >> bit) & 1) << pin;
        out |= static_cast<std::uint64_t>(wide[i]->bit(idx)) << bit;
      }
      return out;
    }
    // Shannon expansion, one input at a time: m[j] is the cofactor for the
    // assignment j of the inputs not yet consumed.
    std::uint64_t m[64];
    std::size_t rows = std::size_t{1} << n;
    for (std::size_t j = 0; j < rows; ++j) m[j] = 0 - ((table[i] >> j) & 1);
    for (std::size_t pin = 0; pin < n; ++pin) {
      rows /= 2;
      for (std::size_t j = 0; j < rows; ++j)
        m[j] = (in[pin] & m[2 * j + 1]) | (~in[pin] & m[2 * j]);
    }
    return m[0];
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

/// The event loop of a full run: propagates one v1 -> v2 edge under
/// transport delays. `val` holds the settled v1 values and the heap the
/// initial events. When a signal changes, each fanout gate the view lists
/// is re-evaluated against the *current* values and its new output
/// scheduled after its own delay. Events sharing a timestamp are applied as
/// one batch and the affected gates re-evaluated once — simultaneous input
/// changes must not be serialized into phantom glitches. Every change an
/// event makes is reported to on_transition(g, time).
template <class View, class OnTransition>
EdgeOutcome run_edge(const View& v, long budget, std::vector<std::uint8_t>& val,
                     EdgeScratch& s, OnTransition&& on_transition) {
  EdgeOutcome out;
  std::vector<Event>& heap = s.heap;
  while (!heap.empty() && out.batches < budget) {
    ++out.batches;
    ++s.batch;
    const double now = heap.front().time;
    s.dirty.clear();
    while (!heap.empty() && heap.front().time == now) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const Event ev = heap.back();
      heap.pop_back();
      if (s.last_batch[ev.gate] == s.batch &&
          s.last_value[ev.gate] != ev.value)
        out.tie = true;
      s.last_batch[ev.gate] = s.batch;
      s.last_value[ev.gate] = ev.value;
      if (val[ev.gate] == ev.value) continue;  // absorbed
      val[ev.gate] = ev.value;
      on_transition(ev.gate, now);
      v.for_each_fanout(ev.gate, [&](GateId f) { s.dirty.push_back(f); });
    }
    // Unique-ify cheaply; duplicate evaluations would be harmless but
    // would schedule duplicate (identical) events.
    std::sort(s.dirty.begin(), s.dirty.end());
    s.dirty.erase(std::unique(s.dirty.begin(), s.dirty.end()), s.dirty.end());
    for (GateId g : s.dirty)
      s.push(Event{now + v.delay(g), g, evaluate(v, g, val)});
  }
  out.overflow = !heap.empty();
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

/// Grows `v`'s capacity to at least `n`, geometrically.
template <class T>
void reserve_at_least(std::vector<T>* v, std::size_t n) {
  if (v->capacity() < n) v->reserve(std::max(n, 2 * v->capacity()));
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
        view, budget, val, scratch, [&](GateId g, double t) {
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

/// Scratch of the cone replays. The GateId-indexed tables grow with the
/// netlist and are stamped or overwritten per call, never cleared; the
/// others are sized to the cone and the pairs.
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
  std::vector<GateId> order;
  std::vector<GateId> boundary;
  std::vector<GateId> changed;

  // The gate-major pass (replay()).
  /// Settled v1 of cone gate i in pair p: bit p % 64 of
  /// cone_v1[i * words + p / 64], laid out like GlitchTrace::v1.
  std::vector<std::uint64_t> cone_v1;
  /// Transitions of cone gate i, ordered by (pair, time), occupy
  /// [list_begin[i], list_begin[i + 1]) of `list_time` and `list_pair`.
  /// Pairs marked `full` after the pass may have left entries behind.
  std::vector<std::uint32_t> list_begin;
  std::vector<double> list_time;
  std::vector<std::uint32_t> list_pair;
  /// A fanin pin of the gate being replayed: its cursor into the driver's
  /// transition list, and the driver's v1 row.
  struct Pin {
    const double* time;
    const std::uint32_t* pair;
    const std::uint32_t* end;
    const std::uint64_t* v1;
  };
  std::vector<Pin> pins;
  std::vector<std::uint64_t> pin_words;
  /// Per pair: run in full rather than replayed. During a pass, the pairs
  /// left out of it.
  std::vector<std::uint8_t> full;
  std::vector<std::uint32_t> evals;    ///< cone-gate evaluations per pair
  std::vector<std::uint32_t> sources;  ///< boundary transitions per pair
  std::vector<long> pair_batches;      ///< batch counts (count_batches())
  /// A batch the event loop forms: the first one at a time (sub 0), or the
  /// second one a zero-delay evaluation opens at its own time (sub 1). The
  /// key orders like (sub, time): times are sums of non-negative delays, so
  /// their bit patterns order like them and leave the sign bit free.
  static std::uint64_t batch_key(double time, bool sub) {
    return std::bit_cast<std::uint64_t>(time) |
           (static_cast<std::uint64_t>(sub) << 63);
  }
  struct Stamp {
    std::uint64_t key;
    std::uint32_t pair;
  };
  std::vector<Stamp> evaluated;  ///< one per evaluation of a logged pass
  std::vector<std::uint64_t> stamps;  ///< count_batches(): keys by pair
  std::vector<std::uint32_t> stamp_begin, stamp_fill;

  /// Transitions of a pair run in full, in the order they happen.
  struct Flip {
    GateId gate;
    double time;
  };
  std::vector<Flip> flips;
  // refresh(): the new transitions, and the rebuilt transition lists.
  struct Recorded {
    std::uint32_t pair;
    GateId gate;
    double time;
  };
  std::vector<Recorded> recorded;
  std::vector<GateId> dead;     ///< seeds that are no longer alive
  std::vector<GateId> touched;  ///< slots whose record the refresh rewrote
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
  /// compiles both into `local`. Returns false when a gate with fanins and
  /// zero delay lies on the boundary, or inside the cone with a fanout: it
  /// switches in a later batch than the timestamp of its change suggests,
  /// which the pass cannot reproduce, so no pair of this cone may be
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
    auto zero_delay = [&](GateId g) {
      return v.num_fanins(g) > 0 && !(v.delay(g) > 0.0);
    };
    for (const GateId g : cone)
      v.for_each_fanin(g, [&](GateId fi) {
        if (mark[fi] == stamp || mark[fi] == stamp + 1) return;
        mark[fi] = stamp + 1;
        boundary.push_back(fi);
        if (zero_delay(fi)) replayable = false;
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
      bool fans_out = false;
      v.for_each_fanout(g, [&](GateId) { fans_out = true; });
      local.fans_out.push_back(fans_out ? 1 : 0);
      if (fans_out && zero_delay(g)) replayable = false;
    }
    return replayable;
  }

  /// Replays the cone over every pair that the record lets it (`replayable`
  /// for the cone, the pair replayable and within its event budget), all
  /// pairs in one gate-major pass. A pair stays replayed when the pass saw
  /// no tie in it and the event loop would form no more batches than the
  /// budget leaves it. The bound `sources + evaluations` decides first;
  /// only where it does not fit for some pair (and always with
  /// `count_all`) are the batches counted exactly, into `pair_batches`.
  /// Leaves `full` marking the pairs to run in full, and returns their
  /// number.
  long replay(const GlitchTrace& trace, long budget, bool replayable,
              bool count_all) {
    const std::size_t pairs = static_cast<std::size_t>(trace.pairs);
    auto start = [&] {
      full.resize(pairs);
      for (std::size_t p = 0; p < pairs; ++p)
        full[p] = replayable && trace.replayable[p] && trace.batches[p] < budget
                      ? 0
                      : 1;
    };
    start();
    pass(trace, count_all);
    sources.assign(pairs, 0);
    for (const GateId b : boundary)
      for (std::uint32_t e = trace.offset[b]; e < trace.offset[b + 1]; ++e)
        ++sources[trace.pair_of[e]];
    bool count = count_all;
    for (std::size_t p = 0; p < pairs; ++p)
      if (!full[p] &&
          static_cast<long>(sources[p]) + evals[p] > budget - trace.batches[p])
        count = true;
    if (count) {
      if (!count_all) {
        // The count needs every evaluation's time: repeat the pass, which
        // drops the same pairs, with the log on.
        start();
        pass(trace, /*log=*/true);
      }
      count_batches(trace);
      for (std::size_t p = 0; p < pairs; ++p)
        if (!full[p] && pair_batches[p] > budget - trace.batches[p])
          full[p] = 1;
    }
    return static_cast<long>(std::count(full.begin(), full.end(), 1));
  }

  /// The gate-major pass over the pairs not marked `full`. It settles the
  /// cone's v1 rows a word (64 pairs) at a time, then gives each cone gate,
  /// in topological order, its transitions: a merge of its fanins' lists
  /// (a boundary gate's recorded slice, read in place, or the list the pass
  /// made for a cone gate) by (pair, time). Each distinct (pair, time)
  /// applies every change at that time and evaluates the gate once; the
  /// result is scheduled after the gate's delay and is a transition when it
  /// differs from the gate's value. With `log`, every evaluation's batch
  /// goes into `evaluated`.
  void pass(const GlitchTrace& trace, bool log) {
    const std::size_t words = static_cast<std::size_t>(trace.words);
    const std::uint32_t k = static_cast<std::uint32_t>(local.size);
    const int tail = trace.pairs % 64;
    const std::uint64_t last_word = tail == 0 ? ~0ull : (1ull << tail) - 1;
    const bool any = std::find(full.begin(), full.end(), 0) != full.end();
    cone_v1.resize(static_cast<std::size_t>(k) * words);
    list_begin.assign(1, 0);
    list_time.clear();
    list_pair.clear();
    evals.assign(static_cast<std::size_t>(trace.pairs), 0);
    evaluated.clear();
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint32_t* fanin = local.fanin.data() + local.fanin_begin[i];
      const std::size_t n = local.fanin_begin[i + 1] - local.fanin_begin[i];
      // A gate makes at most one transition per fanin transition: make room
      // for its list first, so that the cursors into earlier lists stay
      // valid while it grows.
      std::size_t most = list_time.size();
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint32_t f = fanin[j];
        most += f < k ? list_begin[f + 1] - list_begin[f]
                      : trace.offset[local.gate[f] + 1] -
                            trace.offset[local.gate[f]];
      }
      reserve_at_least(&list_time, most);
      reserve_at_least(&list_pair, most);
      pins.resize(n);
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint32_t f = fanin[j];
        Pin& pin = pins[j];
        if (f < k) {
          pin.time = list_time.data() + list_begin[f];
          pin.pair = list_pair.data() + list_begin[f];
          pin.end = list_pair.data() + list_begin[f + 1];
          pin.v1 = cone_v1.data() + static_cast<std::size_t>(f) * words;
        } else {
          const GateId b = local.gate[f];
          pin.time = trace.time.data() + trace.offset[b];
          pin.pair = trace.pair_of.data() + trace.offset[b];
          pin.end = trace.pair_of.data() + trace.offset[b + 1];
          pin.v1 = trace.v1.data() + static_cast<std::size_t>(b) * words;
        }
      }
      std::uint64_t* own = cone_v1.data() + static_cast<std::size_t>(i) * words;
      pin_words.resize(n);
      for (std::size_t w = 0; w < words; ++w) {
        for (std::size_t j = 0; j < n; ++j) pin_words[j] = pins[j].v1[w];
        own[w] = local.eval_word(i, pin_words.data());
      }
      if (words > 0) own[words - 1] &= last_word;
      if (any) merge(i, own, log);
      list_begin.push_back(static_cast<std::uint32_t>(list_time.size()));
    }
  }

  /// Makes cone gate i's transitions from its pins (see pass()).
  ///
  /// This is what the event loop does. A gate with positive delay that is
  /// evaluated in the batch at time t sees every fanin change at times
  /// <= t: the fanins are inputs (switching at t = 0), gates with positive
  /// delay, whose events at t were all scheduled before t, or zero-delay
  /// gates without fanins, which never switch (close_cone() rules out the
  /// rest). Its own events pop in the order they were scheduled, so its
  /// transitions are the value changes along one evaluation per distinct
  /// fanin-change time. A zero-delay gate without fanouts (a PO) pops its
  /// event in a second batch at its evaluation time, and nothing reads it.
  /// Two evaluations scheduled at one time with different values are a
  /// tie: the heap's order between them decides the outcome, so the pair is
  /// marked `full` and left out of the rest of the pass. So is a pair in
  /// which a gate with fanouts schedules an event at its own evaluation
  /// time (a delay lost to rounding).
  void merge(std::uint32_t i, const std::uint64_t* own, bool log) {
    constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
    const double delay = local.delay[i];
    const bool fans_out = local.fans_out[i] != 0;
    const std::uint64_t table = local.table[i];
    const TruthTable* wide = local.wide[i];
    std::uint32_t p = kNone;
    std::uint64_t idx = 0;  // the fanins' values in pair p, bit per pin
    std::uint8_t value = 0;
    bool scheduled = false;  // an event of pair p is scheduled: at, was
    double at = 0.0;
    std::uint8_t was = 0;
    for (;;) {
      std::uint32_t next = kNone;
      double t = 0.0;
      for (Pin& pin : pins) {
        while (pin.pair != pin.end && full[*pin.pair]) {
          ++pin.pair;
          ++pin.time;
        }
        if (pin.pair != pin.end &&
            (*pin.pair < next || (*pin.pair == next && *pin.time < t))) {
          next = *pin.pair;
          t = *pin.time;
        }
      }
      if (next == kNone) return;
      const std::size_t word = next / 64;
      const unsigned bit = next % 64;
      if (next != p) {
        p = next;
        idx = 0;
        for (std::size_t j = 0; j < pins.size(); ++j)
          idx |= ((pins[j].v1[word] >> bit) & 1) << j;
        value = static_cast<std::uint8_t>((own[word] >> bit) & 1);
        scheduled = false;
      }
      for (std::size_t j = 0; j < pins.size(); ++j) {
        Pin& pin = pins[j];
        for (; pin.pair != pin.end && *pin.pair == p && *pin.time == t;
             ++pin.pair, ++pin.time)
          idx ^= 1ull << j;
      }
      const std::uint8_t e =
          wide != nullptr ? (wide->bit(idx) ? 1 : 0)
                          : static_cast<std::uint8_t>((table >> idx) & 1);
      ++evals[p];
      const double when = t + delay;
      if (when == t && fans_out) {
        full[p] = 1;
        continue;
      }
      if (log) evaluated.push_back(Stamp{batch_key(when, when == t), p});
      if (scheduled && when == at && e != was) {
        full[p] = 1;
        continue;
      }
      scheduled = true;
      at = when;
      was = e;
      if (e == value) continue;  // absorbed
      value = e;
      list_time.push_back(when);
      list_pair.push_back(p);
    }
  }

  /// The batches the event loop forms replaying each pair not marked
  /// `full`, into `pair_batches`: one per distinct time at which a boundary
  /// gate switches or an event pops, plus one per distinct time at which a
  /// zero-delay gate is evaluated. Needs the logged pass's `evaluated`.
  void count_batches(const GlitchTrace& trace) {
    const std::size_t pairs = full.size();
    // Bucket the stamps by pair (a counting sort), then count each pair's
    // distinct ones.
    auto for_each_stamp = [&](auto&& fn) {
      for (const GateId b : boundary)
        for (std::uint32_t e = trace.offset[b]; e < trace.offset[b + 1]; ++e)
          if (!full[trace.pair_of[e]])
            fn(Stamp{batch_key(trace.time[e], false), trace.pair_of[e]});
      for (const Stamp& st : evaluated)
        if (!full[st.pair]) fn(st);
    };
    stamp_begin.assign(pairs + 1, 0);
    for_each_stamp([&](const Stamp& st) { ++stamp_begin[st.pair + 1]; });
    for (std::size_t p = 0; p < pairs; ++p)
      stamp_begin[p + 1] += stamp_begin[p];
    stamps.resize(stamp_begin[pairs]);
    stamp_fill.assign(stamp_begin.begin(), stamp_begin.end() - 1);
    for_each_stamp(
        [&](const Stamp& st) { stamps[stamp_fill[st.pair]++] = st.key; });
    pair_batches.assign(pairs, 0);
    for (std::size_t p = 0; p < pairs; ++p) {
      const auto first = stamps.begin() + stamp_begin[p];
      const auto last = stamps.begin() + stamp_begin[p + 1];
      std::sort(first, last);
      pair_batches[p] = std::unique(first, last) - first;
    }
  }

  /// Runs pair `p` in full through `v`, exactly as estimate_glitch_power
  /// does, with its transitions into `flips`. `settle_all` settles every
  /// gate once the inputs hold their v1 values.
  template <class View, class SettleAll>
  EdgeOutcome run_full(const View& v, const GlitchTrace& trace, int p,
                       long budget, SettleAll&& settle_all) {
    for (const GateId g : netlist->inputs())
      val[g] = pair_bit(trace.v1, trace.words, g, p) ? 1 : 0;
    settle_all();
    edge.heap.clear();
    flips.clear();
    for (int i = 0; i < netlist->num_inputs(); ++i) {
      const GateId g = netlist->inputs()[static_cast<std::size_t>(i)];
      const std::uint8_t want =
          pair_bit(trace.pi_v2, trace.words, static_cast<GateId>(i), p) ? 1
                                                                         : 0;
      if (val[g] != want) edge.push(Event{0.0, g, want});
    }
    return run_edge(v, budget, val, edge,
                    [&](GateId g, double t) { flips.push_back(Flip{g, t}); });
  }
};

GlitchReplayer::GlitchReplayer() : s_(std::make_unique<Scratch>()) {}
GlitchReplayer::~GlitchReplayer() = default;

std::span<const GateId> GlitchReplayer::refreshed_slots() const {
  return s_->touched;
}

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

  const std::size_t live = netlist.topo_order().size() +
                           (virt != kNullGate ? 1 : 0) -
                           plan.removed_gates.size();
  const long budget = event_budget(options, live);
  auto recorded = [&](GateId g) {
    return static_cast<long>(trace.offset[g + 1] - trace.offset[g]);
  };
  const long fallbacks = s.replay(trace, budget, replayable,
                                   /*count_all=*/false);
  for (std::size_t i = 0; i < s.cone.size(); ++i) {
    long c = 0;
    for (std::uint32_t e = s.list_begin[i]; e < s.list_begin[i + 1]; ++e)
      c += s.full[s.list_pair[e]] ? 0 : 1;
    s.count[s.cone[i]] = c;
  }
  // A pair run in full recounts every gate: every surviving gate outside
  // the cone keeps its recorded count less its transitions in such pairs,
  // plus the new run's.
  const bool dense = fallbacks > 0;
  if (dense) {
    for (GateId g = 0; g < slots; ++g) {
      if (!netlist.alive(g) || edit.removed(g) || s.member(g)) continue;
      long c = recorded(g);
      for (std::uint32_t e = trace.offset[g]; e < trace.offset[g + 1]; ++e)
        c -= s.full[trace.pair_of[e]];
      s.count[g] = c;
    }
    for (int p = 0; p < trace.pairs; ++p) {
      if (!s.full[static_cast<std::size_t>(p)]) continue;
      s.run_full(view, trace, p, budget, [&] {
        // Gates outside the cone read only gates outside it, so the live
        // order settles them; the cone follows in its own order.
        for (const GateId g : netlist.topo_order())
          if (netlist.kind(g) != GateKind::kInput && !edit.removed(g) &&
              !s.member(g))
            s.val[g] = evaluate(view, g, s.val);
        settle(view, s.cone, &s.val);
      });
      for (const Scratch::Flip& f : s.flips) ++s.count[f.gate];
    }
  }
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
  std::vector<Scratch::Recorded>& rec = s.recorded;
  rec.clear();
  s.full.assign(static_cast<std::size_t>(trace->pairs), 0);
  if (!s.cone.empty()) {
    const long budget = event_budget(options, netlist.topo_order().size());
    stats.fallback_pairs = s.replay(*trace, budget, replayable,
                                    /*count_all=*/true);
    // The cone's v1 rows, every pair at once: a pair run in full settles
    // to the same values, since the boundary lies outside the cone.
    for (std::size_t i = 0; i < s.cone.size(); ++i)
      std::copy_n(s.cone_v1.begin() + static_cast<std::ptrdiff_t>(i * row),
                  row,
                  trace->v1.begin() +
                      static_cast<std::ptrdiff_t>(s.cone[i] * row));
    for (std::size_t i = 0; i < s.cone.size(); ++i)
      for (std::uint32_t e = s.list_begin[i]; e < s.list_begin[i + 1]; ++e)
        if (!s.full[s.list_pair[e]])
          rec.push_back(
              Scratch::Recorded{s.list_pair[e], s.cone[i], s.list_time[e]});
    long overflows = 0;
    for (int p = 0; p < trace->pairs; ++p) {
      const std::size_t sp = static_cast<std::size_t>(p);
      if (!s.full[sp]) {
        trace->batches[sp] += s.pair_batches[sp];
        continue;
      }
      const EdgeOutcome out = s.run_full(
          view, *trace, p, budget,
          [&] { settle(view, netlist.topo_order(), &s.val); });
      for (const Scratch::Flip& f : s.flips)
        rec.push_back(Scratch::Recorded{static_cast<std::uint32_t>(p), f.gate,
                                        f.time});
      trace->batches[sp] = out.batches;
      trace->replayable[sp] = out.overflow || out.tie ? 0 : 1;
      if (out.overflow) ++overflows;
    }
    // Every pair was replayed (and so cannot overflow) or run in full.
    estimate->event_overflows = overflows;
  }

  // Rebuild the transition lists. The cone's are the new ones and a dead
  // gate's is empty; every other live gate keeps its record, except in the
  // pairs run in full, whose new transitions merge in by pair. Without such
  // pairs, the runs of untouched gates between two touched ones move whole.
  // Each (gate, pair) group comes from one run, in time order.
  std::stable_sort(rec.begin(), rec.end(),
                   [](const Scratch::Recorded& a, const Scratch::Recorded& b) {
                     return a.gate < b.gate ||
                            (a.gate == b.gate && a.pair < b.pair);
                   });
  std::vector<GateId>& touched = s.touched;
  touched.clear();
  if (stats.fallback_pairs > 0) {
    for (GateId g = 0; g < slots; ++g) touched.push_back(g);
  } else {
    touched.assign(s.cone.begin(), s.cone.end());
    touched.insert(touched.end(), s.dead.begin(), s.dead.end());
    for (GateId g = static_cast<GateId>(old_slots); g < slots; ++g)
      touched.push_back(g);
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
        if (i < i_end && s.full[trace->pair_of[i]]) {
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
