#include "power/glitch.hpp"

#include <span>

#include <algorithm>
#include <functional>

#include "timing/timing.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace powder {

namespace {

/// Zero-time value of non-input gate `g` against the current values.
std::uint8_t evaluate(const Netlist& nl, GateId g,
                      const std::vector<std::uint8_t>& val) {
  if (nl.kind(g) == GateKind::kOutput) return val[nl.fanin(g, 0)];
  const std::span<const GateId> fanins = nl.fanins(g);
  const TruthTable& f = nl.cell_of(g).function;
  std::uint64_t idx = 0;
  for (int pin = 0; pin < static_cast<int>(fanins.size()); ++pin)
    if (val[fanins[static_cast<std::size_t>(pin)]]) idx |= 1ull << pin;
  return f.bit(idx) ? 1 : 0;
}

/// Steady-state evaluation of the non-input gates of `order` (a
/// topological order); the values they read must already be in `val`.
void settle(const Netlist& nl, const std::vector<GateId>& order,
            std::vector<std::uint8_t>* val) {
  for (GateId g : order)
    if (nl.kind(g) != GateKind::kInput) (*val)[g] = evaluate(nl, g, *val);
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

/// Working state of the event loop, reused across vector pairs.
struct EdgeScratch {
  explicit EdgeScratch(std::size_t slots)
      : last_batch(slots, 0), last_value(slots, 0) {}

  /// Min-heap on time, driven by the same push_heap/pop_heap calls as
  /// std::priority_queue, so a given push/pop sequence pops events in the
  /// same order.
  std::vector<Event> heap;
  std::vector<GateId> dirty;
  /// Batch serial and value of each gate's last popped event (tie check).
  std::vector<std::uint64_t> last_batch;
  std::vector<std::uint8_t> last_value;
  std::uint64_t batch = 0;

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

/// The event loop behind both the full estimate and the cone replay:
/// propagates one v1 -> v2 edge under transport delays. `val` holds the
/// settled v1 values and the heap the initial events; `sources` are
/// transitions of signals the loop does not simulate, in time order. When a
/// signal changes, each fanout gate with `member[g]` set (every fanout when
/// `member` is null) is re-evaluated against the *current* values and its
/// new output scheduled after its own delay. Events sharing a timestamp are
/// applied as one batch and the affected gates re-evaluated once —
/// simultaneous input changes must not be serialized into phantom glitches.
/// Every change a heap event makes is reported to on_transition(g, time).
template <class OnTransition>
EdgeOutcome run_edge(const Netlist& nl, const std::vector<double>& delay,
                     const std::uint8_t* member,
                     std::span<const SourceEvent> sources, long budget,
                     bool stop_on_tie, std::vector<std::uint8_t>& val,
                     EdgeScratch& s, OnTransition&& on_transition) {
  EdgeOutcome out;
  std::vector<Event>& heap = s.heap;
  std::size_t next = 0;
  auto dirty_fanouts = [&](GateId g) {
    for (const FanoutRef& br : nl.fanouts(g))
      if (member == nullptr || member[br.gate]) s.dirty.push_back(br.gate);
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
      s.push(Event{now + delay[g], g, evaluate(nl, g, val)});
  }
  out.overflow = !heap.empty() || next < sources.size();
  return out;
}

long event_budget(const GlitchOptions& options, const Netlist& netlist) {
  return options.max_events_per_pair > 0
             ? options.max_events_per_pair
             : 1000 * static_cast<long>(netlist.topo_order().size()) + 10000;
}

bool pair_bit(const std::vector<std::uint64_t>& bits, int words, GateId row,
              int pair) {
  return (bits[static_cast<std::size_t>(row) * static_cast<std::size_t>(words) +
               static_cast<std::size_t>(pair / 64)] >>
          (pair % 64)) &
         1;
}

void set_pair_bit(std::vector<std::uint64_t>* bits, int words, GateId row,
                  int pair) {
  (*bits)[static_cast<std::size_t>(row) * static_cast<std::size_t>(words) +
          static_cast<std::size_t>(pair / 64)] |= 1ull << (pair % 64);
}

}  // namespace

std::size_t GlitchTrace::bytes() const {
  return delay.capacity() * sizeof(double) +
         (v1.capacity() + pi_v2.capacity()) * sizeof(std::uint64_t) +
         (offset.capacity() + pair_of.capacity()) * sizeof(std::uint32_t) +
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

  std::vector<double> zero_transitions(slots, 0.0);
  std::vector<double> timed_transitions(slots, 0.0);
  std::vector<double> ones(slots, 0.0);

  const long budget = event_budget(options, netlist);
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
  EdgeScratch scratch(slots);

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
    settle(netlist, topo, &val);
    initial = val;

    scratch.heap.clear();
    for (int i = 0; i < num_inputs; ++i) {
      const GateId g = netlist.inputs()[static_cast<std::size_t>(i)];
      const std::uint8_t want = v2[static_cast<std::size_t>(i)] ? 1 : 0;
      if (val[g] != want) scratch.push(Event{0.0, g, want});
    }
    const EdgeOutcome edge =
        run_edge(netlist, delay, nullptr, {}, budget, /*stop_on_tie=*/false,
                 val, scratch, [&](GateId g, double t) {
                   timed_transitions[g] += 1.0;
                   if (trace != nullptr)
                     recorded.push_back(
                         Recorded{static_cast<std::uint32_t>(pair), g, t});
                 });
    out.total_events += edge.batches;
    if (edge.overflow) ++out.event_overflows;  // budget ran out mid-storm

    for (GateId g = 0; g < slots; ++g) {
      if (!netlist.alive(g)) continue;
      if (val[g] != initial[g]) zero_transitions[g] += 1.0;
      if (val[g]) ones[g] += 1.0;
      if (trace != nullptr && initial[g])
        set_pair_bit(&trace->v1, words, g, pair);
    }
    if (trace != nullptr) {
      for (int i = 0; i < num_inputs; ++i)
        if (v2[static_cast<std::size_t>(i)])
          set_pair_bit(&trace->pi_v2, words, static_cast<GateId>(i), pair);
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

  out.timed_activity.assign(slots, 0.0);
  out.settled_prob.assign(slots, 0.0);
  const double n = static_cast<double>(pairs);
  for (GateId g = 0; g < slots; ++g) {
    if (!netlist.alive(g)) continue;
    out.settled_prob[g] = ones[g] / n;
    if (netlist.kind(g) == GateKind::kOutput) continue;
    const double cap = netlist.signal_cap(g);
    out.zero_delay_power += cap * zero_transitions[g] / n;
    // Round the per-gate activity first and accumulate cap * activity, so
    // that `timed_power` equals the sum of per-gate `signal_power(g)` terms
    // bitwise — the attribution plane reconciles against exactly that sum.
    out.timed_activity[g] = timed_transitions[g] / n;
    out.timed_power += cap * out.timed_activity[g];
  }
  return out;
}

double replay_timed_power(const Netlist& base, const GlitchTrace& trace,
                          const Netlist& trial, const GlitchOptions& options,
                          GlitchReplayStats* stats) {
  POWDER_CHECK_MSG(base.epoch() == trace.epoch &&
                       trace.delay.size() == base.num_slots() &&
                       trace.pairs == options.num_vector_pairs,
                   "glitch trace does not describe the base netlist");
  POWDER_CHECK(trial.num_inputs() == base.num_inputs());
  const std::size_t base_slots = base.num_slots();
  const std::size_t slots = trial.num_slots();
  const int pairs = trace.pairs;
  const int words = trace.words;

  std::vector<double> delay(slots, 0.0);
  for (GateId g = 0; g < slots; ++g)
    if (trial.alive(g)) delay[g] = gate_delay(trial, g);

  // The affected set A: every gate whose kind, cell, fanins or delay differ
  // from the record (the new gate, rewired sinks, revived slots, drivers
  // whose load changed), closed under fanout. Every other live gate reads
  // only unaffected gates, so it switches exactly as recorded.
  std::vector<std::uint8_t> member(slots, 0);
  std::vector<GateId> stack;
  for (GateId g = 0; g < slots; ++g) {
    if (!trial.alive(g)) continue;
    const bool same =
        g < base_slots && base.alive(g) && base.kind(g) == trial.kind(g) &&
        base.cell_id(g) == trial.cell_id(g) && delay[g] == trace.delay[g] &&
        std::ranges::equal(base.fanins(g), trial.fanins(g));
    if (same) continue;
    member[g] = 1;
    stack.push_back(g);
  }
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (const FanoutRef& br : trial.fanouts(g))
      if (!member[br.gate]) {
        member[br.gate] = 1;
        stack.push_back(br.gate);
      }
  }
  const std::vector<GateId>& topo = trial.topo_order();
  std::vector<GateId> cone;  // A in topological order
  for (GateId g : topo)
    if (member[g]) cone.push_back(g);
  // Boundary: unaffected fanins of A, whose recorded transitions drive it.
  // A zero-delay boundary gate that can switch would change value in a
  // later batch of the same timestamp than its replayed transition; such a
  // cone is never replayed. Inputs switch only at t = 0, and fanin-less
  // cells (constants) never switch.
  std::vector<GateId> boundary;
  std::vector<std::uint8_t> in_boundary(slots, 0);
  bool replayable = true;
  for (GateId g : cone)
    for (GateId fi : trial.fanins(g))
      if (!member[fi] && !in_boundary[fi]) {
        in_boundary[fi] = 1;
        boundary.push_back(fi);
        if (trial.num_fanins(fi) > 0 && !(delay[fi] > 0.0))
          replayable = false;
      }

  // Per-gate transition totals: the record's for unaffected gates, rebuilt
  // pair by pair for A.
  std::vector<long> count(slots, 0);
  for (GateId g = 0; g < slots; ++g)
    if (trial.alive(g) && !member[g])
      count[g] = static_cast<long>(trace.offset[g + 1] - trace.offset[g]);

  const long budget = event_budget(options, trial);
  EdgeScratch scratch(slots);
  std::vector<std::uint8_t> val(slots, 0);
  std::vector<std::uint32_t> cursor(boundary.size());
  for (std::size_t i = 0; i < boundary.size(); ++i)
    cursor[i] = trace.offset[boundary[i]];
  std::vector<SourceEvent> sources;
  std::vector<GateId> flipped;
  std::vector<std::uint8_t> full_pair(static_cast<std::size_t>(pairs), 0);
  long fallbacks = 0;

  for (int p = 0; p < pairs; ++p) {
    const std::size_t sp = static_cast<std::size_t>(p);
    // Replay A against the boundary's recorded transitions. The full run of
    // `trial` forms no more batches than the record plus the replay, so a
    // replay within the remaining budget cannot hide an overflow.
    if (replayable && trace.replayable[sp] && trace.batches[sp] < budget) {
      sources.clear();
      for (std::size_t i = 0; i < boundary.size(); ++i) {
        const GateId b = boundary[i];
        val[b] = pair_bit(trace.v1, words, b, p) ? 1 : 0;
        std::uint32_t& c = cursor[i];
        const std::uint32_t end = trace.offset[b + 1];
        while (c < end && trace.pair_of[c] < static_cast<std::uint32_t>(p))
          ++c;
        for (; c < end && trace.pair_of[c] == static_cast<std::uint32_t>(p);
             ++c)
          sources.push_back(SourceEvent{trace.time[c], b});
      }
      std::sort(sources.begin(), sources.end(),
                [](const SourceEvent& x, const SourceEvent& y) {
                  return x.time < y.time ||
                         (x.time == y.time && x.gate < y.gate);
                });
      settle(trial, cone, &val);
      scratch.heap.clear();
      flipped.clear();
      const EdgeOutcome edge =
          run_edge(trial, delay, member.data(), sources,
                   budget - trace.batches[sp], /*stop_on_tie=*/true, val,
                   scratch, [&](GateId g, double) { flipped.push_back(g); });
      if (!edge.tie && !edge.overflow) {
        for (GateId g : flipped) ++count[g];
        continue;
      }
    }
    // Fallback: the whole pair, exactly as estimate_glitch_power runs it.
    ++fallbacks;
    full_pair[sp] = 1;
    for (int i = 0; i < trial.num_inputs(); ++i) {
      const GateId g = trial.inputs()[static_cast<std::size_t>(i)];
      val[g] = pair_bit(trace.v1, words, g, p) ? 1 : 0;
    }
    settle(trial, topo, &val);
    scratch.heap.clear();
    for (int i = 0; i < trial.num_inputs(); ++i) {
      const GateId g = trial.inputs()[static_cast<std::size_t>(i)];
      const std::uint8_t want =
          pair_bit(trace.pi_v2, words, static_cast<GateId>(i), p) ? 1 : 0;
      if (val[g] != want) scratch.push(Event{0.0, g, want});
    }
    (void)run_edge(trial, delay, nullptr, {}, budget, /*stop_on_tie=*/false,
                   val, scratch, [&](GateId g, double) { ++count[g]; });
  }
  // A fully re-simulated pair recounted every gate: take its recorded
  // transitions back out of the unaffected gates' totals.
  if (fallbacks > 0)
    for (GateId g = 0; g < slots; ++g)
      if (trial.alive(g) && !member[g])
        for (std::uint32_t e = trace.offset[g]; e < trace.offset[g + 1]; ++e)
          if (full_pair[trace.pair_of[e]]) --count[g];
  if (stats != nullptr) {
    stats->cone_gates += static_cast<long>(cone.size());
    stats->fallback_pairs += fallbacks;
  }

  // Same summation as estimate_glitch_power, so the result is bitwise equal.
  const double n = static_cast<double>(pairs);
  double power = 0.0;
  for (GateId g = 0; g < slots; ++g) {
    if (!trial.alive(g) || trial.kind(g) == GateKind::kOutput) continue;
    const double activity = static_cast<double>(count[g]) / n;
    power += trial.signal_cap(g) * activity;
  }
  return power;
}

}  // namespace powder
