#pragma once
// Glitch-aware power estimation — the extension the paper's §2 explicitly
// leaves out ("we assume a zero-delay power estimation model ... glitches
// typically contribute about 20% to the total power consumption").
//
// Event-driven timed simulation under the same linear delay model as the
// STA (transport delays, no inertial filtering — an upper-bound-ish glitch
// count): random input-vector pairs are applied and every output
// transition of every signal is counted, not just the net final change.
// Comparing against the zero-delay count isolates the glitch share.
//
// The input stimulus is the same TemporalInputModel every other estimator
// consumes: vector pairs are one step of the per-input Markov chains, so a
// chain with toggle density d produces correlated (v1, v2) pairs instead
// of two independent draws. TemporalInputModel::independent(probs) (or an
// empty model: all inputs at 0.5) recovers the uncorrelated sampling.

#include <memory>
#include <span>
#include <vector>

#include "netlist/edit_plan.hpp"
#include "netlist/netlist.hpp"
#include "power/temporal.hpp"

namespace powder {

struct GlitchEstimate {
  /// sum_i C(i) * E_zero_delay(i): transitions counting only initial vs
  /// final value per vector pair (the paper's model).
  double zero_delay_power = 0.0;
  /// sum_i C(i) * E_timed(i): all transitions observed by the timed
  /// simulation, glitches included.
  double timed_power = 0.0;
  /// Per-gate average transitions per vector pair (indexed by GateId).
  std::vector<double> timed_activity;
  /// Vector pairs whose event budget ran out: their transition counts are
  /// truncated, so a non-zero value means the estimate is a lower bound.
  long event_overflows = 0;

  double glitch_share() const {
    return timed_power > 0.0
               ? (timed_power - zero_delay_power) / timed_power
               : 0.0;
  }
};

struct GlitchOptions {
  int num_vector_pairs = 256;
  /// Input stimulus, shared with estimate_temporal_activity: stationary
  /// probability and toggle density per primary input. Empty = all inputs
  /// independent at 0.5. A model with probabilities but an empty toggle
  /// vector is completed to the temporally independent chain d = 2p(1-p).
  TemporalInputModel stimulus;
  /// Event budget per vector pair; 0 = auto-scale (1000 * live gates +
  /// 10000, the old hardwired glitch-storm cap). Exhausted budgets are no
  /// longer silent: they increment GlitchEstimate::event_overflows.
  long max_events_per_pair = 0;
  std::uint64_t seed = 0x611DC4ull;
};

/// Per-pair record of the estimate of a netlist, from which a local edit is
/// re-estimated by replaying only its affected cone (GlitchReplayer,
/// DESIGN.md §13.1). Arrays are indexed by GateId of the recorded netlist.
struct GlitchTrace {
  std::uint64_t epoch = 0;  ///< netlist epoch the record describes
  int pairs = 0;
  int words = 0;  ///< 64-pair words per gate in `v1` and `pi_v2`
  std::vector<double> delay;  ///< gate_delay of every live gate
  /// Settled v1 value of gate g in pair p: bit p % 64 of
  /// v1[g * words + p / 64].
  std::vector<std::uint64_t> v1;
  /// v2 value of input i (inputs() order), laid out like `v1`.
  std::vector<std::uint64_t> pi_v2;
  /// Transitions of gate g, ordered by (pair, time), occupy
  /// [offset[g], offset[g + 1]) of `time` and `pair_of`. A transition always
  /// flips the signal, so the values need no storage.
  std::vector<std::uint32_t> offset;
  std::vector<double> time;
  std::vector<std::uint32_t> pair_of;
  /// Pairs in which gate g's settled value differs from its v1 value: its
  /// zero-delay transitions (the pairs with an odd transition count).
  std::vector<std::uint32_t> zero_delay_transitions;
  /// Upper bound on the event batches (the unit of the event budget) a full
  /// run of the pair forms: exact when the pair was last simulated whole,
  /// the previous bound plus the replay's batches after a cone refresh
  /// replayed it. A full run forms no more batches than the record plus a
  /// replay, so the bound keeps the replay's budget test sound.
  std::vector<long> batches;
  /// 0 when the pair overflowed its budget or popped two events of
  /// different value for one gate at one time (their order, and so the
  /// outcome, depends on unrelated heap contents): such a pair cannot seed
  /// a replay and is re-simulated in full.
  std::vector<std::uint8_t> replayable;
  /// C(g) * timed activity(g) for every live non-PO gate (0 elsewhere), and
  /// `timed_power` summed over the slots before g (one entry per slot plus
  /// the total). A trial re-sums from its first changed slot only.
  std::vector<double> power_term;
  std::vector<double> power_before;

  /// Heap bytes held by the record.
  std::size_t bytes() const;
};

/// Work done by cone replays.
struct GlitchReplayStats {
  long cone_gates = 0;      ///< affected-set sizes, summed over calls
  long fallback_pairs = 0;  ///< pairs re-simulated in full instead
};

/// Runs the estimate; when `trace` is non-null it also records the per-pair
/// base a later GlitchReplayer call starts from.
GlitchEstimate estimate_glitch_power(const Netlist& netlist,
                                     const GlitchOptions& options = {},
                                     GlitchTrace* trace = nullptr);

/// The cone-local replays of a recorded estimate. Only the gates whose
/// switching can differ from the record — the fanout closure of every gate
/// whose kind, cell, fanins or delay changed — are re-simulated, with their
/// boundary fanins replaying the recorded transitions; pairs the replay
/// cannot reproduce exactly (a different-value tie, an event-budget
/// overflow, a zero-delay boundary) are re-simulated in full. The scratch
/// tables are sized to the netlist once and stamped per call, so a call's
/// work is proportional to its cone. Not for concurrent use.
class GlitchReplayer {
 public:
  GlitchReplayer();
  ~GlitchReplayer();

  /// The `timed_power` estimate_glitch_power(edited, options) returns, bit
  /// for bit, where `edited` is `netlist` with `plan` applied — computed
  /// without applying it. `trace` must record `netlist` in its current
  /// state under the same options.
  double trial_power(const Netlist& netlist, const GlitchTrace& trace,
                     const EditPlan& plan, const GlitchOptions& options,
                     GlitchReplayStats* stats = nullptr);

  /// Brings `*trace` and `*estimate`, recorded on an earlier state of
  /// `netlist`, to what estimate_glitch_power(netlist, options, trace)
  /// gives now (every trace array bit for bit, except `batches`, which
  /// stays an upper bound). `changed` holds every gate whose kind, cell or
  /// fanins may differ from the record, including added, revived and
  /// removed slots; `loaded` every gate whose load may differ. Returns the
  /// work done.
  GlitchReplayStats refresh(const Netlist& netlist,
                            std::span<const GateId> changed,
                            std::span<const GateId> loaded,
                            const GlitchOptions& options, GlitchTrace* trace,
                            GlitchEstimate* estimate);

 private:
  struct Scratch;
  std::unique_ptr<Scratch> s_;
};

}  // namespace powder
