#pragma once
// Bit-parallel (64 patterns per word) logic simulation of mapped netlists.
//
// This is the workhorse behind both POWDER ingredients:
//  * signal probabilities / transition activities for power estimation
//    (weighted random patterns honoring the primary-input probabilities),
//  * signatures and observability masks for candidate-substitution
//    harvesting (a fault-simulation style flip-and-diff pass).
//
// Values are indexed by GateId and survive netlist mutation: the simulator
// subscribes to the netlist's delta bus, accumulates the dirty roots of
// every published mutation itself, and `refresh()` recomputes exactly the
// affected transitive fanout — callers no longer thread `changed_roots`
// through by hand. Queries require a clean simulator (refresh() after any
// mutation); the flip-and-diff passes check this.
//
// Cost model (DESIGN.md §6.1): every flip-and-diff pass and every
// incremental refresh costs O(cone), not O(netlist), apart from the
// netlist's own recomputation of its topological order after a structural
// change. The cone is marked with epoch stamps and sorted by its cached
// topological positions, which reproduces the order a scan of the whole
// topological order would give, and a scratch lease clears only the flags
// it set.
//
// Threading model: the const query methods (value, signal_prob, the
// observability / replacement-diff / trial-probability passes) are safe to
// call from several threads at once — every pass works on a scratch buffer
// acquired from an internal pool, never on shared mutable state. The
// mutating methods (resimulate_*, use_exhaustive_patterns) are
// single-writer: they must not overlap with each other or with queries.
// When a ThreadPool is attached via set_thread_pool, the mutating passes
// and top-level flip-and-diff queries additionally shard their inner loops
// across per-thread word ranges; results are bit-identical to the serial
// computation for any thread count.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace powder {

class TraceSession;
class MetricsRegistry;

/// Word-level evaluator for library cells: a minimized SOP per cell,
/// shared by all simulator instances over the same library.
class CellEvaluator {
 public:
  explicit CellEvaluator(const CellLibrary& library);

  /// Evaluates one 64-pattern word of cell `cell` from fanin words.
  std::uint64_t evaluate(CellId cell,
                         std::span<const std::uint64_t> fanin_words) const;

 private:
  struct WordCube {
    std::uint64_t care = 0;   ///< bit i set: input i appears in the cube
    std::uint64_t value = 0;  ///< bit i: required phase of input i
  };
  struct CellSop {
    std::vector<WordCube> cubes;
    bool const_one = false;
  };
  std::vector<CellSop> sops_;
};

class Simulator final : public NetlistObserver {
 public:
  /// `num_patterns` is rounded up to a multiple of 64. `pi_probs` gives the
  /// probability of each primary input being 1 (empty = all 0.5). The
  /// simulator attaches itself to the netlist's delta bus; the netlist must
  /// outlive it.
  Simulator(const Netlist& netlist, int num_patterns,
            std::vector<double> pi_probs = {},
            std::uint64_t seed = 0xB0DD5EEDull);
  ~Simulator() override;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  const Netlist& netlist() const { return *netlist_; }
  int num_words() const { return num_words_; }
  int num_patterns() const { return 64 * num_words_; }
  const std::vector<double>& pi_probs() const { return pi_probs_; }

  /// Attaches a thread pool used to shard the simulation kernels across
  /// word ranges (nullptr restores serial execution). The pool is borrowed
  /// and must outlive the simulator's use of it.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Attaches observability sinks (both borrowed, either may be null).
  /// Full and incremental resimulations then emit "sim_resim_full" /
  /// "sim_resim_incremental" spans and feed the resim latency histogram.
  void set_trace(TraceSession* trace, MetricsRegistry* metrics);

  /// Replaces the PI stimulus with exhaustive patterns (requires
  /// num_inputs() <= 16; pattern count becomes 2^n rounded up to 64).
  void use_exhaustive_patterns();

  /// Full resimulation of every live gate (also resizes internal storage
  /// after gates were added). Clears any pending dirty state.
  void resimulate_all();

  /// Result of one incremental refresh: either a full resimulation
  /// happened, or exactly `gates` (roots plus transitive fanout, in
  /// topological order) were re-evaluated, and `changed` (a subsequence of
  /// `gates`) lists those whose value words differ from before.
  struct RefreshResult {
    bool full = false;
    std::vector<GateId> gates;
    std::vector<GateId> changed;
  };

  /// Brings the values up to date with every netlist delta observed since
  /// the last refresh. No-op (empty result) when nothing is pending.
  RefreshResult refresh();

  /// True when a netlist mutation was observed and refresh() is due.
  bool pending() const { return full_resim_ || !dirty_roots_.empty(); }

  /// Single-consumer drain of the gates re-evaluated since the last drain
  /// (by refresh or resimulate_all). `full` means "assume everything" —
  /// set by full resimulations and by accumulator overflow. The candidate
  /// index uses this to re-hash only value-dirty signals.
  struct Refreshed {
    bool full = false;
    std::vector<GateId> gates;
  };
  Refreshed drain_refreshed() const;

  /// Delta-bus subscription (called by the netlist; not for users).
  void on_delta(const NetlistDelta& delta) override;

  std::span<const std::uint64_t> value(GateId g) const {
    return {values_.data() + static_cast<std::size_t>(g) * num_words_,
            static_cast<std::size_t>(num_words_)};
  }

  /// Fraction of patterns where the signal is 1.
  double signal_prob(GateId g) const;

  /// Zero-delay transition activity E(s) = 2 p (1-p).
  double activity(GateId g) const {
    const double p = signal_prob(g);
    return 2.0 * p * (1.0 - p);
  }

  /// Observability mask of stem `g`: bit set for every pattern where
  /// complementing g's signal changes at least one primary output.
  std::vector<std::uint64_t> stem_observability(GateId g) const;

  /// Observability mask of one fanout branch of `g` (flip only that pin).
  std::vector<std::uint64_t> branch_observability(GateId g,
                                                  FanoutRef branch) const;

  /// OR of output differences if gate `site`'s signal (stem) or one branch
  /// is *replaced* by the given value words (not just complemented).
  /// Used to validate candidate substitutions against the sampled patterns.
  std::vector<std::uint64_t> output_diff_with_replacement(
      GateId site, const FanoutRef* branch,
      std::span<const std::uint64_t> replacement) const;

  /// Trial evaluation of a replacement: returns (gate, new signal
  /// probability) for every gate in the site's transitive fanout whose
  /// value vector actually changes under the replacement (the inputs to
  /// the paper's PG_C term). The netlist is not modified.
  std::vector<std::pair<GateId, double>> trial_new_probs(
      GateId site, const FanoutRef* branch,
      std::span<const std::uint64_t> replacement) const;

  /// Word-level evaluator shared with candidate generation.
  const CellEvaluator& evaluator() const { return evaluator_; }

 private:
  /// Epoch-stamped cone marks: stamp[g] == epoch while g is in the cone
  /// being collected. Each cone takes a fresh epoch, so nothing is cleared
  /// between cones; the table is refilled only when the epoch wraps.
  struct ConeMarks {
    std::vector<std::uint32_t> stamp;  // slots
    std::uint32_t epoch = 0;
    std::vector<GateId> stack;
    std::vector<std::uint64_t> keys;  // (topological position, gate)
  };

  /// One flip-and-diff working set: a full values-shaped word array, the
  /// per-gate dirty flags with the list of the flags set, and the cone
  /// marks. A lease starts with every flag clear and clears, on release,
  /// only the flags it set, so neither acquiring nor releasing touches the
  /// whole netlist. The marks belong to the lease, not the simulator,
  /// because harvest shards run flip-and-diff passes concurrently.
  struct Scratch {
    std::vector<std::uint64_t> words;  // slots * num_words_
    std::vector<std::uint8_t> dirty;   // slots; 1 = read words, not values_
    std::vector<GateId> dirty_set;     // the gates whose flag is set
    ConeMarks cone;
    std::vector<GateId> order;  // the cone of the current pass
    // Per-lane dirty flags of a sharded pass (slots each; kept clear
    // between passes like `dirty`).
    std::vector<std::vector<std::uint8_t>> lane_dirty;

    void set_dirty(GateId g) {
      dirty[g] = 1;
      dirty_set.push_back(g);
    }
  };

  /// RAII lease of a Scratch from the simulator's pool.
  class ScratchLease {
   public:
    ScratchLease(const Simulator* sim, std::unique_ptr<Scratch> scratch)
        : sim_(sim), scratch_(std::move(scratch)) {}
    ~ScratchLease() { sim_->release_scratch(std::move(scratch_)); }
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;
    Scratch& operator*() const { return *scratch_; }
    Scratch* operator->() const { return scratch_.get(); }

   private:
    const Simulator* sim_;
    std::unique_ptr<Scratch> scratch_;
  };

  friend struct SimulatorTestAccess;

  const Netlist* netlist_;
  CellEvaluator evaluator_;
  int num_words_;
  std::vector<double> pi_probs_;
  Rng rng_;
  std::vector<std::uint64_t> values_;       // slots * num_words_
  std::vector<std::uint64_t> pi_stimulus_;  // frozen PI words
  ThreadPool* pool_ = nullptr;

  TraceSession* trace_ = nullptr;
  class Counter* m_resims_ = nullptr;
  class Counter* m_resim_gates_ = nullptr;
  class Histogram* h_resim_ns_ = nullptr;

  mutable std::mutex scratch_mutex_;
  mutable std::vector<std::unique_ptr<Scratch>> scratch_pool_;

  // Cone marks of resimulate_from (single writer).
  ConeMarks resim_cone_;

  // Dirty state accumulated by on_delta (mutated on the single writer
  // thread only; queries never run concurrently with mutations).
  bool full_resim_ = false;
  std::vector<GateId> dirty_roots_;
  std::vector<std::uint8_t> dirty_flag_;  // dedup for dirty_roots_

  // Refreshed-gate accumulator for drain_refreshed (bounded; overflow
  // degrades to `full`). Mutable so the const single consumer can drain.
  mutable bool refreshed_full_ = true;  // a fresh simulator = everything new
  mutable std::vector<GateId> refreshed_accum_;

  void ensure_capacity();
  void generate_stimulus();
  void mark_dirty_root(GateId g);
  void record_refreshed(const std::vector<GateId>& gates);

  /// Recomputes the values of `roots` and their transitive fanout only;
  /// returns the re-evaluated gates in topological order and appends to
  /// `*changed` those whose words moved. O(cone): the cone is marked with
  /// `resim_cone_` and sorted by topological position.
  std::vector<GateId> resimulate_from(std::span<const GateId> roots,
                                      std::vector<GateId>* changed);

  /// Collects into `*order`, in topological order, the transitive fanout
  /// of `seeds` (with the seeds themselves when `with_seeds`): a DFS marks
  /// the cone in `marks`, then the cone is sorted by
  /// Netlist::topo_positions(). The result is exactly the subsequence of
  /// topo_order() a filter over the whole order would produce.
  void cone_in_topo_order(ConeMarks& marks, std::span<const GateId> seeds,
                          bool with_seeds, std::vector<GateId>* order) const;

  ScratchLease acquire_scratch() const;
  void release_scratch(std::unique_ptr<Scratch> scratch) const;

  /// Number of word-range shards the current call may use (1 = serial).
  int word_shards() const;

  /// Computes words [w0, w1) of gate g's value into `dest + w0`, reading
  /// each fanin from `scratch_words` when its bit is set in `dirty`
  /// (nullable = never), else from `values_`. With kDetect, returns whether
  /// any of those words differs from what `dest` held (else false).
  template <bool kDetect = false>
  bool eval_gate_mixed(GateId g, std::uint64_t* dest,
                       const std::uint8_t* dirty,
                       const std::uint64_t* scratch_words, int w0,
                       int w1) const;

  /// Propagates preset scratch values of the gates in `dirty` through the
  /// TFO of `frontier`; returns OR over outputs of (faulty ^ good). When
  /// `changed` is non-null it collects, in topological order, the gates
  /// whose value vector changed (their new values live in scratch.words
  /// until the lease is released). The work is O(cone): the TFO is marked
  /// with the lease's stamps and ordered by topological position, never by
  /// a scan of the whole order. Shards the per-gate evaluation across word
  /// ranges when a pool is attached and the call does not already run on a
  /// pool worker; the result is bit-identical either way.
  std::vector<std::uint64_t> propagate_diff(
      Scratch& scratch, const std::vector<GateId>& frontier,
      std::vector<GateId>* changed = nullptr) const;
};

/// The post-commit primary-output signature guard over one simulator. It
/// snapshots every PO's value words once; a permissible edit never moves
/// them, because the PI stimulus is frozen. `note()` takes each refresh of
/// the simulator, and `ok()` compares only the POs whose words a refresh
/// reported moved since the last passing check (every PO after a full
/// refresh). The set is cleared only when a check passes, so every PO
/// outside it still equals its snapshot. `ok_full()` compares every PO
/// (the end-of-run guard). The simulator must outlive the guard.
class PoSignatureGuard {
 public:
  explicit PoSignatureGuard(const Simulator& sim);

  /// Records the POs one refresh of the simulator moved.
  void note(const Simulator::RefreshResult& refreshed);
  /// True when every PO matches its snapshot; compares the moved ones only.
  bool ok();
  /// True when every PO matches its snapshot; compares all of them.
  bool ok_full() const;

 private:
  static constexpr std::uint32_t kNotPo = ~std::uint32_t{0};
  bool matches(std::size_t po) const;

  const Simulator* sim_;
  std::vector<GateId> outputs_;
  std::vector<std::uint32_t> po_index_;  // slot -> index in outputs_
  std::vector<std::uint64_t> snapshot_;  // outputs_.size() * num_words
  std::vector<std::uint32_t> moved_;     // indices into outputs_ (may repeat)
  bool all_moved_ = false;
};

}  // namespace powder
