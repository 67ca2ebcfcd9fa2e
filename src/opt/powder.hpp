#pragma once
// POWDER: power optimization of mapped netlists by permissible structural
// transformations — the paper's core algorithm (Figure 5).
//
//   power_estimate(netlist)
//   do {
//     cand_substitutions = get_candidate_substitutions(netlist)
//     while (repeat > 0 && cand_substitutions != {}) {
//       good = select_power_red_subst(...)      // PG_A+PG_B preselection,
//                                               // PG_C for the shortlist
//       if (check_delay(good) violates limit) continue;
//       if (!check_candidate(good))             // ATPG proof
//         continue;
//       perform_substitution(good);
//       power_estimate_update(good);            // TFO re-estimation
//     }
//   } while (cand_substitutions != {});
//
// With threads > 1 simulation and candidate matching shard across a thread
// pool; permissibility proofs run inline on the single commit thread, which
// applies substitutions through the journal (see DESIGN.md, "Parallel
// harvest/proof pipeline").

#include <array>
#include <chrono>
#include <string>
#include <utility>

#include "atpg/atpg.hpp"
#include "atpg/sat_checker.hpp"
#include "opt/candidates.hpp"
#include "opt/substitution.hpp"
#include "session/options.hpp"
#include "timing/timing.hpp"
#include "trace/options.hpp"

namespace powder {

/// What the greedy selection maximizes.
enum class Objective {
  kPower,  ///< predicted power gain PG_A + PG_B + PG_C (the paper)
  kArea,   ///< exact area gain — RAMBO-style cleanup, used for ablations
};

/// Post-commit equivalence guardrails. The signature check re-simulates an
/// independent pattern set after every commit and rolls the substitution
/// back on any primary-output mismatch; the final check builds a BDD miter
/// against the pristine input netlist at end of run and walks the journal
/// back to the last provably good state on mismatch. Together they enforce
/// the never-miscompare invariant: the optimizer either emits an equivalent
/// netlist or reports the rollback/failure in the PowderReport.
struct GuardOptions {
  bool signature_check = true;
  bool final_equivalence_check = false;  ///< exact but needs global BDDs
};

/// Permissibility-proof configuration: which engine settles candidates
/// (see ProofEngine) and the per-call limits of the two engines. Grouped
/// so a caller can hand a complete proof policy around as one value; the
/// Builder's `.proof_engine()/.atpg()/.sat()` methods remain thin adapters
/// onto this struct.
struct ProofOptions {
  ProofEngine engine = ProofEngine::kHybrid;
  AtpgOptions atpg;
  SatCheckerOptions sat;
};

/// Resource limits for one run. Exhaustion degrades the run (skip
/// candidate, fall back to the other engine, stop with a partial result
/// flagged in the report) — it never crashes or loops. The pools are shared
/// atomically by every thread that proves (see ResourceBudget).
struct BudgetOptions {
  double deadline_seconds = -1.0;  ///< wall clock for the run; <0 disables
  long atpg_backtrack_pool = -1;   ///< global PODEM pool; <0 = unlimited
  long sat_conflict_pool = -1;     ///< global SAT pool; <0 = unlimited
};

struct PowderOptions {
  Objective objective = Objective::kPower;
  int num_patterns = 2048;
  std::vector<double> pi_probs;  ///< empty = all 0.5
  std::uint64_t seed = 1;

  /// Inner-loop applications before candidates are re-harvested (the
  /// paper's `repeat` parameter).
  int repeat = 25;

  /// Delay constraint as a factor of the initial circuit delay. 1.0
  /// reproduces the paper's "with delay constraints" mode, 1.2 allows 20%
  /// slower, negative disables timing checks entirely.
  double delay_limit_factor = -1.0;

  /// Substitutions must beat this power gain to be applied.
  double min_gain = 1e-9;

  /// Shortlist size for the PG_C re-estimation (paper §3.5 pre-selection).
  int shortlist = 12;

  int max_outer_iterations = 64;

  /// Total threads for the harvest and simulation shards; proofs run
  /// inline on the commit thread. 1 = the serial algorithm; 0 = one per
  /// hardware thread. The final netlist is bit-identical at any thread
  /// count (with unlimited proof pools and no deadline — finite budgets
  /// drain in a timing-dependent order).
  int threads = 1;

  /// Which power model the greedy loop optimizes (DESIGN.md §13). The
  /// default zero-delay model reproduces the paper bit-identically; the
  /// timed model makes PG and the reported power glitch-inclusive.
  PowerModelKind power_model = PowerModelKind::kZeroDelay;
  /// Event-driven engine knobs used when power_model == kTimed (vector
  /// pairs, event budget, stimulus, seed). The stimulus is normally
  /// derived from pi_probs; set it explicitly for temporally correlated
  /// inputs.
  GlitchOptions glitch;

  /// Permissibility-proof policy: engine choice + per-call engine limits.
  ProofOptions proof;
  CandidateOptions candidates;
  GuardOptions guard;
  BudgetOptions budget;
  /// Session durability + graceful degradation: WAL checkpointing, resume,
  /// memory-pressure ladder (DESIGN.md §10).
  SessionOptions session;
  /// Observability sinks (all borrowed, all optional): span trace, metrics
  /// registry, decision audit log. With every sink null the instrumentation
  /// in the pipeline reduces to one branch per probe site.
  TraceOptions trace;
  bool check_invariants = false;  ///< netlist consistency after every apply

  class Builder;
  /// Entry point of the fluent configuration API:
  ///   auto opt = PowderOptions::builder().threads(8).deadline(30s).build();
  static Builder builder();
};

/// Fluent construction of PowderOptions, the stable public way to configure
/// a run — callers no longer reach into the nested structs field-by-field.
class PowderOptions::Builder {
 public:
  Builder& objective(Objective o) { opts_.objective = o; return *this; }
  Builder& patterns(int n) { opts_.num_patterns = n; return *this; }
  Builder& pi_probs(std::vector<double> probs) {
    opts_.pi_probs = std::move(probs);
    return *this;
  }
  Builder& seed(std::uint64_t s) { opts_.seed = s; return *this; }
  Builder& power_model(PowerModelKind k) {
    opts_.power_model = k;
    return *this;
  }
  Builder& glitch(GlitchOptions g) {
    opts_.glitch = std::move(g);
    return *this;
  }
  Builder& glitch_vector_pairs(int n) {
    opts_.glitch.num_vector_pairs = n;
    return *this;
  }
  Builder& glitch_event_cap(long n) {
    opts_.glitch.max_events_per_pair = n;
    return *this;
  }
  Builder& repeat(int n) { opts_.repeat = n; return *this; }
  Builder& delay_limit_factor(double f) {
    opts_.delay_limit_factor = f;
    return *this;
  }
  Builder& min_gain(double g) { opts_.min_gain = g; return *this; }
  Builder& shortlist(int n) { opts_.shortlist = n; return *this; }
  Builder& max_outer_iterations(int n) {
    opts_.max_outer_iterations = n;
    return *this;
  }
  // Source-compat adapter: the flat proof knobs now live in the nested
  // ProofOptions group; existing callers keep compiling unchanged.
  Builder& proof_engine(ProofEngine e) {
    opts_.proof.engine = e;
    return *this;
  }
  Builder& threads(int n) { opts_.threads = n; return *this; }
  Builder& proof(ProofOptions p) { opts_.proof = std::move(p); return *this; }
  Builder& deadline(double seconds) {
    opts_.budget.deadline_seconds = seconds;
    return *this;
  }
  Builder& deadline(std::chrono::duration<double> d) {
    return deadline(d.count());
  }
  Builder& atpg_backtrack_pool(long n) {
    opts_.budget.atpg_backtrack_pool = n;
    return *this;
  }
  Builder& sat_conflict_pool(long n) {
    opts_.budget.sat_conflict_pool = n;
    return *this;
  }
  Builder& signature_check(bool on) {
    opts_.guard.signature_check = on;
    return *this;
  }
  Builder& final_equivalence_check(bool on) {
    opts_.guard.final_equivalence_check = on;
    return *this;
  }
  Builder& check_invariants(bool on) {
    opts_.check_invariants = on;
    return *this;
  }
  Builder& checkpoint_out(std::string path) {
    opts_.session.checkpoint_out = std::move(path);
    return *this;
  }
  Builder& resume_from(std::string path) {
    opts_.session.resume_from = std::move(path);
    return *this;
  }
  Builder& mem_limit_bytes(long long bytes) {
    opts_.session.mem_limit_bytes = bytes;
    return *this;
  }
  Builder& session(SessionOptions s) {
    opts_.session = std::move(s);
    return *this;
  }
  Builder& candidates(CandidateOptions c) {
    opts_.candidates = c;
    return *this;
  }
  Builder& resub(ResubOptions r) {
    opts_.candidates.resub = r;
    return *this;
  }
  /// Largest divisor-set size the harvest proposes (2 = pair classes only).
  Builder& max_divisors(int k) {
    opts_.candidates.resub.max_divisors = k;
    return *this;
  }
  Builder& atpg(AtpgOptions a) { opts_.proof.atpg = a; return *this; }
  Builder& sat(SatCheckerOptions s) { opts_.proof.sat = s; return *this; }
  Builder& trace(TraceSession* session) {
    opts_.trace.trace = session;
    return *this;
  }
  Builder& metrics(MetricsRegistry* registry) {
    opts_.trace.metrics = registry;
    return *this;
  }
  Builder& audit(AuditLog* log) {
    opts_.trace.audit = log;
    return *this;
  }
  Builder& progress(ProgressStream* stream) {
    opts_.trace.progress = stream;
    return *this;
  }
  Builder& attribution(PowerAttribution* sink) {
    opts_.trace.attribution = sink;
    return *this;
  }

  PowderOptions build() const { return opts_; }

 private:
  PowderOptions opts_;
};

inline PowderOptions::Builder PowderOptions::builder() { return Builder{}; }

/// Version of the JSON document PowderReport::to_json emits (the
/// `"schema_version"` top-level key). The stability contract lives in
/// DESIGN.md §11.4: within one version, existing keys never change type or
/// meaning and are never removed; adding keys bumps nothing, removing or
/// redefining them bumps this number. Version 1 is the pre-versioned PR 5
/// layout; version 2 adds `schema_version` itself and the
/// `diagnostics.windowing` sub-object. Version 3 redefines `by_class` from
/// the four paper classes to the seven resubstitution classes (OSK / ISK /
/// FUNCRED appended) — consumers iterating the old fixed four-key object
/// must re-read the contract, hence the bump — and adds
/// `diagnostics.resub`. Version 4 makes `initial_power`/`final_power`
/// model-relative — under `--power-model=timed` they are glitch-inclusive
/// totals, a redefinition of meaning for those runs — and adds the
/// `diagnostics.power_model` sub-object naming the model that produced
/// them. Version 5 extends the histogram objects inside `metrics` with
/// derived `p50`/`p90`/`p99` quantile keys (bucket upper bounds in ns,
/// null when the observation falls in the +Inf catch-all) — strictly
/// additive per key, but the histogram *object shape* is part of the
/// wire contract for consumers that iterate its members, so the version
/// records the change; nothing outside `metrics` moved. Keys retired
/// within version 5 stay in the document as literal 0 until the next bump
/// (DESIGN.md §11.4).
inline constexpr int kReportSchemaVersion = 5;

struct ClassStats {
  int applied = 0;
  double power_delta = 0.0;  ///< measured power reduction (positive = saved)
  double area_delta = 0.0;   ///< measured area change (negative = saved)
};

struct PowderReport {
  double initial_power = 0.0, final_power = 0.0;
  double initial_area = 0.0, final_area = 0.0;
  double initial_delay = 0.0, final_delay = 0.0;
  double delay_limit = 0.0;  ///< absolute limit used (inf when disabled)

  int substitutions_applied = 0;
  int candidates_harvested = 0;
  int rejected_by_delay = 0;
  int rejected_by_atpg = 0;
  int rejected_stale = 0;
  int outer_iterations = 0;
  /// Wall time of run() on a steady clock, not CPU time; report schema 5
  /// keeps the name.
  double cpu_seconds = 0.0;

  std::array<ClassStats, kNumResubClasses> by_class;  ///< indexed by ResubClass

  /// Robustness and threading accounting, separated from the core result so
  /// consumers comparing runs (e.g. the determinism test) can ignore the
  /// timing-dependent part wholesale.
  struct Diagnostics {
    int guard_rollbacks = 0;        ///< commits undone by the signature guard
    int final_check_rollbacks = 0;  ///< commits undone by the end-of-run check
    int apply_failures = 0;         ///< applies rejected by the validity check
    bool guard_failed = false;      ///< inequivalence persisted after rollback
    bool budget_exhausted = false;  ///< both proof pools drained
    bool deadline_hit = false;      ///< wall-clock deadline stopped the run

    // Session durability & degradation accounting (DESIGN.md §10).
    int degradation_events = 0;   ///< ladder step-downs published this run
    long checkpoint_frames = 0;   ///< WAL commit frames durably written
    long resume_replayed = 0;     ///< commits fast-forwarded from the WAL
    bool checkpoint_disabled = false;  ///< checkpointing lost to an I/O error
    bool mem_limit_hit = false;   ///< RSS crossed session.mem_limit_bytes

    int threads_used = 1;    ///< resolved thread count of the run
    long inline_proofs = 0;  ///< engine proofs run by the loop

    // Incremental-core accounting (DESIGN.md §6).
    long deltas_published = 0;        ///< netlist deltas this run published
    long observer_notifications = 0;  ///< delta deliveries to subscribers
    /// Gates the incremental STA evaluated: live refreshes plus the delay
    /// checks' overlays (delay_checks.overlay_visits).
    long sta_incremental_visits = 0;
    /// What full STAs would have evaluated for the same refreshes and checks.
    long sta_full_equiv_visits = 0;
    /// Candidate-index work on iterations >= 2 (iteration 1 is always a
    /// full build): gates re-hashed vs the index size at those refreshes.
    long candidate_gates_refreshed = 0;
    long candidate_index_size = 0;

    // Data-plane memory accounting (DESIGN.md §7).
    long pin_slabs_allocated = 0;  ///< pin-arena slabs carved from the pools
    long pin_slabs_recycled = 0;   ///< slab reuses served by the freelists
    long name_pool_bytes = 0;      ///< bytes held by the interned-name pool
    long peak_rss_bytes = 0;       ///< VmHWM sampled at end of run (0=unknown)
    /// Events the attached trace session dropped on full rings by the end
    /// of the run (0 without a session): non-zero means span totals
    /// undercount.
    long trace_dropped = 0;

    /// Per-class accept/reject economics of the generalized resubstitution
    /// framework, exported as registry counters too. Indexed by
    /// ResubClass; `gain` is the measured power delta of the class's
    /// applied transforms (same value as by_class[i].power_delta).
    struct Resub {
      struct PerClass {
        long harvested = 0;  ///< candidates the finder proposed
        long proved = 0;     ///< candidates proved permissible
        long applied = 0;    ///< candidates committed and kept
        double gain = 0.0;   ///< measured power reduction of the class
      };
      std::array<PerClass, kNumResubClasses> by_class;
      long harvest_truncated = 0;  ///< candidates dropped by max_candidates
      long harvest_sites = 0;          ///< sites the harvests bounded
      long harvest_sites_matched = 0;  ///< sites matched, not bound-pruned
      /// (b, c) pairs the OS3/IS3 pair filter tested over the matched
      /// sites, and how many left some 2-input cell standing.
      long three_sub_pairs = 0;
      long three_sub_pairs_passed = 0;
    };
    Resub resub;

    /// Delay checks (§3.4) evaluated against a finite limit: each overlays
    /// the candidate edit on the live STA. Reject ratio =
    /// rejected_by_delay / checks; work per check = overlay_visits / checks.
    struct DelayChecks {
      long checks = 0;
      long overlay_visits = 0;     ///< gates the overlays evaluated
      long full_equiv_visits = 0;  ///< live topo size, summed per check
    };
    DelayChecks delay_checks;

    /// Power-model accounting (schema version 4). `kind` is the
    /// power_model_name() spelling; the remaining fields are zero for the
    /// zero-delay model.
    struct PowerModelDiag {
      std::string kind = "zero-delay";
      int vector_pairs = 0;       ///< event-sim sample size per estimate
      long timed_resims = 0;      ///< full event-driven estimates
      /// Post-commit refreshes that replayed the edits' cone instead, the
      /// gates they replayed and the pairs they re-simulated in full.
      long cone_refreshes = 0;
      long refresh_cone_gates = 0;
      long refresh_fallback_pairs = 0;
      long event_overflows = 0;   ///< pairs truncated by the event budget
      double glitch_share = 0.0;  ///< final (timed - zero-delay) / timed
      // Selection-loop PG_C work (both models): values computed, and
      // shortlisted values reused because the netlist epoch had not moved.
      long pgc_evaluations = 0;
      long pgc_memo_hits = 0;
      // Timed PG_C replays: affected-set gates simulated, and vector pairs
      // re-simulated in full instead.
      long pgc_cone_gates = 0;
      long pgc_fallback_pairs = 0;
    };
    PowerModelDiag power_model;

    /// Selection rounds, and the candidates they re-scored (PG_A/PG_B
    /// computed) vs kept across a commit because no gate they read changed.
    struct Selection {
      long rounds = 0;
      long rescored = 0;
      long reused = 0;
    };
    Selection selection;
  };
  Diagnostics diagnostics;

  /// End-of-run snapshot of the attached MetricsRegistry as a JSON object
  /// (empty when the run had no metrics sink). to_json() embeds it under
  /// the "metrics" key, which is how --report-json picks the counters up.
  std::string metrics_json;

  double power_reduction_percent() const {
    return initial_power > 0.0
               ? 100.0 * (initial_power - final_power) / initial_power
               : 0.0;
  }
  double area_reduction_percent() const {
    return initial_area > 0.0
               ? 100.0 * (initial_area - final_area) / initial_area
               : 0.0;
  }

  /// Serializes every field (including diagnostics and per-class stats) as
  /// a JSON object; the CLI's --report-json and the bench harness use this
  /// instead of hand-formatting fields.
  std::string to_json() const;
};

class PowderOptimizer {
 public:
  PowderOptimizer(Netlist* netlist, PowderOptions options = {});

  /// Runs the full optimization; the netlist is modified in place.
  PowderReport run();

 private:
  Netlist* netlist_;
  PowderOptions options_;

  /// Throws CheckError on malformed options (non-positive pattern count,
  /// pi_probs size/range mismatch, empty shortlist, ...).
  void validate_options() const;
};

/// Stable library entry point (also exported by the umbrella header
/// src/powder.hpp): optimizes `netlist` in place and returns the report.
PowderReport optimize(Netlist& netlist, const PowderOptions& options = {});

}  // namespace powder
