#include "opt/powder.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "opt/commit_stage.hpp"
#include "opt/power_gain.hpp"
#include "opt/selection.hpp"
#include "power/attribution.hpp"
#include "power/power.hpp"
#include "session/checkpoint.hpp"
#include "session/degradation.hpp"
#include "timing/incremental_timing.hpp"
#include "trace/metrics.hpp"
#include "trace/progress.hpp"
#include "trace/trace.hpp"
#include "util/budget.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/memstats.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace powder {

namespace {

/// Fault injection (Site::kStaleCandidate): rewrites `sub` into a
/// structurally valid signal substitution whose sampled signature *differs*
/// from the target's — exactly what a stale candidate surviving a buggy
/// revalidation would look like. Returns false when no such corruption
/// exists at this site.
bool corrupt_candidate(const Netlist& nl, const Simulator& sim,
                       CandidateSub* sub) {
  const GateId entry =
      sub->branch.has_value() ? sub->branch->gate : sub->target;
  const auto target_words = sim.value(sub->target);
  for (GateId g = 0; g < nl.num_slots(); ++g) {
    if (!nl.alive(g) || nl.kind(g) == GateKind::kOutput) continue;
    if (g == sub->target || g == entry) continue;
    const auto words = sim.value(g);
    bool differs = false;
    for (std::size_t w = 0; w < words.size(); ++w)
      if (words[w] != target_words[w]) {
        differs = true;
        break;
      }
    if (!differs) continue;
    CandidateSub trial = *sub;
    trial.cls = sub->branch.has_value() ? SubstClass::kIS2 : SubstClass::kOS2;
    trial.rep = ReplacementFunction::signal(g, false);
    trial.new_cell = kInvalidCell;
    if (!substitution_still_valid(nl, trial)) continue;
    *sub = trial;
    return true;
  }
  return false;
}

const char* engine_name(ProofEngine e) {
  switch (e) {
    case ProofEngine::kPodem: return "podem";
    case ProofEngine::kSat: return "sat";
    case ProofEngine::kHybrid: return "hybrid";
  }
  return "?";
}

const char* verdict_name(AtpgResult r) {
  switch (r) {
    case AtpgResult::kTestFound: return "test_found";
    case AtpgResult::kUntestable: return "untestable";
    case AtpgResult::kAborted: return "aborted";
  }
  return "?";
}

/// The degradation ladder's verdict, asked before each harvest and each
/// pick. The ladder steps down through kPodemOnly and kSignatureOnly before
/// it reaches kStop; at kStop the reason is flagged in `diag`.
bool stop_requested(DegradationLadder& ladder, const ResourceBudget& budget,
                    PowderReport::Diagnostics& diag) {
  if (ladder.evaluate(budget) != DegradationLevel::kStop) return false;
  switch (ladder.stop_reason()) {
    case StopReason::kDeadline: diag.deadline_hit = true; break;
    case StopReason::kProofBudget: diag.budget_exhausted = true; break;
    case StopReason::kMemLimit: diag.mem_limit_hit = true; break;
    case StopReason::kNone: break;
  }
  return true;
}

/// Books one harvest into the report. Candidate-index work counts from the
/// second harvest on: the first always builds the index in full.
void count_harvest(const CandidateFinder& finder,
                   const std::vector<CandidateSub>& cands, int outer,
                   PowderReport& report) {
  PowderReport::Diagnostics& d = report.diagnostics;
  report.candidates_harvested += static_cast<int>(cands.size());
  for (const CandidateSub& c : cands)
    ++d.resub.by_class[static_cast<std::size_t>(c.cls)].harvested;
  d.resub.harvest_truncated += static_cast<long>(finder.last_truncated());
  d.resub.harvest_sites += static_cast<long>(finder.last_sites());
  d.resub.harvest_sites_matched +=
      static_cast<long>(finder.last_sites_matched());
  d.resub.three_sub_pairs +=
      static_cast<long>(finder.last_three_sub_pairs().pairs);
  d.resub.three_sub_pairs_passed +=
      static_cast<long>(finder.last_three_sub_pairs().passed);
  if (outer >= 1) {
    d.candidate_gates_refreshed +=
        static_cast<long>(finder.last_refresh_count());
    d.candidate_index_size += static_cast<long>(finder.index_size());
  }
}

/// The delay check of §3.4: would `sub` push the circuit delay past
/// `limit`? It overlays the planned edit on the live arrival times, so
/// only the gates the edit touches and their forward cone are re-evaluated,
/// bit-identically to a full analyze_timing of the edited netlist, and the
/// netlist is neither copied nor mutated. An infinite limit passes at once;
/// every other check is counted in `checks`.
bool violates_delay(TraceSession* trace, const Netlist& netlist,
                    const CandidateSub& sub, double limit,
                    IncrementalTiming& timing,
                    PowderReport::Diagnostics::DelayChecks& checks) {
  TraceSpan span(trace, "delay_check", "sta");
  bool violated = false;
  if (std::isfinite(limit)) {
    (void)timing.circuit_delay();  // brings the live arrival times up to date
    std::uint64_t visits = 0;
    const double delay =
        timing.trial_delay(plan_substitution(netlist, sub), &visits);
    ++checks.checks;
    checks.overlay_visits += static_cast<long>(visits);
    checks.full_equiv_visits += static_cast<long>(timing.live_gates());
    violated = delay > limit + 1e-9;
  }
  span.arg("violated", violated ? 1 : 0);
  return violated;
}

/// What check_candidate decided: the audit decision of a rejection (null
/// when the candidate goes on to the commit stage), and what the proof
/// step knew.
struct Verdict {
  const char* rejection = nullptr;
  ProofNote note;
};

/// check_candidate of Figure 5: fault injection, the pre-simulation second
/// opinion, then the WAL replay oracle, the signature-only rung or a proof
/// engine, inline on the commit thread.
struct ProofStep {
  const PowderOptions& options;
  const Netlist& netlist;
  const Simulator& verify_sim;
  const SessionResume& resume;
  const DegradationLadder& ladder;
  AtpgChecker& atpg;
  SatChecker& sat;
  PowderReport& report;
  LoopTally& tally;

  Verdict check(CandidateSub* cand, ProofNote note) const {
    // Fault injection can force an unproven candidate through; the commit
    // stage's guards are what must catch it.
    bool forced = false;
    if (inject_fault(FaultInjector::Site::kStaleCandidate))
      forced = corrupt_candidate(netlist, verify_sim, cand);
    if (inject_fault(FaultInjector::Site::kAcceptProof)) forced = true;
    if (forced) return {nullptr, note};
    // Cheap pre-proof on the independent pattern set.
    if (refuted_by_simulation(verify_sim, *cand)) {
      ++tally.rejected_presim;
      return {"rejected_presim", note};
    }
    AtpgResult proof;
    if (resume.active()) {
      // WAL fast-forward: the oracle replaces the proof engines. A
      // candidate matching the next recorded commit was proved permissible
      // by the original run; any other candidate that reaches this stage
      // was rejected by it. Every cheaper stage (harvest, selection,
      // staleness, delay, presim) is recomputed live, so once the cursor
      // drains the run continues seamlessly — and bit-identically — on the
      // real engines.
      proof = resume.matches(*cand) ? AtpgResult::kUntestable
                                    : AtpgResult::kTestFound;
      note.engine = "replay";
    } else if (ladder.level() == DegradationLevel::kSignatureOnly) {
      // Signature-reject-only rung: proof effort is no longer affordable,
      // and an unproven candidate is never accepted — so everything that
      // survives presim is rejected here while the run drains toward a
      // clean stop with its committed gains intact.
      ++tally.rejected_degraded;
      note.engine = "none";
      note.verdict = "skipped";
      return {"rejected_degraded", note};
    } else {
      const ProofEngine engine = ladder.level() == DegradationLevel::kPodemOnly
                                     ? ProofEngine::kPodem
                                     : options.proof.engine;
      const bool timed = options.trace.any();
      const std::uint64_t t0 = timed ? trace_now_ns() : 0;
      proof = prove_replacement(atpg, sat, engine, cand->site(), cand->rep);
      if (timed) note.us = static_cast<double>(trace_now_ns() - t0) / 1000.0;
      note.engine = engine_name(engine);
      ++report.diagnostics.inline_proofs;
    }
    note.verdict = verdict_name(proof);
    if (proof != AtpgResult::kUntestable) {
      ++tally.rejected_proof;
      return {"rejected_proof", note};
    }
    ++report.diagnostics.resub.by_class[static_cast<std::size_t>(cand->cls)]
          .proved;
    return {nullptr, note};
  }
};

/// Fills an attached registry at the end of the run. The table names each
/// counter once: registry name, help text and where its value lives. The
/// registry keeps the loop's gross counts where the report keeps a net or
/// a sum (commits the end-of-run guard walked back, the three rejections
/// behind rejected_by_atpg). `inc()` keeps a registry shared across runs
/// monotonic, and the export is name-ordered, so registering at the end
/// changes nothing in it.
void publish_metrics(MetricsRegistry& reg, const PowderReport& r,
                     const LoopTally& t, const TraceSession* trace) {
  const PowderReport::Diagnostics& d = r.diagnostics;
  const struct {
    const char* name;
    const char* help;
    long long value;
  } counters[] = {
      {"powder_outer_iterations_total", "Outer harvest iterations run",
       r.outer_iterations},
      {"powder_candidates_harvested_total",
       "Candidates returned by the harvests", r.candidates_harvested},
      {"powder_rejected_stale_total",
       "Candidates dropped as structurally stale", r.rejected_stale},
      {"powder_rejected_delay_total", "Candidates rejected by the delay check",
       r.rejected_by_delay},
      {"powder_rejected_presim_total",
       "Candidates refuted by the independent-pattern pre-simulation",
       t.rejected_presim},
      {"powder_rejected_proof_total", "Candidates refuted by the proof engines",
       t.rejected_proof},
      {"powder_rejected_degraded_total",
       "Candidates rejected unproven by the degradation ladder",
       t.rejected_degraded},
      {"powder_substitutions_applied_total",
       "Substitutions committed to the netlist", t.applied},
      {"powder_apply_failures_total", "Applies rejected by the validity check",
       d.apply_failures},
      {"powder_guard_rollbacks_total", "Commits undone by the signature guard",
       d.guard_rollbacks},
      {"powder_final_rollbacks_total", "Commits undone by the end-of-run check",
       d.final_check_rollbacks},
      {"powder_inline_proofs_total", "Proofs run inline on the commit thread",
       d.inline_proofs},
      {"powder_harvest_truncated_total",
       "Candidates dropped because a harvest hit max_candidates",
       d.resub.harvest_truncated},
      {"powder_harvest_sites_total", "Sites the harvests bounded",
       d.resub.harvest_sites},
      {"powder_harvest_sites_matched_total",
       "Sites whose bound reached the k-th best gain and were matched",
       d.resub.harvest_sites_matched},
      {"powder_three_sub_pairs_total",
       "(b, c) pairs the OS3/IS3 pair filter tested", d.resub.three_sub_pairs},
      {"powder_three_sub_pairs_passed_total",
       "OS3/IS3 pairs that left some 2-input cell standing",
       d.resub.three_sub_pairs_passed},
      {"powder_pgc_evaluations_total",
       "PG_C values computed by the selection rounds",
       d.power_model.pgc_evaluations},
      {"powder_pgc_memo_hits_total",
       "Shortlisted PG_C values reused at an unchanged netlist epoch",
       d.power_model.pgc_memo_hits},
      {"powder_pgc_cone_gates_total",
       "Gates in the affected sets the timed PG_C replays simulated",
       d.power_model.pgc_cone_gates},
      {"powder_pgc_fallback_pairs_total",
       "Vector pairs timed PG_C re-simulated in full on the copy",
       d.power_model.pgc_fallback_pairs},
      {"powder_selection_rounds_total", "Selection rounds run",
       d.selection.rounds},
      {"powder_selection_rescored_total",
       "Candidates whose PG_A/PG_B a selection round computed",
       d.selection.rescored},
      {"powder_selection_reused_total",
       "Candidates kept across a commit: no gate they read changed",
       d.selection.reused},
      {"powder_deltas_published_total",
       "Netlist deltas published during the run", d.deltas_published},
      {"powder_observer_notifications_total",
       "Delta deliveries to netlist observers", d.observer_notifications},
      {"powder_sta_incremental_visits_total",
       "Gates the incremental STA re-evaluated", d.sta_incremental_visits},
      {"powder_sta_full_equiv_visits_total",
       "Gates a full STA would have re-evaluated", d.sta_full_equiv_visits},
  };
  for (const auto& c : counters) reg.counter(c.name, c.help)->inc(c.value);
  // Per-class names derive from the class table, so the export and the
  // report's by_class array can never disagree on the class set.
  for (int i = 0; i < kNumResubClasses; ++i) {
    const std::string cls = resub_class_name(static_cast<ResubClass>(i));
    const auto& pc = d.resub.by_class[static_cast<std::size_t>(i)];
    reg.counter("powder_resub_harvested_" + cls + "_total",
                "Candidates harvested for one resubstitution class")
        ->inc(pc.harvested);
    reg.counter("powder_resub_proved_" + cls + "_total",
                "Candidates proved permissible for one resubstitution class")
        ->inc(pc.proved);
  }
  reg.gauge("powder_power_initial", "Estimated power before optimization")
      ->set(r.initial_power);
  reg.gauge("powder_power_final", "Estimated power after optimization")
      ->set(r.final_power);
  reg.gauge("powder_area_final", "Total cell area after optimization")
      ->set(r.final_area);
  reg.gauge("powder_delay_final", "Circuit delay after optimization")
      ->set(r.final_delay);
  reg.gauge("powder_threads_used", "Resolved thread count of the run")
      ->set(static_cast<double>(d.threads_used));
  if (trace != nullptr) {
    reg.gauge("powder_trace_events_recorded",
              "Events accepted into the trace rings so far")
        ->set(static_cast<double>(trace->events_recorded()));
    reg.gauge("powder_trace_events_dropped",
              "Events dropped on full trace rings so far")
        ->set(static_cast<double>(trace->dropped()));
  }
}

}  // namespace

PowderOptimizer::PowderOptimizer(Netlist* netlist, PowderOptions options)
    : netlist_(netlist), options_(std::move(options)) {
  POWDER_CHECK(netlist_ != nullptr);
  // Malformed options are the caller's problem: surface them as the typed
  // kInput category at the API boundary (Error derives from CheckError, so
  // legacy catch sites keep working).
  try {
    validate_options();
  } catch (const Error&) {
    throw;
  } catch (const CheckError& e) {
    throw Error::input(e.what());
  }
}

void PowderOptimizer::validate_options() const {
  const PowderOptions& o = options_;
  POWDER_CHECK_MSG(o.num_patterns > 0,
                   "PowderOptions.num_patterns must be positive, got "
                       << o.num_patterns);
  if (!o.pi_probs.empty()) {
    // Latch outputs are pseudo-PIs whose probabilities come from the
    // reset-state fixed point, not from the user: the user supplies one
    // entry per *primary* input only.
    const int primary = netlist_->num_inputs() - netlist_->num_latches();
    POWDER_CHECK_MSG(
        static_cast<int>(o.pi_probs.size()) == primary,
        "PowderOptions.pi_probs has " << o.pi_probs.size()
                                      << " entries but the netlist has "
                                      << primary << " primary inputs");
    for (std::size_t i = 0; i < o.pi_probs.size(); ++i)
      POWDER_CHECK_MSG(std::isfinite(o.pi_probs[i]) && o.pi_probs[i] >= 0.0 &&
                           o.pi_probs[i] <= 1.0,
                       "PowderOptions.pi_probs[" << i << "] = " << o.pi_probs[i]
                                                 << " is outside [0, 1]");
  }
  POWDER_CHECK_MSG(o.shortlist > 0,
                   "PowderOptions.shortlist must be positive, got "
                       << o.shortlist);
  POWDER_CHECK_MSG(o.repeat > 0,
                   "PowderOptions.repeat must be positive, got " << o.repeat);
  POWDER_CHECK_MSG(o.max_outer_iterations > 0,
                   "PowderOptions.max_outer_iterations must be positive, got "
                       << o.max_outer_iterations);
  POWDER_CHECK_MSG(std::isfinite(o.min_gain),
                   "PowderOptions.min_gain must be finite");
  POWDER_CHECK_MSG(o.proof.atpg.backtrack_limit >= 0,
                   "PowderOptions.proof.atpg.backtrack_limit must be non-negative, "
                   "got " << o.proof.atpg.backtrack_limit);
  POWDER_CHECK_MSG(o.threads >= 0,
                   "PowderOptions.threads must be non-negative, got "
                       << o.threads);
  POWDER_CHECK_MSG(o.session.mem_limit_bytes >= 0,
                   "PowderOptions.session.mem_limit_bytes must be "
                   "non-negative, got " << o.session.mem_limit_bytes);
  POWDER_CHECK_MSG(o.session.podem_only_fraction >= 0.0 &&
                       o.session.podem_only_fraction <= 1.0 &&
                       o.session.signature_only_fraction >= 0.0 &&
                       o.session.signature_only_fraction <=
                           o.session.podem_only_fraction,
                   "PowderOptions.session degradation fractions must satisfy "
                   "0 <= signature_only_fraction <= podem_only_fraction <= 1");
  POWDER_CHECK_MSG(o.candidates.resub.max_divisors >= 2,
                   "PowderOptions.candidates.resub.max_divisors must be at "
                   "least 2 (the paper's pair classes), got "
                       << o.candidates.resub.max_divisors);
  POWDER_CHECK_MSG(o.candidates.resub.ksub_b_pool > 0,
                   "PowderOptions.candidates.resub.ksub_b_pool must be "
                   "positive, got " << o.candidates.resub.ksub_b_pool);
  POWDER_CHECK_MSG(o.candidates.resub.max_k_per_target > 0,
                   "PowderOptions.candidates.resub.max_k_per_target must be "
                   "positive, got " << o.candidates.resub.max_k_per_target);
  POWDER_CHECK_MSG(o.glitch.num_vector_pairs > 0,
                   "PowderOptions.glitch.num_vector_pairs must be positive, "
                   "got " << o.glitch.num_vector_pairs);
  POWDER_CHECK_MSG(o.glitch.max_events_per_pair >= 0,
                   "PowderOptions.glitch.max_events_per_pair must be "
                   "non-negative (0 = automatic), got "
                       << o.glitch.max_events_per_pair);
}

PowderReport PowderOptimizer::run() {
  const auto t_start = std::chrono::steady_clock::now();
  PowderReport report;
  LoopTally tally;

  TraceSession* const trace = options_.trace.trace;
  MetricsRegistry* const metrics = options_.trace.metrics;
  ProgressStream* const prog = options_.trace.progress;
  PowerAttribution* const attr = options_.trace.attribution;
  // The attribution ledger indexes classes without depending on the
  // optimizer headers; the two class sets must stay in lockstep.
  static_assert(kAttributionClasses == kNumResubClasses,
                "PowerAttribution class table out of sync with ResubClass");
  TraceSpan run_span(trace, "optimize", "powder");
  // Everything before the greedy loop's first harvest: simulators,
  // estimates, timing, proof engines and the candidate finder.
  std::optional<TraceSpan> setup_span(std::in_place, trace, "setup", "powder");

  int threads = options_.threads;
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  report.diagnostics.threads_used = threads;
  run_span.arg("threads", threads);

  ResourceBudget budget;
  budget.set_deadline(options_.budget.deadline_seconds);
  budget.set_atpg_backtrack_pool(options_.budget.atpg_backtrack_pool);
  budget.set_sat_conflict_pool(options_.budget.sat_conflict_pool);

  // ---- session durability (DESIGN.md §10) --------------------------------
  // Resume first (the WAL validates against the pristine netlist), then the
  // new checkpoint — so `--resume F --checkpoint-out F` reads the old log
  // completely before truncating the path for the new one.
  SessionResume resume;
  if (!options_.session.resume_from.empty())
    resume.load(options_.session.resume_from, *netlist_, options_);
  SessionRecorder recorder(metrics, options_.trace.audit);
  if (!options_.session.checkpoint_out.empty()) {
    recorder.open(options_.session.checkpoint_out, *netlist_, options_);
    recorder.set_after_frame_hook(options_.session.after_checkpoint_frame);
  }
  DegradationLadder ladder(options_.session, options_.budget.deadline_seconds,
                           options_.proof.engine, metrics,
                           options_.trace.audit);
  ladder.set_progress(prog);

  // Shared pool for the data-parallel kernels (word-sharded simulation, the
  // three-pass candidate harvest). Proofs run inline on this thread, the
  // single commit thread.
  ThreadPool pool(threads - 1);

  // Sequential circuits: latch outputs are pseudo-PIs whose stimulus
  // probability comes from the reset-state fixed point, spliced in between
  // the user's primary-input probabilities. Combinational netlists pass
  // options_.pi_probs through untouched (bit-identical legacy path).
  const std::vector<double> sim_probs =
      expand_pi_probs(*netlist_, options_.pi_probs);
  Simulator sim(*netlist_, options_.num_patterns, sim_probs, options_.seed);
  sim.set_thread_pool(&pool);
  sim.set_trace(trace, metrics);
  PowerEstimator est(&sim);
  // The model the greedy loop optimizes against: the zero-delay estimator
  // itself, or the event-driven TimedPowerModel layered over it when
  // --power-model=timed. All PG arithmetic below goes through `model`.
  std::optional<TimedPowerModel> timed_model;
  if (options_.power_model == PowerModelKind::kTimed) {
    GlitchOptions gopt = options_.glitch;
    if (gopt.stimulus.prob.empty() && !sim_probs.empty())
      gopt.stimulus.prob = sim_probs;
    timed_model.emplace(&est, std::move(gopt));
  }
  PowerModel& model = timed_model.has_value()
                          ? static_cast<PowerModel&>(*timed_model)
                          : static_cast<PowerModel&>(est);
  // Independent pattern set used as a cheap second opinion before the
  // expensive permissibility proof: a candidate that already fails on
  // fresh patterns is rejected without running PODEM/SAT at all. The same
  // simulator backs the commit stage's signature guard.
  Simulator verify_sim(*netlist_, options_.num_patterns, sim_probs,
                       options_.seed ^ 0x5EC0DD5EEDull);
  verify_sim.set_thread_pool(&pool);
  verify_sim.set_trace(trace, metrics);
  // Incremental STA over the main netlist: stays coherent through the delta
  // bus, and each delay check overlays its candidate edit on it.
  IncrementalTiming timing(*netlist_);
  timing.set_trace(trace, metrics);

  const std::uint64_t deltas_before = netlist_->deltas_published();
  const std::uint64_t notifications_before =
      netlist_->observer_notifications();

  report.initial_power = model.total_power();
  report.initial_area = netlist_->total_area();
  report.initial_delay = timing.circuit_delay();
  report.delay_limit = options_.delay_limit_factor < 0.0
                           ? std::numeric_limits<double>::infinity()
                           : report.initial_delay *
                                 options_.delay_limit_factor;

  // Attribution binds here — after the model's first full estimate, before
  // any mutation — so its "before" sweep reproduces initial_power exactly.
  if (attr != nullptr) attr->begin_run(netlist_, &model);
  if (prog != nullptr) {
    long live_cells = 0;
    for (GateId g = 0; g < netlist_->num_slots(); ++g)
      if (netlist_->alive(g) && netlist_->kind(g) == GateKind::kCell)
        ++live_cells;
    prog->run_start(netlist_->name(), live_cells, netlist_->num_inputs(),
                    netlist_->num_outputs(), threads,
                    power_model_name(model.kind()));
  }

  AtpgOptions atpg_options = options_.proof.atpg;
  atpg_options.budget = &budget;
  atpg_options.trace = trace;
  atpg_options.metrics = metrics;
  SatCheckerOptions sat_options = options_.proof.sat;
  sat_options.budget = &budget;
  sat_options.trace = trace;
  sat_options.metrics = metrics;
  AtpgChecker atpg(*netlist_, atpg_options);
  SatChecker sat(*netlist_, sat_options);

  CommitStage stage(netlist_, options_, est,
                    timed_model.has_value() ? &*timed_model : nullptr,
                    verify_sim, resume, recorder, report, tally);
  const ProofStep proof{options_, *netlist_, verify_sim, resume, ladder,
                        atpg,     sat,       report,     tally};
  SelectionStats selection_stats;

  // Persistent across iterations: the signature index refreshes only the
  // epoch-dirty gates on re-harvest. Reseeding per iteration keeps the RNG
  // stream identical to a freshly constructed finder.
  CandidateFinder finder(*netlist_, model, options_.candidates, options_.seed,
                         &pool);
  finder.set_trace(trace);
  stage.progress_tick();

  // ---- the greedy loop: harvest → (select → delay → prove → commit)* ----
  bool progress = true;
  bool stopped = false;
  setup_span.reset();
  for (int outer = 0;
       progress && !stopped && outer < options_.max_outer_iterations;
       ++outer) {
    ++report.outer_iterations;
    stage.set_iteration(outer + 1);
    TraceSpan iter_span(trace, "iteration", "powder");
    iter_span.arg("outer", outer + 1);
    progress = false;
    if (stop_requested(ladder, budget, report.diagnostics)) break;
    stage.progress_tick();

    // ---- get_candidate_substitutions -------------------------------------
    finder.reseed(options_.seed + 17 * static_cast<std::uint64_t>(outer));
    std::vector<CandidateSub> cands;
    {
      TraceSpan harvest_span(trace, "harvest", "harvest");
      if (prog != nullptr) prog->phase(outer + 1, "harvest");
      cands = finder.find();
      harvest_span.arg("candidates", static_cast<long long>(cands.size()));
      harvest_span.arg("sites_matched",
                       static_cast<long long>(finder.last_sites_matched()));
    }
    if (prog != nullptr)
      prog->phase(outer + 1, "proof", static_cast<long long>(cands.size()),
                  "candidates");
    SelectionMemo memo(*netlist_, model);
    count_harvest(finder, cands, outer, report);

    int performed = 0;
    // Picks leave tombstones in `cands` until a round at a new epoch
    // compacts it; the loop ends when no live candidate is left.
    while (performed < options_.repeat && memo.live(cands) > 0) {
      if (stop_requested(ladder, budget, report.diagnostics)) {
        stopped = true;
        break;
      }
      // ---- select_power_red_subst ---------------------------------------
      // Re-check the validity of the candidates whose memo predates the
      // netlist's epoch, re-score PG_A+PG_B where a gate they read changed,
      // preselect the best, then re-estimate PG_C for the shortlist only.
      const std::size_t best = select_power_red_subst(
          memo, &cands, options_,
          [&](const CandidateSub& c) {
            if (substitution_still_valid(*netlist_, c)) return true;
            ++report.rejected_stale;
            stage.audit(c, "rejected_stale");
            return false;
          },
          &selection_stats);
      if (best == cands.size()) break;  // nothing left that helps
      CandidateSub chosen = take_pick(memo, &cands, best);
      const ProofNote note{options_.objective != Objective::kArea};

      // ---- check_delay (§3.4) -------------------------------------------
      if (violates_delay(trace, *netlist_, chosen, report.delay_limit, timing,
                         report.diagnostics.delay_checks)) {
        ++report.rejected_by_delay;
        stage.audit(chosen, "rejected_delay", note);
        continue;
      }

      // ---- check_candidate: permissibility proof ------------------------
      const Verdict verdict = proof.check(&chosen, note);
      if (verdict.rejection != nullptr) {
        stage.audit(chosen, verdict.rejection, verdict.note);
        continue;
      }

      // ---- perform_substitution + power_estimate_update -----------------
      if (!stage.commit(chosen, performed, verdict.note)) {
        if (stage.broken()) {
          stopped = true;
          break;
        }
        continue;
      }
      ++performed;
      progress = true;
      stage.progress_tick();
    }
    if (prog != nullptr) prog->phase(outer + 1, "commit", performed, "applied");
    iter_span.arg("applied", performed);
  }

  stage.final_guard();
  PowderReport::Diagnostics& d = report.diagnostics;
  report.substitutions_applied = stage.kept();
  report.rejected_by_atpg = static_cast<int>(
      tally.rejected_presim + tally.rejected_proof + tally.rejected_degraded);
  // After the guard walk, so the applied/gain columns reflect the commits
  // that actually survived into the output.
  for (std::size_t k = 0; k < report.by_class.size(); ++k) {
    d.resub.by_class[k].applied = report.by_class[k].applied;
    d.resub.by_class[k].gain = report.by_class[k].power_delta;
  }

  // Close the WAL with its end marker. Commits the end-of-run walk rolled
  // back stay recorded — a resume re-applies them and its own walk rolls
  // them back identically, so the final state still converges.
  recorder.record_end();
  d.degradation_events = ladder.transitions();
  d.checkpoint_frames = recorder.frames();
  d.resume_replayed = resume.replayed();
  d.checkpoint_disabled = recorder.degraded();
  if (ladder.mem_limit_hit()) d.mem_limit_hit = true;

  report.final_power = model.total_power();
  // The "after" sweep happens against exactly the state final_power was
  // read from, so the attribution sum reconciles bitwise here too.
  if (attr != nullptr) attr->end_run();
  report.final_area = netlist_->total_area();
  d.power_model.kind = power_model_name(model.kind());
  d.power_model.pgc_evaluations = selection_stats.pgc_evaluations;
  d.power_model.pgc_memo_hits = selection_stats.pgc_memo_hits;
  d.selection = {selection_stats.rounds, selection_stats.rescored,
                 selection_stats.reused};
  if (timed_model.has_value()) {
    const TimedPowerModel& tm = *timed_model;
    d.power_model.vector_pairs = tm.glitch_options().num_vector_pairs;
    d.power_model.timed_resims = tm.resim_count();
    d.power_model.cone_refreshes = tm.cone_refreshes();
    d.power_model.refresh_cone_gates = tm.refresh_stats().cone_gates;
    d.power_model.refresh_fallback_pairs = tm.refresh_stats().fallback_pairs;
    d.power_model.event_overflows = tm.event_overflows();
    d.power_model.glitch_share = tm.estimate().glitch_share();
    d.power_model.pgc_cone_gates = tm.replay_stats().cone_gates;
    d.power_model.pgc_fallback_pairs = tm.replay_stats().fallback_pairs;
  }
  report.final_delay = timing.circuit_delay();
  d.sta_incremental_visits = static_cast<long>(timing.nodes_visited()) +
                             d.delay_checks.overlay_visits;
  d.sta_full_equiv_visits = static_cast<long>(timing.full_equiv_visits()) +
                            d.delay_checks.full_equiv_visits;
  d.deltas_published =
      static_cast<long>(netlist_->deltas_published() - deltas_before);
  d.observer_notifications = static_cast<long>(
      netlist_->observer_notifications() - notifications_before);
  d.pin_slabs_allocated = static_cast<long>(netlist_->pin_slabs_allocated());
  d.pin_slabs_recycled = static_cast<long>(netlist_->pin_slabs_recycled());
  d.name_pool_bytes = static_cast<long>(netlist_->name_pool_bytes());
  d.peak_rss_bytes = static_cast<long>(peak_rss_bytes());
  if (trace != nullptr) d.trace_dropped = static_cast<long>(trace->dropped());
  report.cpu_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();

  if (metrics != nullptr) {
    publish_metrics(*metrics, report, tally, trace);
    report.metrics_json = metrics->to_json();
  }
  if (prog != nullptr)
    prog->run_end(report.final_power, report.substitutions_applied,
                  report.outer_iterations);
  return report;
}

}  // namespace powder
