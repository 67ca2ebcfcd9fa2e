#include "opt/powder.hpp"

#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>

#include "bdd/netlist_bdd.hpp"
#include "opt/journal.hpp"
#include "opt/power_gain.hpp"
#include "opt/selection.hpp"
#include "power/attribution.hpp"
#include "power/power.hpp"
#include "session/checkpoint.hpp"
#include "session/degradation.hpp"
#include "trace/audit.hpp"
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

const char* rep_kind_name(ReplacementFunction::Kind k) {
  switch (k) {
    case ReplacementFunction::Kind::kConstant: return "constant";
    case ReplacementFunction::Kind::kSignal: return "signal";
    case ReplacementFunction::Kind::kTwoInput: return "two_input";
    case ReplacementFunction::Kind::kCell: return "cell";
  }
  return "?";
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

bool PowderOptimizer::violates_delay(const CandidateSub& sub, double limit,
                                     IncrementalTiming& timing,
                                     PowderReport::Diagnostics& diag) const {
  if (!std::isfinite(limit)) return false;
  // Overlay the planned edit on the live arrival times: only the gates the
  // edit touches and their forward cone are re-evaluated, bit-identically
  // to a full analyze_timing of the edited netlist.
  (void)timing.circuit_delay();  // brings the live arrival times up to date
  std::uint64_t visits = 0;
  const double delay =
      timing.trial_delay(plan_substitution(*netlist_, sub), &visits);
  ++diag.delay_checks.checks;
  diag.delay_checks.overlay_visits += static_cast<long>(visits);
  diag.delay_checks.full_equiv_visits +=
      static_cast<long>(timing.live_gates());
  return delay > limit + 1e-9;
}

PowderReport PowderOptimizer::run() {
  const auto t_start = std::chrono::steady_clock::now();
  PowderReport report;

  TraceSession* const trace = options_.trace.trace;
  AuditLog* const audit = options_.trace.audit;
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

  // The registry is the primary store for the run's decision counters; with
  // no user-supplied sink they land in a run-local registry instead, so the
  // loop below has exactly one accounting path. The Diagnostics struct is
  // filled from a delta snapshot at end of run (the compat shim that keeps
  // --report-json keys stable), and deltas are against the counter values at
  // entry so a registry shared across several runs stays monotonic without
  // polluting any single run's report.
  MetricsRegistry local_registry;
  MetricsRegistry* const reg = options_.trace.metrics != nullptr
                                   ? options_.trace.metrics
                                   : &local_registry;
  struct Meter {
    Counter* c;
    long long base;
    long long delta() const { return c->value() - base; }
  };
  auto meter = [&](const char* name, const char* help) {
    Counter* c = reg->counter(name, help);
    return Meter{c, c->value()};
  };
  const Meter m_iterations =
      meter("powder_outer_iterations_total", "Outer harvest iterations run");
  const Meter m_harvested = meter("powder_candidates_harvested_total",
                                  "Candidates returned by the harvests");
  const Meter m_stale = meter("powder_rejected_stale_total",
                              "Candidates dropped as structurally stale");
  const Meter m_delay = meter("powder_rejected_delay_total",
                              "Candidates rejected by the delay check");
  const Meter m_presim = meter(
      "powder_rejected_presim_total",
      "Candidates refuted by the independent-pattern pre-simulation");
  const Meter m_proof_rej = meter("powder_rejected_proof_total",
                                  "Candidates refuted by the proof engines");
  const Meter m_applied = meter("powder_substitutions_applied_total",
                                "Substitutions committed to the netlist");
  const Meter m_apply_fail = meter("powder_apply_failures_total",
                                   "Applies rejected by the validity check");
  const Meter m_guard_rb = meter("powder_guard_rollbacks_total",
                                 "Commits undone by the signature guard");
  const Meter m_final_rb = meter("powder_final_rollbacks_total",
                                 "Commits undone by the end-of-run check");
  const Meter m_inline = meter("powder_inline_proofs_total",
                               "Proofs run inline on the commit thread");
  const Meter m_degraded =
      meter("powder_rejected_degraded_total",
            "Candidates rejected unproven by the degradation ladder");
  const Meter m_truncated =
      meter("powder_harvest_truncated_total",
            "Candidates dropped because a harvest hit max_candidates");
  const Meter m_sites =
      meter("powder_harvest_sites_total", "Sites the harvests bounded");
  const Meter m_sites_matched = meter(
      "powder_harvest_sites_matched_total",
      "Sites whose bound reached the k-th best gain and were matched");
  const Meter m_pairs = meter("powder_three_sub_pairs_total",
                              "(b, c) pairs the OS3/IS3 pair filter tested");
  const Meter m_pairs_passed =
      meter("powder_three_sub_pairs_passed_total",
            "OS3/IS3 pairs that left some 2-input cell standing");
  const Meter m_pgc_evals =
      meter("powder_pgc_evaluations_total",
            "PG_C values computed by the selection rounds");
  const Meter m_pgc_memo =
      meter("powder_pgc_memo_hits_total",
            "Shortlisted PG_C values reused at an unchanged netlist epoch");
  const Meter m_sel_rounds = meter("powder_selection_rounds_total",
                                   "Selection rounds run");
  const Meter m_sel_rescored =
      meter("powder_selection_rescored_total",
            "Candidates whose PG_A/PG_B a selection round computed");
  const Meter m_sel_reused =
      meter("powder_selection_reused_total",
            "Candidates kept across a commit: no gate they read changed");
  const Meter m_pgc_cone =
      meter("powder_pgc_cone_gates_total",
            "Gates in the affected sets the timed PG_C replays simulated");
  const Meter m_pgc_fallback =
      meter("powder_pgc_fallback_pairs_total",
            "Vector pairs timed PG_C re-simulated in full on the copy");
  // Per-class harvest/proof accounting behind diagnostics.resub. Names are
  // derived from the class table so the registry export and the report's
  // by_class array can never disagree on the class set.
  std::array<Meter, kNumResubClasses> m_cls_harvested{};
  std::array<Meter, kNumResubClasses> m_cls_proved{};
  for (int i = 0; i < kNumResubClasses; ++i) {
    const std::string cls = resub_class_name(static_cast<ResubClass>(i));
    m_cls_harvested[static_cast<std::size_t>(i)] =
        meter(("powder_resub_harvested_" + cls + "_total").c_str(),
              "Candidates harvested for one resubstitution class");
    m_cls_proved[static_cast<std::size_t>(i)] =
        meter(("powder_resub_proved_" + cls + "_total").c_str(),
              "Candidates proved permissible for one resubstitution class");
  }

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
  SessionRecorder recorder(reg, audit);
  if (!options_.session.checkpoint_out.empty()) {
    recorder.open(options_.session.checkpoint_out, *netlist_, options_);
    recorder.set_after_frame_hook(options_.session.after_checkpoint_frame);
  }
  DegradationLadder ladder(options_.session, options_.budget.deadline_seconds,
                           options_.proof.engine, reg, audit);
  ladder.set_progress(prog);

  // Shared pool for the data-parallel kernels (word-sharded simulation, the
  // three-pass candidate harvest). Proofs run inline on this thread, the
  // single commit thread.
  ThreadPool pool(threads - 1);

  MetricsRegistry* const component_metrics = options_.trace.metrics;
  // Sequential circuits: latch outputs are pseudo-PIs whose stimulus
  // probability comes from the reset-state fixed point, spliced in between
  // the user's primary-input probabilities. Combinational netlists pass
  // options_.pi_probs through untouched (bit-identical legacy path).
  const std::vector<double> sim_probs =
      expand_pi_probs(*netlist_, options_.pi_probs);
  Simulator sim(*netlist_, options_.num_patterns, sim_probs, options_.seed);
  sim.set_thread_pool(&pool);
  sim.set_trace(trace, component_metrics);
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
  // simulator backs the post-commit signature guard below.
  Simulator verify_sim(*netlist_, options_.num_patterns, sim_probs,
                       options_.seed ^ 0x5EC0DD5EEDull);
  verify_sim.set_thread_pool(&pool);
  verify_sim.set_trace(trace, component_metrics);
  // Incremental STA over the main netlist: stays coherent through the delta
  // bus, and violates_delay overlays each candidate edit on its arrival
  // times.
  IncrementalTiming timing(*netlist_);
  timing.set_trace(trace, component_metrics);

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

  // Pristine copy for the end-of-run miter (the strong guard level).
  std::optional<Netlist> pristine;
  if (options_.guard.final_equivalence_check) pristine.emplace(*netlist_);

  // Primary-output signature snapshot on the independent pattern set: the
  // PI stimulus is frozen, so a permissible substitution can never change
  // any PO word. Any mismatch after a commit is a proven miscompare. After
  // a commit only the POs whose words the refresh moved can differ; the
  // end-of-run guard compares them all.
  PoSignatureGuard po_guard(verify_sim);

  AtpgOptions atpg_options = options_.proof.atpg;
  atpg_options.budget = &budget;
  atpg_options.trace = trace;
  atpg_options.metrics = component_metrics;
  SatCheckerOptions sat_options = options_.proof.sat;
  sat_options.budget = &budget;
  sat_options.trace = trace;
  sat_options.metrics = component_metrics;
  AtpgChecker atpg(*netlist_, atpg_options);
  SatChecker sat(*netlist_, sat_options);

  SubstJournal journal(netlist_);
  journal.set_trace(trace, component_metrics);
  // Per-commit accounting, aligned with the journal, so an end-of-run
  // rollback can also undo the report's class statistics.
  struct CommitRecord {
    SubstClass cls;
    double power_delta;
    double area_delta;
  };
  std::vector<CommitRecord> commit_log;

  // One resync for every situation — commit, rollback, even a rollback
  // that threw half-way: the published deltas describe the mutations that
  // actually executed, so draining them brings every cache in line with
  // whatever state the netlist is in.
  auto resync = [&]() {
    if (timed_model.has_value()) {
      // The base estimator first, so the span covers the timed model's
      // cone refresh alone.
      est.refresh();
      const GlitchReplayStats before = timed_model->refresh_stats();
      TraceSpan span(trace, "timed_refresh", "power");
      timed_model->refresh();
      const GlitchReplayStats& after = timed_model->refresh_stats();
      span.arg("cone_gates", after.cone_gates - before.cone_gates);
      span.arg("fallback_pairs", after.fallback_pairs - before.fallback_pairs);
    } else {
      model.refresh();
    }
    po_guard.note(verify_sim.refresh());
  };

  // The ladder replaces the old binary expired/exhausted stop: the same
  // sensors now step down through kPodemOnly / kSignatureOnly before
  // reaching kStop, and every step is published to the audit log/metrics.
  auto stop_requested = [&]() {
    if (ladder.evaluate(budget) != DegradationLevel::kStop) return false;
    switch (ladder.stop_reason()) {
      case StopReason::kDeadline:
        report.diagnostics.deadline_hit = true;
        break;
      case StopReason::kProofBudget:
        report.diagnostics.budget_exhausted = true;
        break;
      case StopReason::kMemLimit:
        report.diagnostics.mem_limit_hit = true;
        break;
      case StopReason::kNone:
        break;
    }
    return true;
  };

  SelectionStats selection_stats;

  // Persistent across iterations: the signature index refreshes only the
  // epoch-dirty gates on re-harvest. Reseeding per iteration keeps the RNG
  // stream identical to a freshly constructed finder.
  CandidateFinder finder(*netlist_, model, options_.candidates, options_.seed,
                         &pool);
  finder.set_trace(trace);

  // Decision audit: one NDJSON record per candidate the loop below settles.
  // A ProofNote carries what the proof stage knew when a candidate was
  // settled.
  long long audit_seq = 0;
  int audit_iteration = 0;
  struct ProofNote {
    bool pg_c_known = false;
    const char* engine = nullptr;
    const char* verdict = nullptr;
    double us = -1.0;
  };
  auto audit_decision = [&](const CandidateSub& c, const char* decision,
                            const ProofNote& note = {}) {
    if (audit == nullptr) return;
    AuditRecord r;
    r.seq = audit_seq++;
    r.iteration = audit_iteration;
    r.epoch = netlist_->epoch();
    r.cls = subst_class_name(c.cls);
    r.target = static_cast<long long>(c.target);
    r.target_name = netlist_->gate_name(c.target);
    if (c.branch.has_value()) {
      r.branch_sink = static_cast<long long>(c.branch->gate);
      r.branch_pin = c.branch->pin;
    }
    r.rep_kind = rep_kind_name(c.rep.kind);
    if (c.rep.kind == ReplacementFunction::Kind::kCell) {
      r.rep_divisors.reserve(c.rep.divisors.size());
      for (const GateId d : c.rep.divisors)
        r.rep_divisors.push_back(static_cast<long long>(d));
    } else {
      if (c.rep.kind != ReplacementFunction::Kind::kConstant)
        r.rep_b = static_cast<long long>(c.rep.b);
      if (c.rep.kind == ReplacementFunction::Kind::kTwoInput)
        r.rep_c = static_cast<long long>(c.rep.c);
    }
    r.pg_a = c.pg_a;
    r.pg_b = c.pg_b;
    r.pg_c = c.pg_c;
    r.pg_c_known = note.pg_c_known;
    r.proof_engine = note.engine;
    r.proof_verdict = note.verdict;
    r.proof_us = note.us;
    r.decision = decision;
    audit->write(r);
  };

  // Progress tick: called at iteration boundaries and after commits. The
  // null-sink path is one branch; with a sink attached, checkpoint frames
  // are published as they land and heartbeats are rate-limited inside the
  // stream (first tick always emits, so every run has >= 1 heartbeat).
  long long prog_ckpt_frames = 0;
  auto progress_tick = [&]() {
    if (prog == nullptr) return;
    if (recorder.frames() > prog_ckpt_frames) {
      prog_ckpt_frames = recorder.frames();
      prog->checkpoint(prog_ckpt_frames);
    }
    if (!prog->heartbeat_due()) return;
    ProgressStream::Stats s;
    s.iteration = audit_iteration;
    s.max_iterations = options_.max_outer_iterations;
    s.power = model.total_power();
    s.applied = m_applied.delta();
    s.harvested = m_harvested.delta();
    s.proofs = m_inline.delta();
    prog->heartbeat(s);
  };
  progress_tick();

  bool progress = true;
  bool stopped = false;

  // ---- delay check (§3.4) ------------------------------------------------
  // Against the live arrival times; a violation is counted and audited here.
  auto delay_ok = [&](const CandidateSub& cand, const ProofNote& note) {
    TraceSpan delay_span(trace, "delay_check", "sta");
    const bool violated = violates_delay(cand, report.delay_limit, timing,
                                         report.diagnostics);
    delay_span.arg("violated", violated ? 1 : 0);
    if (!violated) return true;
    m_delay.c->inc();
    audit_decision(cand, "rejected_delay", note);
    return false;
  };

  // ---- the commit step: perform_substitution + power_estimate_update -----
  // The one place a proved candidate reaches the netlist: journal apply,
  // resync, the PO-signature guard (rolling back on a mismatch), accounting,
  // resume verification, the WAL frame and the "accepted" audit record.
  // Returns false when the candidate was dropped; a rollback that fails
  // (possible only with a corrupted journal) also sets `stopped`.
  auto commit = [&](const CandidateSub& cand, int ordinal,
                    const ProofNote& note) {
    const double power_before = model.total_power();
    const double area_before = netlist_->total_area();
    const bool replaying = resume.matches(cand);
    AppliedSub applied;
    try {
      applied = journal.apply(cand);
    } catch (const CheckError&) {
      // Stale or invalid at the last moment: the apply validated before
      // mutating, so the netlist is untouched — skip the candidate.
      if (replaying)
        throw Error::input(
            "resume diverged: a checkpointed substitution failed to "
            "re-apply (wrong input netlist or tampered log?)");
      m_apply_fail.c->inc();
      audit_decision(cand, "apply_failed", note);
      return false;
    }
    resync();
    if (options_.check_invariants) netlist_->check_consistency();

    if (options_.guard.signature_check && !po_guard.ok()) {
      if (replaying)
        throw Error::input(
            "resume diverged: the signature guard rejected a commit the "
            "checkpoint recorded as accepted");
      m_guard_rb.c->inc();
      audit_decision(cand, "guard_rollback", note);
      try {
        journal.rollback_last();
        resync();
      } catch (const CheckError&) {
        // The deltas that did execute were published, so the same resync
        // still yields trustworthy caches. Stop committing and let the
        // final guard judge.
        resync();
        stopped = true;
      }
      return false;
    }

    // Accounting: class statistics, the rollback-aligned commit log,
    // attribution, progress. Power and area totals are cached by the model
    // and the netlist, so these reads cost a re-sum at most.
    const double power_after = model.total_power();
    const double power_delta = power_before - power_after;
    const double area_delta = netlist_->total_area() - area_before;
    ClassStats& stats = report.by_class[static_cast<std::size_t>(cand.cls)];
    ++stats.applied;
    stats.power_delta += power_delta;
    stats.area_delta += area_delta;
    commit_log.push_back(CommitRecord{cand.cls, power_delta, area_delta});
    if (attr != nullptr)
      attr->record_commit(static_cast<int>(cand.cls), power_delta);
    if (prog != nullptr)
      prog->commit(audit_iteration, subst_class_name(cand.cls), power_delta,
                   power_after);
    m_applied.c->inc();
    if (resume.active()) {
      // Replay verification: while the WAL cursor runs, every commit must
      // be the next recorded one and reproduce its delta bit for bit. A WAL
      // is outside input, so a frame naming any window but the global loop
      // is rejected too.
      const WalCommit& rec = resume.current();
      if (!replaying || rec.window != kGlobalWindow ||
          !same_applied(rec.applied, applied))
        throw Error::input(
            "resume diverged: a replayed commit no longer matches the "
            "checkpoint");
      resume.advance();
    }
    // Durable commit: the WAL frame is appended (and fsync'd) only after
    // the signature guard accepted the commit, so a resume never replays
    // a rolled-back substitution. A kill inside the frame write leaves a
    // torn tail the reader drops — the commit then simply re-runs live
    // on resume, with the same deterministic verdict.
    recorder.record_commit(audit_iteration, ordinal, cand, applied);
    audit_decision(cand, "accepted", note);
    progress = true;
    return true;
  };

  setup_span.reset();
  for (int outer = 0;
       progress && !stopped && outer < options_.max_outer_iterations;
       ++outer) {
    m_iterations.c->inc();
    audit_iteration = outer + 1;
    TraceSpan iter_span(trace, "iteration", "powder");
    iter_span.arg("outer", outer + 1);
    progress = false;
    if (stop_requested()) break;
    progress_tick();

    finder.reseed(options_.seed + 17 * static_cast<std::uint64_t>(outer));
    std::vector<CandidateSub> cands;
    {
      TraceSpan harvest_span(trace, "harvest", "harvest");
      if (prog != nullptr) prog->phase(audit_iteration, "harvest");
      cands = finder.find();
      harvest_span.arg("candidates", static_cast<long long>(cands.size()));
      harvest_span.arg("sites_matched",
                       static_cast<long long>(finder.last_sites_matched()));
    }
    if (prog != nullptr)
      prog->phase(audit_iteration, "proof",
                  static_cast<long long>(cands.size()), "candidates");
    SelectionMemo memo(*netlist_, model);
    m_harvested.c->inc(static_cast<long long>(cands.size()));
    for (const CandidateSub& c : cands)
      m_cls_harvested[static_cast<std::size_t>(c.cls)].c->inc();
    m_truncated.c->inc(static_cast<long long>(finder.last_truncated()));
    m_sites.c->inc(static_cast<long long>(finder.last_sites()));
    m_sites_matched.c->inc(
        static_cast<long long>(finder.last_sites_matched()));
    m_pairs.c->inc(
        static_cast<long long>(finder.last_three_sub_pairs().pairs));
    m_pairs_passed.c->inc(
        static_cast<long long>(finder.last_three_sub_pairs().passed));
    if (outer >= 1) {
      report.diagnostics.candidate_gates_refreshed +=
          static_cast<long>(finder.last_refresh_count());
      report.diagnostics.candidate_index_size +=
          static_cast<long>(finder.index_size());
    }

    int performed = 0;
    // Picks leave tombstones in `cands` until a round at a new epoch
    // compacts it; the loop ends when no live candidate is left.
    while (performed < options_.repeat && memo.live(cands) > 0) {
      if (stop_requested()) {
        stopped = true;
        break;
      }
      // ---- select_power_red_subst --------------------------------------
      // Re-check the validity of the candidates whose memo predates the
      // netlist's epoch, re-score PG_A+PG_B where a gate they read changed,
      // preselect the best, then re-estimate PG_C for the shortlist only.
      const std::size_t best = select_power_red_subst(
          memo, &cands, options_,
          [&](const CandidateSub& c) {
            if (substitution_still_valid(*netlist_, c)) return true;
            m_stale.c->inc();
            audit_decision(c, "rejected_stale");
            return false;
          },
          &selection_stats);
      if (best == cands.size()) break;  // nothing left that helps

      CandidateSub chosen = take_pick(memo, &cands, best);
      ProofNote note{options_.objective != Objective::kArea};

      if (!delay_ok(chosen, note)) continue;

      // ---- check_candidate: permissibility proof ------------------------
      // Fault injection can force an unproven candidate through this
      // pipeline; the post-commit guard in `commit` is what must catch it.
      bool forced = false;
      if (inject_fault(FaultInjector::Site::kStaleCandidate))
        forced = corrupt_candidate(*netlist_, verify_sim, &chosen);
      if (inject_fault(FaultInjector::Site::kAcceptProof)) forced = true;
      if (!forced) {
        // Cheap pre-proof on the independent pattern set.
        if (refuted_by_simulation(verify_sim, chosen)) {
          m_presim.c->inc();
          audit_decision(chosen, "rejected_presim", note);
          continue;
        }
        AtpgResult proof;
        if (resume.active()) {
          // WAL fast-forward: the oracle replaces the proof engines. A
          // candidate matching the next recorded commit was proved
          // permissible by the original run; any other candidate that
          // reaches this stage was rejected by it. Every cheaper stage
          // (harvest, selection, staleness, delay, presim) is recomputed
          // live, so once the cursor drains the run continues seamlessly —
          // and bit-identically — on the real engines.
          proof = resume.matches(chosen) ? AtpgResult::kUntestable
                                         : AtpgResult::kTestFound;
          note.engine = "replay";
        } else if (ladder.level() == DegradationLevel::kSignatureOnly) {
          // Signature-reject-only rung: proof effort is no longer
          // affordable, and an unproven candidate is never accepted — so
          // everything that survives presim is rejected here while the run
          // drains toward a clean stop with its committed gains intact.
          m_degraded.c->inc();
          note.engine = "none";
          note.verdict = "skipped";
          audit_decision(chosen, "rejected_degraded", note);
          continue;
        } else {
          const ProofEngine engine =
              ladder.level() == DegradationLevel::kPodemOnly
                  ? ProofEngine::kPodem
                  : options_.proof.engine;
          const bool timed = options_.trace.any();
          const std::uint64_t t0 = timed ? trace_now_ns() : 0;
          proof = prove_replacement(atpg, sat, engine, chosen.site(),
                                    chosen.rep);
          if (timed)
            note.us = static_cast<double>(trace_now_ns() - t0) / 1000.0;
          note.engine = engine_name(engine);
          m_inline.c->inc();
        }
        note.verdict = verdict_name(proof);
        if (proof != AtpgResult::kUntestable) {
          m_proof_rej.c->inc();
          audit_decision(chosen, "rejected_proof", note);
          continue;
        }
        m_cls_proved[static_cast<std::size_t>(chosen.cls)].c->inc();
      }

      if (!commit(chosen, performed, note)) {
        if (stopped) break;
        continue;
      }
      ++performed;
      progress_tick();
    }
    if (prog != nullptr)
      prog->phase(audit_iteration, "commit", performed, "applied");
    iter_span.arg("applied", performed);
  }

  // Registry -> report snapshot (the Diagnostics compat shim). Must happen
  // before the end-of-run guard walk, which adjusts the struct totals
  // directly — the registry counters stay monotonic.
  report.outer_iterations = static_cast<int>(m_iterations.delta());
  report.candidates_harvested = static_cast<int>(m_harvested.delta());
  report.rejected_stale = static_cast<int>(m_stale.delta());
  report.rejected_by_delay = static_cast<int>(m_delay.delta());
  report.rejected_by_atpg = static_cast<int>(
      m_presim.delta() + m_proof_rej.delta() + m_degraded.delta());
  report.substitutions_applied = static_cast<int>(m_applied.delta());
  report.diagnostics.apply_failures = static_cast<int>(m_apply_fail.delta());
  report.diagnostics.guard_rollbacks = static_cast<int>(m_guard_rb.delta());
  report.diagnostics.inline_proofs = m_inline.delta();

  // ---- end-of-run guard: never emit a miscompiled netlist ---------------
  // Walk the journal back until the state passes every enabled check. With
  // intact deltas this converges at the latest on the pristine input; only
  // a corrupted journal can leave `guard_failed` set — reported, never
  // silent.
  if (options_.guard.signature_check || pristine.has_value()) {
    if (prog != nullptr) prog->phase(audit_iteration, "final_guard");
    auto state_good = [&]() {
      if (options_.guard.signature_check && !po_guard.ok_full()) return false;
      if (pristine.has_value() &&
          !functionally_equivalent(*pristine, *netlist_))
        return false;
      return true;
    };
    while (!state_good() && !journal.empty()) {
      ++report.diagnostics.final_check_rollbacks;
      m_final_rb.c->inc();
      try {
        journal.rollback_last();
        resync();
      } catch (const CheckError&) {
        resync();
      }
      if (!commit_log.empty()) {
        const CommitRecord& rec = commit_log.back();
        ClassStats& cls = report.by_class[static_cast<std::size_t>(rec.cls)];
        --cls.applied;
        cls.power_delta -= rec.power_delta;
        cls.area_delta -= rec.area_delta;
        --report.substitutions_applied;
        commit_log.pop_back();
        // The attribution ledger pops in lockstep (same entry, same
        // double), keeping its per-class gains bitwise equal to by_class.
        if (attr != nullptr) attr->record_rollback();
      }
    }
    report.diagnostics.guard_failed = !state_good();
  }

  // Resub diagnostics snapshot — after the guard walk, so the applied/gain
  // columns reflect the commits that actually survived into the output.
  for (int i = 0; i < kNumResubClasses; ++i) {
    const auto k = static_cast<std::size_t>(i);
    auto& pc = report.diagnostics.resub.by_class[k];
    pc.harvested = static_cast<long>(m_cls_harvested[k].delta());
    pc.proved = static_cast<long>(m_cls_proved[k].delta());
    pc.applied = report.by_class[k].applied;
    pc.gain = report.by_class[k].power_delta;
  }
  report.diagnostics.resub.harvest_truncated =
      static_cast<long>(m_truncated.delta());
  report.diagnostics.resub.harvest_sites = static_cast<long>(m_sites.delta());
  report.diagnostics.resub.harvest_sites_matched =
      static_cast<long>(m_sites_matched.delta());
  report.diagnostics.resub.three_sub_pairs = static_cast<long>(m_pairs.delta());
  report.diagnostics.resub.three_sub_pairs_passed =
      static_cast<long>(m_pairs_passed.delta());

  // Close the WAL with its end marker. Commits the end-of-run walk rolled
  // back stay recorded — a resume re-applies them and its own walk rolls
  // them back identically, so the final state still converges.
  recorder.record_end();
  report.diagnostics.degradation_events = ladder.transitions();
  report.diagnostics.checkpoint_frames = recorder.frames();
  report.diagnostics.resume_replayed = resume.replayed();
  report.diagnostics.checkpoint_disabled = recorder.degraded();
  if (ladder.mem_limit_hit()) report.diagnostics.mem_limit_hit = true;

  atpg_stats_ = atpg.stats();
  report.final_power = model.total_power();
  // The "after" sweep happens against exactly the state final_power was
  // read from, so the attribution sum reconciles bitwise here too.
  if (attr != nullptr) attr->end_run();
  report.final_area = netlist_->total_area();
  report.diagnostics.power_model.kind = power_model_name(model.kind());
  m_pgc_evals.c->inc(selection_stats.pgc_evaluations);
  m_pgc_memo.c->inc(selection_stats.pgc_memo_hits);
  m_sel_rounds.c->inc(selection_stats.rounds);
  m_sel_rescored.c->inc(selection_stats.rescored);
  m_sel_reused.c->inc(selection_stats.reused);
  report.diagnostics.selection.rounds = m_sel_rounds.delta();
  report.diagnostics.selection.rescored = m_sel_rescored.delta();
  report.diagnostics.selection.reused = m_sel_reused.delta();
  if (timed_model.has_value()) {
    m_pgc_cone.c->inc(timed_model->replay_stats().cone_gates);
    m_pgc_fallback.c->inc(timed_model->replay_stats().fallback_pairs);
    report.diagnostics.power_model.vector_pairs =
        timed_model->glitch_options().num_vector_pairs;
    report.diagnostics.power_model.timed_resims = timed_model->resim_count();
    report.diagnostics.power_model.cone_refreshes =
        timed_model->cone_refreshes();
    report.diagnostics.power_model.refresh_cone_gates =
        timed_model->refresh_stats().cone_gates;
    report.diagnostics.power_model.refresh_fallback_pairs =
        timed_model->refresh_stats().fallback_pairs;
    report.diagnostics.power_model.event_overflows =
        timed_model->event_overflows();
    report.diagnostics.power_model.glitch_share =
        timed_model->estimate().glitch_share();
  }
  report.diagnostics.power_model.pgc_evaluations = m_pgc_evals.delta();
  report.diagnostics.power_model.pgc_memo_hits = m_pgc_memo.delta();
  report.diagnostics.power_model.pgc_cone_gates = m_pgc_cone.delta();
  report.diagnostics.power_model.pgc_fallback_pairs = m_pgc_fallback.delta();
  report.final_delay = timing.circuit_delay();
  report.diagnostics.sta_incremental_visits =
      static_cast<long>(timing.nodes_visited()) +
      report.diagnostics.delay_checks.overlay_visits;
  report.diagnostics.sta_full_equiv_visits =
      static_cast<long>(timing.full_equiv_visits()) +
      report.diagnostics.delay_checks.full_equiv_visits;
  report.diagnostics.deltas_published = static_cast<long>(
      netlist_->deltas_published() - deltas_before);
  report.diagnostics.observer_notifications = static_cast<long>(
      netlist_->observer_notifications() - notifications_before);
  report.diagnostics.pin_slabs_allocated =
      static_cast<long>(netlist_->pin_slabs_allocated());
  report.diagnostics.pin_slabs_recycled =
      static_cast<long>(netlist_->pin_slabs_recycled());
  report.diagnostics.name_pool_bytes =
      static_cast<long>(netlist_->name_pool_bytes());
  report.diagnostics.peak_rss_bytes = static_cast<long>(peak_rss_bytes());
  if (trace != nullptr)
    report.diagnostics.trace_dropped = static_cast<long>(trace->dropped());
  report.cpu_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();

  // Publish the end-computed diagnostics into the registry too, so a
  // metrics export stands on its own without the report JSON next to it.
  if (options_.trace.metrics != nullptr) {
    MetricsRegistry& r = *options_.trace.metrics;
    auto pub = [&](const char* name, const char* help, long long v) {
      r.counter(name, help)->inc(v);
    };
    pub("powder_deltas_published_total",
        "Netlist deltas published during the run",
        report.diagnostics.deltas_published);
    pub("powder_observer_notifications_total",
        "Delta deliveries to netlist observers",
        report.diagnostics.observer_notifications);
    pub("powder_sta_incremental_visits_total",
        "Gates the incremental STA re-evaluated",
        report.diagnostics.sta_incremental_visits);
    pub("powder_sta_full_equiv_visits_total",
        "Gates a full STA would have re-evaluated",
        report.diagnostics.sta_full_equiv_visits);
    r.gauge("powder_power_initial", "Estimated power before optimization")
        ->set(report.initial_power);
    r.gauge("powder_power_final", "Estimated power after optimization")
        ->set(report.final_power);
    r.gauge("powder_area_final", "Total cell area after optimization")
        ->set(report.final_area);
    r.gauge("powder_delay_final", "Circuit delay after optimization")
        ->set(report.final_delay);
    r.gauge("powder_threads_used", "Resolved thread count of the run")
        ->set(static_cast<double>(threads));
    if (trace != nullptr) {
      r.gauge("powder_trace_events_recorded",
              "Events accepted into the trace rings so far")
          ->set(static_cast<double>(trace->events_recorded()));
      r.gauge("powder_trace_events_dropped",
              "Events dropped on full trace rings so far")
          ->set(static_cast<double>(trace->dropped()));
    }
    report.metrics_json = r.to_json();
  }
  if (prog != nullptr)
    prog->run_end(report.final_power, report.substitutions_applied,
                  report.outer_iterations);
  return report;
}

}  // namespace powder
