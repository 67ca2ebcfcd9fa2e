#include "opt/commit_stage.hpp"

#include "bdd/netlist_bdd.hpp"
#include "power/attribution.hpp"
#include "trace/audit.hpp"
#include "trace/progress.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"

namespace powder {

namespace {

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

CommitStage::CommitStage(Netlist* netlist, const PowderOptions& options,
                         PowerEstimator& est, TimedPowerModel* timed,
                         Simulator& verify_sim, SessionResume& resume,
                         SessionRecorder& recorder, PowderReport& report,
                         LoopTally& tally)
    : netlist_(netlist),
      options_(options),
      est_(est),
      timed_(timed),
      model_(timed != nullptr ? static_cast<PowerModel&>(*timed)
                              : static_cast<PowerModel&>(est)),
      verify_sim_(verify_sim),
      resume_(resume),
      recorder_(recorder),
      report_(report),
      tally_(tally),
      po_guard_(verify_sim),
      journal_(netlist) {
  if (options.guard.final_equivalence_check) pristine_.emplace(*netlist);
  journal_.set_trace(options.trace.trace, options.trace.metrics);
}

void CommitStage::audit(const CandidateSub& c, const char* decision,
                        const ProofNote& note) {
  if (options_.trace.audit == nullptr) return;
  AuditRecord r;
  r.seq = audit_seq_++;
  r.iteration = iteration_;
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
  options_.trace.audit->write(r);
}

// One resync for every situation — commit, rollback, even a rollback that
// threw half-way: the published deltas describe the mutations that
// actually executed, so draining them brings every cache in line with
// whatever state the netlist is in.
void CommitStage::resync() {
  if (timed_ != nullptr) {
    // The base estimator first, so the span covers the timed model's cone
    // refresh alone.
    est_.refresh();
    const GlitchReplayStats before = timed_->refresh_stats();
    TraceSpan span(options_.trace.trace, "timed_refresh", "power");
    timed_->refresh();
    const GlitchReplayStats& after = timed_->refresh_stats();
    span.arg("cone_gates", after.cone_gates - before.cone_gates);
    span.arg("fallback_pairs", after.fallback_pairs - before.fallback_pairs);
  } else {
    model_.refresh();
  }
  po_guard_.note(verify_sim_.refresh());
}

bool CommitStage::commit(const CandidateSub& cand, int ordinal,
                         const ProofNote& note) {
  const double power_before = model_.total_power();
  const double area_before = netlist_->total_area();
  const bool replaying = resume_.matches(cand);
  AppliedSub applied;
  try {
    applied = journal_.apply(cand);
  } catch (const CheckError&) {
    // Stale or invalid at the last moment: the apply validated before
    // mutating, so the netlist is untouched — skip the candidate.
    if (replaying)
      throw Error::input(
          "resume diverged: a checkpointed substitution failed to "
          "re-apply (wrong input netlist or tampered log?)");
    ++report_.diagnostics.apply_failures;
    audit(cand, "apply_failed", note);
    return false;
  }
  resync();
  if (options_.check_invariants) netlist_->check_consistency();

  if (options_.guard.signature_check && !po_guard_.ok()) {
    if (replaying)
      throw Error::input(
          "resume diverged: the signature guard rejected a commit the "
          "checkpoint recorded as accepted");
    ++report_.diagnostics.guard_rollbacks;
    audit(cand, "guard_rollback", note);
    try {
      journal_.rollback_last();
      resync();
    } catch (const CheckError&) {
      // The deltas that did execute were published, so the same resync
      // still yields trustworthy caches. Stop committing and let the final
      // guard judge.
      resync();
      broken_ = true;
    }
    return false;
  }

  // Power and area totals are cached by the model and the netlist, so
  // these reads cost a re-sum at most.
  const double power_after = model_.total_power();
  const double power_delta = power_before - power_after;
  const double area_delta = netlist_->total_area() - area_before;
  ClassStats& stats = report_.by_class[static_cast<std::size_t>(cand.cls)];
  ++stats.applied;
  stats.power_delta += power_delta;
  stats.area_delta += area_delta;
  commit_log_.push_back(CommitRecord{cand.cls, power_delta, area_delta});
  if (options_.trace.attribution != nullptr)
    options_.trace.attribution->record_commit(static_cast<int>(cand.cls),
                                              power_delta);
  if (options_.trace.progress != nullptr)
    options_.trace.progress->commit(iteration_, subst_class_name(cand.cls),
                                    power_delta, power_after);
  ++tally_.applied;
  if (resume_.active()) {
    // Replay verification: while the WAL cursor runs, every commit must be
    // the next recorded one and reproduce its delta bit for bit. A WAL is
    // outside input, so a frame naming any window but the global loop is
    // rejected too.
    const WalCommit& rec = resume_.current();
    if (!replaying || rec.window != kGlobalWindow ||
        !same_applied(rec.applied, applied))
      throw Error::input(
          "resume diverged: a replayed commit no longer matches the "
          "checkpoint");
    resume_.advance();
  }
  // Durable commit: the WAL frame is appended (and fsync'd) only after the
  // signature guard accepted the commit, so a resume never replays a
  // rolled-back substitution. A kill inside the frame write leaves a torn
  // tail the reader drops — the commit then simply re-runs live on resume,
  // with the same deterministic verdict.
  recorder_.record_commit(iteration_, ordinal, cand, applied);
  audit(cand, "accepted", note);
  return true;
}

// The null-sink path is one branch; with a sink attached, checkpoint frames
// are published as they land and heartbeats are rate-limited inside the
// stream (the first tick always emits, so every run has >= 1 heartbeat).
void CommitStage::progress_tick() {
  ProgressStream* const prog = options_.trace.progress;
  if (prog == nullptr) return;
  if (recorder_.frames() > progress_frames_) {
    progress_frames_ = recorder_.frames();
    prog->checkpoint(progress_frames_);
  }
  if (!prog->heartbeat_due()) return;
  ProgressStream::Stats s;
  s.iteration = iteration_;
  s.max_iterations = options_.max_outer_iterations;
  s.power = model_.total_power();
  s.applied = tally_.applied;
  s.harvested = report_.candidates_harvested;
  s.proofs = report_.diagnostics.inline_proofs;
  prog->heartbeat(s);
}

bool CommitStage::state_good() {
  if (options_.guard.signature_check && !po_guard_.ok_full()) return false;
  return !pristine_.has_value() ||
         functionally_equivalent(*pristine_, *netlist_);
}

// With intact deltas the walk converges at the latest on the pristine
// input; only a corrupted journal can leave `guard_failed` set — reported,
// never silent.
void CommitStage::final_guard() {
  if (!options_.guard.signature_check && !pristine_.has_value()) return;
  if (options_.trace.progress != nullptr)
    options_.trace.progress->phase(iteration_, "final_guard");
  while (!state_good() && !journal_.empty()) {
    ++report_.diagnostics.final_check_rollbacks;
    try {
      journal_.rollback_last();
      resync();
    } catch (const CheckError&) {
      resync();
    }
    if (commit_log_.empty()) continue;
    const CommitRecord& rec = commit_log_.back();
    ClassStats& cls = report_.by_class[static_cast<std::size_t>(rec.cls)];
    --cls.applied;
    cls.power_delta -= rec.power_delta;
    cls.area_delta -= rec.area_delta;
    commit_log_.pop_back();
    // The attribution ledger pops in lockstep (same entry, same double),
    // keeping its per-class gains bitwise equal to by_class.
    if (options_.trace.attribution != nullptr)
      options_.trace.attribution->record_rollback();
  }
  report_.diagnostics.guard_failed = !state_good();
}

}  // namespace powder
