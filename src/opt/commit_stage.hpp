#pragma once
// The commit step of the greedy loop (DESIGN.md §5b): Figure 5's
// perform_substitution + power_estimate_update. CommitStage is the one
// place a proved candidate reaches the netlist and the one place a commit
// is undone. It owns the journal and the rollback-aligned commit log, so
// the journal, the log, the report's class statistics and the attribution
// ledger move in lockstep inside this class only. It also writes the
// decision audit, the loop's rejections included, in one sequence.
// Internal to src/opt: PowderOptimizer::run() is its one user.

#include <optional>
#include <vector>

#include "opt/journal.hpp"
#include "opt/powder.hpp"
#include "power/power.hpp"
#include "session/checkpoint.hpp"

namespace powder {

/// What the proof step knew when a candidate was settled; the audit
/// record carries it.
struct ProofNote {
  bool pg_c_known = false;
  const char* engine = nullptr;
  const char* verdict = nullptr;
  double us = -1.0;  ///< proof wall time; < 0 when not measured
};

/// The loop's counts that the report keeps only as a sum or as a net
/// value. Plain integers: proofs run inline on the single commit thread.
struct LoopTally {
  long applied = 0;  ///< commits, including those rolled back at the end
  long rejected_presim = 0;
  long rejected_proof = 0;
  long rejected_degraded = 0;
};

class CommitStage {
 public:
  /// Every argument is borrowed; `timed` is null under the zero-delay
  /// model. Outcomes are booked into `report` and `tally`.
  CommitStage(Netlist* netlist, const PowderOptions& options,
              PowerEstimator& est, TimedPowerModel* timed,
              Simulator& verify_sim, SessionResume& resume,
              SessionRecorder& recorder, PowderReport& report,
              LoopTally& tally);

  /// The outer iteration (1-based) the loop is in; audit records,
  /// progress events and WAL frames carry it.
  void set_iteration(int iteration) { iteration_ = iteration; }

  /// Appends one decision audit record (a single branch without a log).
  void audit(const CandidateSub& c, const char* decision,
             const ProofNote& note = {});

  /// Commits a proved candidate: journal apply, resync, the PO-signature
  /// guard (rolling back on a mismatch), class statistics, attribution and
  /// progress events, resume verification, the WAL frame and the
  /// "accepted" record. Returns false when the candidate was dropped;
  /// throws Error(kInput) when a resumed run diverges from its log.
  bool commit(const CandidateSub& cand, int ordinal, const ProofNote& note);

  /// True once a rollback failed, which only a corrupted journal causes:
  /// the loop must stop committing and let the end-of-run guard judge.
  bool broken() const { return broken_; }

  /// Publishes new checkpoint frames and, when one is due, a heartbeat.
  void progress_tick();

  /// End-of-run guard: never emit a miscompiled netlist. Walks the journal
  /// back, with the class statistics and attribution, until the state
  /// passes every enabled check.
  void final_guard();

  /// Commits that survive into the output.
  int kept() const { return static_cast<int>(commit_log_.size()); }

 private:
  struct CommitRecord {
    ResubClass cls;
    double power_delta;
    double area_delta;
  };

  void resync();
  bool state_good();

  Netlist* netlist_;
  const PowderOptions& options_;
  PowerEstimator& est_;
  TimedPowerModel* timed_;
  PowerModel& model_;
  Simulator& verify_sim_;
  SessionResume& resume_;
  SessionRecorder& recorder_;
  PowderReport& report_;
  LoopTally& tally_;

  /// The pristine input for the end-of-run miter (the strong guard level).
  std::optional<Netlist> pristine_;
  /// Primary-output signatures on the independent pattern set: the PI
  /// stimulus is frozen, so a permissible substitution never changes a PO
  /// word. After a commit only the POs the refresh moved can differ; the
  /// end-of-run guard compares them all.
  PoSignatureGuard po_guard_;
  SubstJournal journal_;
  std::vector<CommitRecord> commit_log_;  ///< aligned with journal_
  int iteration_ = 0;
  long long audit_seq_ = 0;
  long long progress_frames_ = 0;  ///< checkpoint frames published
  bool broken_ = false;
};

}  // namespace powder
