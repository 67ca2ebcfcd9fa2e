#pragma once
// Graceful-degradation ladder (DESIGN.md §10.2): instead of dying or
// silently stalling when resources run out, the optimizer steps down an
// explicit, monotone ladder —
//
//   kFullProof      — configured proof engine (SAT/hybrid/PODEM)
//   kPodemOnly      — SAT bypassed; PODEM-only proofs (cheap, may abort)
//   kSignatureOnly  — proofs off: every candidate reaching the proof stage
//                     is rejected; the loop drains toward a clean stop
//                     while guards keep protecting already-committed work
//   kStop           — clean stop, best-so-far netlist emitted
//
// Sensors: wall-clock deadline fractions, proof-pool exhaustion, and RSS
// against --mem-limit. Every transition is published as a typed audit
// event and a metrics counter; the ladder never steps up, so the audit
// trail of a starved run reads as a monotone staircase.

#include <cstdint>

#include "atpg/sat_checker.hpp"
#include "session/options.hpp"
#include "util/budget.hpp"

namespace powder {

class MetricsRegistry;
class AuditLog;
class Counter;
class Gauge;
class ProgressStream;

enum class DegradationLevel : int {
  kFullProof = 0,
  kPodemOnly = 1,
  kSignatureOnly = 2,
  kStop = 3,
};

const char* degradation_level_name(DegradationLevel level);

/// Why the ladder reached kStop (kNone while still running).
enum class StopReason { kNone, kDeadline, kProofBudget, kMemLimit };

class DegradationLadder {
 public:
  /// `deadline_seconds` is the run's total wall budget (<0 = none);
  /// `engine` the configured proof engine (a PODEM-only configuration has
  /// no SAT stage to shed, so the kPodemOnly rung is a no-op for it).
  DegradationLadder(const SessionOptions& session, double deadline_seconds,
                    ProofEngine engine, MetricsRegistry* metrics,
                    AuditLog* audit);

  /// Re-reads the sensors and steps down if needed. Cheap enough for the
  /// inner loop: a couple of relaxed loads; RSS is sampled once every 32
  /// calls. Returns the (possibly new) level. Inline for a run without a
  /// deadline or memory limit whose proof pools are not dry: no sensor can
  /// then demand a step, and the probe stays a few loads.
  DegradationLevel evaluate(const ResourceBudget& budget) {
    if (level_ != DegradationLevel::kStop && deadline_total_ <= 0.0 &&
        !budget.has_deadline() && session_.mem_limit_bytes <= 0 &&
        !budget.atpg_pool_dry() && !budget.sat_pool_dry())
      return level_;
    return evaluate_sensors(budget);
  }

  DegradationLevel level() const { return level_; }
  StopReason stop_reason() const { return stop_reason_; }
  int transitions() const { return transitions_; }
  bool mem_limit_hit() const { return mem_limit_hit_; }

  /// Optional live progress sink: every step-down is also published as a
  /// `degradation` event on the stream (null = off).
  void set_progress(ProgressStream* progress) { progress_ = progress; }

  /// Pure ladder policy, separated for unit testing: what level do these
  /// sensor readings demand? (Monotonicity is applied by evaluate().)
  struct Sensors {
    bool deadline_expired = false;
    double deadline_total = -1.0;     ///< <=0: no deadline
    double deadline_remaining = 0.0;
    bool sat_pool_dry = false;
    bool atpg_pool_dry = false;
    long long rss_bytes = 0;          ///< 0: unknown / not sampled
  };
  struct Decision {
    DegradationLevel level = DegradationLevel::kFullProof;
    StopReason stop_reason = StopReason::kNone;
    const char* reason = nullptr;  ///< audit string for the step
  };
  Decision decide(const Sensors& sensors) const;

 private:
  DegradationLevel evaluate_sensors(const ResourceBudget& budget);
  void step_to(DegradationLevel to, StopReason stop, const char* reason,
               long long value);

  SessionOptions session_;
  double deadline_total_;
  ProofEngine engine_;
  MetricsRegistry* metrics_;
  AuditLog* audit_;
  ProgressStream* progress_ = nullptr;
  Counter* transitions_counter_ = nullptr;
  Gauge* level_gauge_ = nullptr;

  DegradationLevel level_ = DegradationLevel::kFullProof;
  StopReason stop_reason_ = StopReason::kNone;
  int transitions_ = 0;
  bool mem_limit_hit_ = false;
  unsigned calls_ = 0;
  long long last_rss_ = 0;
};

}  // namespace powder
