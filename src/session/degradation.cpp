#include "session/degradation.hpp"

#include <string_view>

#include "trace/audit.hpp"
#include "trace/metrics.hpp"
#include "trace/progress.hpp"
#include "util/memstats.hpp"

namespace powder {

const char* degradation_level_name(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kFullProof: return "full_proof";
    case DegradationLevel::kPodemOnly: return "podem_only";
    case DegradationLevel::kSignatureOnly: return "signature_only";
    case DegradationLevel::kStop: return "stop";
  }
  return "unknown";
}

DegradationLadder::DegradationLadder(const SessionOptions& session,
                                     double deadline_seconds,
                                     ProofEngine engine,
                                     MetricsRegistry* metrics, AuditLog* audit)
    : session_(session),
      deadline_total_(deadline_seconds),
      engine_(engine),
      metrics_(metrics),
      audit_(audit) {
  if (metrics_ != nullptr) {
    transitions_counter_ = metrics_->counter(
        "powder_degradation_transitions_total",
        "degradation-ladder step-downs this run");
    level_gauge_ = metrics_->gauge("powder_degradation_level",
                                   "current ladder level (0=full .. 3=stop)");
  }
}

DegradationLadder::Decision DegradationLadder::decide(
    const Sensors& s) const {
  Decision d;
  auto raise = [&d](DegradationLevel lvl, StopReason stop,
                    const char* reason) {
    if (static_cast<int>(lvl) <= static_cast<int>(d.level)) return;
    d.level = lvl;
    d.stop_reason = stop;
    d.reason = reason;
  };

  if (s.deadline_expired) {
    raise(DegradationLevel::kStop, StopReason::kDeadline, "deadline");
  } else if (s.deadline_total > 0.0) {
    if (s.deadline_remaining <
        session_.signature_only_fraction * s.deadline_total)
      raise(DegradationLevel::kSignatureOnly, StopReason::kNone,
            "deadline_near");
    else if (s.deadline_remaining <
             session_.podem_only_fraction * s.deadline_total)
      raise(DegradationLevel::kPodemOnly, StopReason::kNone, "deadline_near");
  }

  if (s.atpg_pool_dry && s.sat_pool_dry)
    raise(DegradationLevel::kStop, StopReason::kProofBudget, "proof_budget");
  else if (s.sat_pool_dry && engine_ != ProofEngine::kPodem)
    raise(DegradationLevel::kPodemOnly, StopReason::kNone, "sat_pool_dry");
  else if (s.atpg_pool_dry && engine_ == ProofEngine::kPodem)
    raise(DegradationLevel::kStop, StopReason::kProofBudget, "proof_budget");

  if (session_.mem_limit_bytes > 0 && s.rss_bytes > 0) {
    if (s.rss_bytes > session_.mem_limit_bytes +
                          session_.mem_limit_bytes / 2)
      raise(DegradationLevel::kStop, StopReason::kMemLimit, "mem_limit");
    else if (s.rss_bytes > session_.mem_limit_bytes)
      raise(DegradationLevel::kSignatureOnly, StopReason::kNone,
            "mem_limit_near");
  }
  return d;
}

DegradationLevel DegradationLadder::evaluate_sensors(
    const ResourceBudget& budget) {
  if (level_ == DegradationLevel::kStop) return level_;

  Sensors s;
  s.deadline_total = deadline_total_;
  if (budget.has_deadline()) {
    s.deadline_expired = budget.expired();
    s.deadline_remaining = budget.remaining_seconds();
  }
  s.atpg_pool_dry = budget.atpg_pool_dry();
  s.sat_pool_dry = budget.sat_pool_dry();
  if (session_.mem_limit_bytes > 0) {
    // /proc reads are not inner-loop cheap; sample every 32 evaluations.
    if (calls_ % 32 == 0)
      last_rss_ = static_cast<long long>(current_rss_bytes());
    s.rss_bytes = last_rss_;
  }
  ++calls_;

  const Decision d = decide(s);
  if (static_cast<int>(d.level) > static_cast<int>(level_)) {
    const bool mem_involved =
        d.stop_reason == StopReason::kMemLimit ||
        (d.reason != nullptr &&
         std::string_view(d.reason) == "mem_limit_near");
    if (mem_involved) mem_limit_hit_ = true;
    step_to(d.level, d.stop_reason, d.reason, s.rss_bytes);
  }
  return level_;
}

void DegradationLadder::step_to(DegradationLevel to, StopReason stop,
                                const char* reason, long long value) {
  const DegradationLevel from = level_;
  level_ = to;
  if (to == DegradationLevel::kStop) stop_reason_ = stop;
  ++transitions_;
  if (transitions_counter_ != nullptr) transitions_counter_->inc();
  if (level_gauge_ != nullptr)
    level_gauge_->set(static_cast<double>(static_cast<int>(to)));
  if (audit_ != nullptr) {
    AuditEvent e;
    e.event = "degradation";
    e.from = degradation_level_name(from);
    e.to = degradation_level_name(to);
    e.reason = reason;
    e.value = value > 0 ? value : -1;
    audit_->write_event(e);
  }
  if (progress_ != nullptr)
    progress_->degradation(degradation_level_name(from),
                           degradation_level_name(to), reason);
}

}  // namespace powder
