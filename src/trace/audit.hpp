#pragma once
// Decision audit log: one NDJSON record per candidate the optimizer
// actually considered, with enough signal to replay *why* each was
// accepted or rejected — the substitution class, the PG_A/PG_B/PG_C
// economics, the permissibility verdict with its engine and cost, and the
// final decision. Feed it to jq/pandas to attribute wins and rejections
// per candidate class the way per-run totals never can.
//
// Writing happens on the optimizer's commit thread only (candidate
// selection and proofs are single-threaded at any thread count), so the
// log needs no hot-path synchronization; a mutex still serializes writers
// defensively so a misuse cannot interleave half-lines.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace powder {

struct AuditRecord {
  long long seq = 0;           ///< 0-based record index within the run
  int iteration = 0;           ///< outer-loop iteration (1-based)
  /// Netlist journal epoch at decision time: joins a decision line to the
  /// delta-bus generation (and WAL frames) it was taken against.
  unsigned long long epoch = 0;
  const char* cls = "";        ///< OS2 / IS2 / OS3 / IS3 / OSK / ISK
  long long target = -1;       ///< substituted stem gate id
  std::string_view target_name{};
  long long branch_sink = -1;  ///< IS2/IS3 branch sink gate id, else -1
  int branch_pin = -1;
  const char* rep_kind = "";   ///< constant / signal / two_input / cell
  long long rep_b = -1;        ///< substituting signal(s); -1 = n/a
  long long rep_c = -1;
  /// kCell replacements: the ordered divisor set (emitted as
  /// `"divisors":[...]` inside the rep object; empty = n/a).
  std::vector<long long> rep_divisors;
  double pg_a = 0.0;
  double pg_b = 0.0;
  double pg_c = 0.0;
  bool pg_c_known = false;     ///< PG_C is only computed for the shortlist
  /// Permissibility proof, when one ran: engine "podem"/"sat"/"hybrid",
  /// "replay" (WAL oracle on resume), "none" (degraded, verdict
  /// "skipped"); verdict "untestable"/"test_found"/"aborted".
  const char* proof_engine = nullptr;
  const char* proof_verdict = nullptr;
  double proof_us = -1.0;      ///< inline proof wall time; <0 = n/a
  /// accepted / rejected_stale / rejected_delay / rejected_presim /
  /// rejected_proof / apply_failed / guard_rollback
  const char* decision = "";
};

/// A run-level event line, distinct from per-candidate decision records:
/// degradation-ladder transitions, checkpoint failures.
/// Events render as `{"event":...}` NDJSON lines interleaved with decision
/// records but counted separately (records() stays a pure decision count).
struct AuditEvent {
  const char* event = "";       ///< "degradation" / "checkpoint_disabled" / …
  const char* from = nullptr;   ///< ladder level stepped down from
  const char* to = nullptr;     ///< ladder level stepped down to
  const char* reason = nullptr; ///< "deadline" / "proof_budget" / "mem_limit" …
  const char* detail = nullptr; ///< free-form context (error message, path)
  double elapsed_seconds = -1.0;///< run wall time at the event; <0 = n/a
  long long value = -1;         ///< free numeric slot (RSS bytes, frame); <0 = n/a
};

class AuditLog {
 public:
  /// Writes NDJSON lines to `os` (borrowed; must outlive the log).
  explicit AuditLog(std::ostream* os);
  AuditLog(const AuditLog&) = delete;
  AuditLog& operator=(const AuditLog&) = delete;

  void write(const AuditRecord& record);
  void write_event(const AuditEvent& event);

  long long records() const {
    return records_.load(std::memory_order_relaxed);
  }
  long long events() const { return events_.load(std::memory_order_relaxed); }

 private:
  std::ostream* os_;
  std::mutex mutex_;
  std::atomic<long long> records_{0};
  std::atomic<long long> events_{0};
};

}  // namespace powder
