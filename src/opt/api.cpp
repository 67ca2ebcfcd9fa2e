// Implementation of the stable library surface: powder::optimize and the
// JSON serialization of PowderReport.

#include <cmath>
#include <sstream>

#include "opt/powder.hpp"
#include "util/error.hpp"

namespace powder {

namespace {

const char* kClassNames[kNumResubClasses] = {"OS2", "IS2",  "OS3",    "IS3",
                                             "OSK", "ISK", "FUNCRED"};

/// JSON has no inf/nan; the delay limit is +inf when timing is off.
void append_number(std::ostringstream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

void append_field(std::ostringstream& os, const char* name, double v,
                  bool* first) {
  if (!*first) os << ",";
  *first = false;
  os << "\"" << name << "\":";
  append_number(os, v);
}

void append_field(std::ostringstream& os, const char* name, long v,
                  bool* first) {
  if (!*first) os << ",";
  *first = false;
  os << "\"" << name << "\":" << v;
}

void append_field(std::ostringstream& os, const char* name, int v,
                  bool* first) {
  append_field(os, name, static_cast<long>(v), first);
}

void append_field(std::ostringstream& os, const char* name, bool v,
                  bool* first) {
  if (!*first) os << ",";
  *first = false;
  os << "\"" << name << "\":" << (v ? "true" : "false");
}

}  // namespace

std::string PowderReport::to_json() const {
  std::ostringstream os;
  os.precision(17);
  bool first = true;
  os << "{";
  // First key by contract (DESIGN.md §11.4): consumers dispatch on the
  // document version before touching anything else.
  append_field(os, "schema_version", kReportSchemaVersion, &first);
  append_field(os, "initial_power", initial_power, &first);
  append_field(os, "final_power", final_power, &first);
  append_field(os, "initial_area", initial_area, &first);
  append_field(os, "final_area", final_area, &first);
  append_field(os, "initial_delay", initial_delay, &first);
  append_field(os, "final_delay", final_delay, &first);
  append_field(os, "delay_limit", delay_limit, &first);
  append_field(os, "power_reduction_percent", power_reduction_percent(),
               &first);
  append_field(os, "area_reduction_percent", area_reduction_percent(), &first);
  append_field(os, "substitutions_applied", substitutions_applied, &first);
  append_field(os, "candidates_harvested", candidates_harvested, &first);
  append_field(os, "rejected_by_delay", rejected_by_delay, &first);
  append_field(os, "rejected_by_atpg", rejected_by_atpg, &first);
  append_field(os, "rejected_stale", rejected_stale, &first);
  append_field(os, "outer_iterations", outer_iterations, &first);
  append_field(os, "cpu_seconds", cpu_seconds, &first);

  os << ",\"by_class\":{";
  for (std::size_t i = 0; i < by_class.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"" << kClassNames[i] << "\":{";
    bool cf = true;
    append_field(os, "applied", by_class[i].applied, &cf);
    append_field(os, "power_delta", by_class[i].power_delta, &cf);
    append_field(os, "area_delta", by_class[i].area_delta, &cf);
    os << "}";
  }
  os << "}";

  os << ",\"diagnostics\":{";
  bool df = true;
  append_field(os, "guard_rollbacks", diagnostics.guard_rollbacks, &df);
  append_field(os, "final_check_rollbacks", diagnostics.final_check_rollbacks,
               &df);
  append_field(os, "apply_failures", diagnostics.apply_failures, &df);
  append_field(os, "guard_failed", diagnostics.guard_failed, &df);
  append_field(os, "budget_exhausted", diagnostics.budget_exhausted, &df);
  append_field(os, "deadline_hit", diagnostics.deadline_hit, &df);
  append_field(os, "degradation_events", diagnostics.degradation_events, &df);
  // Retired within schema 5 (DESIGN.md §11.4): written as literal 0.
  append_field(os, "retries", 0L, &df);
  append_field(os, "watchdog_requeues", 0L, &df);
  append_field(os, "checkpoint_frames", diagnostics.checkpoint_frames, &df);
  append_field(os, "resume_replayed", diagnostics.resume_replayed, &df);
  append_field(os, "checkpoint_disabled", diagnostics.checkpoint_disabled,
               &df);
  append_field(os, "mem_limit_hit", diagnostics.mem_limit_hit, &df);
  append_field(os, "threads_used", diagnostics.threads_used, &df);
  append_field(os, "proof_jobs_enqueued", 0L, &df);     // retired
  append_field(os, "speculative_proof_hits", 0L, &df);  // retired
  append_field(os, "stale_proofs_dropped", 0L, &df);    // retired
  append_field(os, "inline_proofs", diagnostics.inline_proofs, &df);
  append_field(os, "deltas_published", diagnostics.deltas_published, &df);
  append_field(os, "observer_notifications",
               diagnostics.observer_notifications, &df);
  append_field(os, "sta_incremental_visits",
               diagnostics.sta_incremental_visits, &df);
  append_field(os, "sta_full_equiv_visits",
               diagnostics.sta_full_equiv_visits, &df);
  append_field(os, "candidate_gates_refreshed",
               diagnostics.candidate_gates_refreshed, &df);
  append_field(os, "candidate_index_size", diagnostics.candidate_index_size,
               &df);
  append_field(os, "pin_slabs_allocated", diagnostics.pin_slabs_allocated,
               &df);
  append_field(os, "pin_slabs_recycled", diagnostics.pin_slabs_recycled, &df);
  append_field(os, "name_pool_bytes", diagnostics.name_pool_bytes, &df);
  append_field(os, "peak_rss_bytes", diagnostics.peak_rss_bytes, &df);
  append_field(os, "trace_dropped", diagnostics.trace_dropped, &df);
  // Retired within schema 5 with windowed mode: written as literal 0.
  os << ",\"windowing\":{\"windows_built\":0,\"window_commits\":0,"
        "\"boundary_conflicts\":0,\"window_reruns\":0,"
        "\"window_gates_total\":0}";
  os << ",\"resub\":{";
  bool rf = true;
  // Retired within schema 5 with the functional-reduction pre-pass.
  append_field(os, "funcred_merges", 0L, &rf);
  append_field(os, "harvest_truncated", diagnostics.resub.harvest_truncated,
               &rf);
  append_field(os, "harvest_sites", diagnostics.resub.harvest_sites, &rf);
  append_field(os, "harvest_sites_matched",
               diagnostics.resub.harvest_sites_matched, &rf);
  append_field(os, "three_sub_pairs", diagnostics.resub.three_sub_pairs, &rf);
  append_field(os, "three_sub_pairs_passed",
               diagnostics.resub.three_sub_pairs_passed, &rf);
  os << ",\"by_class\":{";
  for (std::size_t i = 0; i < diagnostics.resub.by_class.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"" << kClassNames[i] << "\":{";
    bool cf = true;
    append_field(os, "harvested", diagnostics.resub.by_class[i].harvested,
                 &cf);
    append_field(os, "proved", diagnostics.resub.by_class[i].proved, &cf);
    append_field(os, "applied", diagnostics.resub.by_class[i].applied, &cf);
    append_field(os, "gain", diagnostics.resub.by_class[i].gain, &cf);
    os << "}";
  }
  os << "}}";
  os << ",\"delay_checks\":{";
  bool dc = true;
  append_field(os, "checks", diagnostics.delay_checks.checks, &dc);
  append_field(os, "overlay_visits", diagnostics.delay_checks.overlay_visits,
               &dc);
  append_field(os, "full_equiv_visits",
               diagnostics.delay_checks.full_equiv_visits, &dc);
  os << "}";
  os << ",\"power_model\":{";
  bool pf = false;
  os << "\"kind\":\"" << diagnostics.power_model.kind << "\"";
  append_field(os, "vector_pairs", diagnostics.power_model.vector_pairs, &pf);
  append_field(os, "timed_resims", diagnostics.power_model.timed_resims, &pf);
  append_field(os, "cone_refreshes", diagnostics.power_model.cone_refreshes,
               &pf);
  append_field(os, "refresh_cone_gates",
               diagnostics.power_model.refresh_cone_gates, &pf);
  append_field(os, "refresh_fallback_pairs",
               diagnostics.power_model.refresh_fallback_pairs, &pf);
  append_field(os, "event_overflows", diagnostics.power_model.event_overflows,
               &pf);
  append_field(os, "glitch_share", diagnostics.power_model.glitch_share, &pf);
  append_field(os, "pgc_evaluations", diagnostics.power_model.pgc_evaluations,
               &pf);
  append_field(os, "pgc_memo_hits", diagnostics.power_model.pgc_memo_hits,
               &pf);
  append_field(os, "pgc_cone_gates", diagnostics.power_model.pgc_cone_gates,
               &pf);
  append_field(os, "pgc_fallback_pairs",
               diagnostics.power_model.pgc_fallback_pairs, &pf);
  os << "}";
  os << ",\"selection\":{";
  bool sf = true;
  append_field(os, "rounds", diagnostics.selection.rounds, &sf);
  append_field(os, "rescored", diagnostics.selection.rescored, &sf);
  append_field(os, "reused", diagnostics.selection.reused, &sf);
  os << "}";
  os << "}";
  // Snapshot of the attached MetricsRegistry; absent without a metrics sink
  // so every pre-existing consumer sees an unchanged document.
  if (!metrics_json.empty()) os << ",\"metrics\":" << metrics_json;
  os << "}";
  return os.str();
}

PowderReport optimize(Netlist& netlist, const PowderOptions& options) {
  try {
    PowderOptimizer optimizer(&netlist, options);
    return optimizer.run();
  } catch (const std::bad_alloc&) {
    // The one failure the degradation ladder cannot absorb once it lands
    // outside a guarded path; surface it typed instead of as bad_alloc.
    throw Error::resource("out of memory during optimization");
  }
}

}  // namespace powder
