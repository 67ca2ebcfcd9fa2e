#include "opt/selection.hpp"

#include <algorithm>

#include "opt/power_gain.hpp"
#include "trace/trace.hpp"

namespace powder {

std::size_t select_power_red_subst(
    const Netlist& netlist, const PowerModel& model,
    std::vector<CandidateSub>* cands, const PowderOptions& options,
    const std::function<bool(const CandidateSub&)>& keep,
    SelectionStats* stats) {
  const std::uint64_t epoch = netlist.epoch();
  const bool area_mode = options.objective == Objective::kArea;
  std::vector<std::size_t> order;
  std::vector<double> metric(cands->size(), 0.0);
  for (std::size_t i = 0; i < cands->size();) {
    CandidateSub& c = (*cands)[i];
    if (c.gains_epoch != epoch) {
      if (!keep(c)) {
        cands->erase(cands->begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      c.pg_a = compute_pg_a(netlist, model, c);
      c.pg_b = compute_pg_b(netlist, model, c);
      c.gains_epoch = epoch;
      c.pg_c_memo = false;
    }
    metric[i] = area_mode ? compute_area_gain(netlist, c)
                                 : c.preselect_gain();
    order.push_back(i);
    ++i;
  }
  std::size_t best = cands->size();
  if (order.empty()) return best;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return metric[x] > metric[y];
  });
  order.resize(std::min(order.size(),
                        static_cast<std::size_t>(options.shortlist)));
  double best_gain = options.min_gain;
  if (area_mode) {
    // Area gain is exact — no shortlist re-estimation needed.
    return metric[order[0]] > best_gain ? order[0] : best;
  }
  // Traced only when some PG_C is computed: a round served from the memo
  // costs nothing worth a trace event.
  const long evaluations = stats->pgc_evaluations;
  const std::uint64_t t0 =
      options.trace.trace != nullptr ? trace_now_ns() : 0;
  for (const std::size_t k : order) {
    CandidateSub& c = (*cands)[k];
    if (c.pg_c_memo) {
      ++stats->pgc_memo_hits;
    } else {
      c.pg_c = compute_pg_c(netlist, model, c);
      c.pg_c_memo = true;
      ++stats->pgc_evaluations;
    }
    if (c.total_gain() > best_gain) {
      best_gain = c.total_gain();
      best = k;
    }
  }
  if (options.trace.trace != nullptr && stats->pgc_evaluations > evaluations)
    options.trace.trace->record_span("pg_c", "power", t0, trace_now_ns() - t0,
                                     "evaluations",
                                     stats->pgc_evaluations - evaluations);
  return best;
}

}  // namespace powder
