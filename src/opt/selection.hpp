#pragma once
// select_power_red_subst (paper §3.5), the greedy loop's selection step:
// drop the candidates that went stale, rank the rest by PG_A + PG_B (or by
// exact area gain), re-estimate PG_C for the shortlist only, and pick the
// best total gain.
//
// Every quantity involved is a pure function of the netlist state, so each
// candidate memoizes them under the Netlist::epoch() they were computed at
// (Transform::gains_epoch, with pg_c_memo marking a PG_C computed at that
// same epoch) and a round recomputes only stale ones. A pick rejected by
// presim, proof or the delay check leaves the netlist — and so every
// memoized value — unchanged for the next round.

#include <cstddef>
#include <functional>
#include <vector>

#include "opt/powder.hpp"
#include "opt/transform.hpp"
#include "power/model.hpp"

namespace powder {

/// Work counters of the selection rounds.
struct SelectionStats {
  long pgc_evaluations = 0;  ///< PG_C values computed
  long pgc_memo_hits = 0;    ///< shortlisted PG_C values reused
};

/// One selection round over `*cands` under `options`' objective, shortlist
/// and min_gain. Candidates whose validity is stale are re-checked with
/// `keep`; those it rejects are erased (the callback does the caller's
/// accounting). pg_a/pg_b/pg_c of the survivors are refreshed where stale.
/// Returns the index of the pick, or the candidate count when nothing helps.
std::size_t select_power_red_subst(
    const Netlist& netlist, const PowerModel& model,
    std::vector<CandidateSub>* cands, const PowderOptions& options,
    const std::function<bool(const CandidateSub&)>& keep,
    SelectionStats* stats);

}  // namespace powder
