#pragma once
// Power-gain analysis of structural transformations (paper §3.3),
// computed against the abstract PowerModel so the greedy loop can
// optimize either the paper's zero-delay power or the glitch-inclusive
// timed power.
//
//   PG(trans) = PG_A + PG_B + PG_C
//
// PG_A (>= 0): switched capacitance of the removed dominated region plus
//   the unloaded pins of its inputs — computable without re-estimation
//   from the model's cached activities (timed activities include the
//   glitches that die with the region).
// PG_B (<= 0): new load placed on the substituting signal(s), and for
//   OS3/IS3 the new gate's own output — computable without re-estimation.
//   The new gate's own activity is its zero-delay word activity under both
//   models (its timed activity does not exist yet); for the timed model
//   PG_C absorbs the correction below.
// PG_C (any sign): activity changes across the transitive fanout of the
//   substituted signal. Zero-delay: a non-destructive trial simulation of
//   exactly that region. Timed: an event-driven re-estimate of the
//   planned substitution (plan_substitution overlaid on the live netlist,
//   nothing copied or applied), replaying only the edit's affected cone
//   against the model's recorded base (bitwise equal to re-estimating the
//   whole edited netlist) — PG_C is defined as the measured
//   glitch-inclusive delta minus the already-booked PG_A + PG_B, making
//   total_gain() the exact timed power saving (requires pg_a/pg_b to be
//   filled on `sub` before the call, which the optimizer's shortlist pass
//   guarantees).

#include <vector>

#include "opt/substitution.hpp"
#include "power/model.hpp"
#include "power/power.hpp"

namespace powder {

/// The 64-bit-parallel value words of the substituting signal under the
/// simulator's current patterns.
std::vector<std::uint64_t> replacement_words(const Simulator& sim,
                                             const ReplacementFunction& rep);

/// The cheap pre-proof: true when substituting `sub` changes some primary
/// output on `sim`'s patterns — a definite refutation, so the candidate
/// never reaches the proof engines.
bool refuted_by_simulation(const Simulator& sim, const CandidateSub& sub);

/// Switching activity 2p(1-p) of a word vector.
double words_activity(std::span<const std::uint64_t> words);

double compute_pg_a(const Netlist& netlist, const PowerModel& est,
                    const CandidateSub& sub);
double compute_pg_b(const Netlist& netlist, const PowerModel& est,
                    const CandidateSub& sub);
double compute_pg_c(const Netlist& netlist, const PowerModel& est,
                    const CandidateSub& sub);

/// Exact area gain (removed cell area minus inserted cell area) of a
/// substitution — positive when the netlist shrinks. Needs no
/// re-estimation; used by the optimizer's area objective (the paper's
/// Table 2 contrasts power and area optimization).
double compute_area_gain(const Netlist& netlist, const CandidateSub& sub);

}  // namespace powder
