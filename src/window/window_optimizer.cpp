#include "window/window_optimizer.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>

#include "atpg/sat_checker.hpp"
#include "opt/journal.hpp"
#include "opt/power_gain.hpp"
#include "opt/selection.hpp"
#include "trace/trace.hpp"
#include "util/budget.hpp"
#include "util/check.hpp"

namespace powder {
namespace {

/// One local permissibility check. A CheckError from an engine is treated
/// as kAborted — a sound rejection — so a transient failure inside a pool
/// thread can never accept an unproven candidate or tear down the window
/// fan-out.
AtpgResult prove_local(AtpgChecker& atpg, SatChecker& sat, ProofEngine engine,
                       const CandidateSub& cand) {
  try {
    switch (engine) {
      case ProofEngine::kPodem:
        return atpg.check_replacement(cand.site(), cand.rep);
      case ProofEngine::kSat:
        return sat.check_replacement(cand.site(), cand.rep);
      case ProofEngine::kHybrid: {
        const AtpgResult r = atpg.check_replacement(cand.site(), cand.rep);
        if (r != AtpgResult::kAborted) return r;
        return sat.check_replacement(cand.site(), cand.rep);
      }
    }
  } catch (const CheckError&) {
  }
  return AtpgResult::kAborted;
}

}  // namespace

WindowResult optimize_window(WindowExtraction& ex,
                             const WindowRunOptions& wo) {
  POWDER_CHECK(wo.base != nullptr);
  const PowderOptions& base = *wo.base;
  Netlist& nl = ex.local;
  WindowResult result;

  TraceSpan window_span(wo.trace, "window", "window");
  window_span.arg("window", ex.id);
  window_span.arg("gates", static_cast<long long>(ex.gates.size()));

  // Local twins of the global loop's analyses, all sized by the window.
  Simulator sim(nl, base.num_patterns, ex.input_probs, wo.seed);
  PowerEstimator est(&sim);
  // The window inherits the parent's power model: under the timed model
  // the local boundary inputs switch with the probabilities sampled from
  // the parent (their arrival-time profile is approximated as t = 0).
  std::optional<TimedPowerModel> timed;
  if (base.power_model == PowerModelKind::kTimed) {
    GlitchOptions gopt = base.glitch;
    gopt.stimulus.prob = ex.input_probs;
    gopt.stimulus.toggle.clear();
    timed.emplace(&est, std::move(gopt));
  }
  PowerModel& model = timed.has_value() ? static_cast<PowerModel&>(*timed)
                                        : static_cast<PowerModel&>(est);
  Simulator verify_sim(nl, base.num_patterns, ex.input_probs,
                       wo.seed ^ 0x5EC0DD5EEDull);

  // Local PO-signature guard: the synthetic outputs pin every boundary
  // signal, so a guard pass here means the window's externally visible
  // values are bit-identical on the independent pattern set.
  const std::vector<GateId> po_gates = nl.outputs();
  std::vector<std::uint64_t> po_snapshot;
  for (const GateId o : po_gates) {
    const auto words = verify_sim.value(o);
    po_snapshot.insert(po_snapshot.end(), words.begin(), words.end());
  }
  auto po_signatures_ok = [&]() {
    std::size_t k = 0;
    for (const GateId o : po_gates)
      for (const std::uint64_t w : verify_sim.value(o))
        if (w != po_snapshot[k++]) return false;
    return true;
  };

  AtpgOptions atpg_options = base.proof.atpg;
  atpg_options.budget = wo.budget;
  atpg_options.trace = wo.trace;
  atpg_options.metrics = nullptr;
  SatCheckerOptions sat_options = base.proof.sat;
  sat_options.budget = wo.budget;
  sat_options.trace = wo.trace;
  sat_options.metrics = nullptr;
  AtpgChecker atpg(nl, atpg_options);
  SatChecker sat(nl, sat_options);

  SubstJournal journal(&nl);
  CandidateFinder finder(nl, model, base.candidates, wo.seed, nullptr);

  auto resync = [&]() {
    model.refresh();
    verify_sim.refresh();
  };

  // WAL replay oracle. Matching needs parent ids, so the extraction's
  // local->parent map is copied and extended as replayed commits insert
  // gates (the record carries the parent id the original merge assigned).
  std::vector<GateId> to_parent = ex.to_parent;
  std::size_t replay_cursor = 0;
  auto next_record = [&]() -> const WalCommit* {
    if (wo.replay == nullptr || replay_cursor >= wo.replay->size())
      return nullptr;
    return (*wo.replay)[replay_cursor];
  };
  auto map_gate = [&](GateId local, GateId* parent) {
    if (local >= to_parent.size() || to_parent[local] == kNullGate)
      return false;
    *parent = to_parent[local];
    return true;
  };
  auto map_to_parent = [&](const CandidateSub& c, CandidateSub* out) {
    *out = c;
    if (!map_gate(c.target, &out->target)) return false;
    if (c.branch.has_value() && !map_gate(c.branch->gate, &out->branch->gate))
      return false;
    for (int i = 0; i < c.rep.num_sources(); ++i)
      if (!map_gate(c.rep.source(i), &out->rep.source_ref(i))) return false;
    return true;
  };

  for (int round = 0; round < wo.rounds; ++round) {
    finder.reseed(wo.seed + 17 * static_cast<std::uint64_t>(round));
    std::vector<CandidateSub> cands = finder.find();
    result.stats.harvested += static_cast<long>(cands.size());
    result.stats.truncated += static_cast<long>(finder.last_truncated());
    for (const CandidateSub& c : cands)
      ++result.stats.harvested_by_class[static_cast<std::size_t>(c.cls)];

    int performed = 0;
    bool progress = false;
    while (performed < base.repeat && !cands.empty()) {
      // Selection: the global loop's select_power_red_subst, plus the two
      // windowed soundness filters (see the header comment).
      const std::size_t best =
          select_power_red_subst(
              nl, model, &cands, base,
              [&](const CandidateSub& c) {
                const bool representable =
                    nl.kind(c.target) == GateKind::kCell &&
                    !(c.branch.has_value() &&
                      nl.kind(c.branch->gate) == GateKind::kOutput);
                if (representable && substitution_still_valid(nl, c))
                  return true;
                ++result.stats.stale;
                return false;
              },
              &result.stats.selection)
              .best;
      if (best == cands.size()) break;

      CandidateSub chosen = cands[best];
      cands.erase(cands.begin() + static_cast<std::ptrdiff_t>(best));

      // Pre-proof refutation on the independent pattern set.
      {
        const std::vector<std::uint64_t> words =
            replacement_words(verify_sim, chosen.rep);
        const FanoutRef* branch =
            chosen.branch.has_value() ? &*chosen.branch : nullptr;
        const auto diff = verify_sim.output_diff_with_replacement(
            chosen.target, branch, words);
        bool refuted = false;
        for (const std::uint64_t w : diff)
          if (w) {
            refuted = true;
            break;
          }
        if (refuted) {
          ++result.stats.presim_rejected;
          continue;
        }
      }

      // Permissibility: the WAL oracle answers candidates it recorded for
      // this window; everything else is proved live (a conflict-skipped
      // local commit never reached the WAL, so no-match must not mean
      // rejected here).
      const WalCommit* record = next_record();
      CandidateSub parent_cand;
      const bool matched = record != nullptr &&
                           map_to_parent(chosen, &parent_cand) &&
                           same_candidate(record->cand, parent_cand);
      if (!matched) {
        ++result.stats.inline_proofs;
        const AtpgResult verdict =
            prove_local(atpg, sat, base.proof.engine, chosen);
        if (verdict != AtpgResult::kUntestable) {
          ++result.stats.proof_rejected;
          continue;
        }
      } else {
        ++result.stats.replayed;
      }
      ++result.stats.proved_by_class[static_cast<std::size_t>(chosen.cls)];

      AppliedSub applied;
      try {
        applied = journal.apply(chosen);
      } catch (const CheckError&) {
        ++result.stats.stale;
        continue;
      }
      resync();

      if (base.guard.signature_check && !po_signatures_ok()) {
        ++result.stats.guard_rollbacks;
        try {
          journal.rollback_last();
          resync();
        } catch (const CheckError&) {
          // A rollback failure means the local journal is corrupted; the
          // published deltas keep the caches truthful, but nothing from
          // this window can be trusted — abandon it without commits.
          resync();
          result.commits.clear();
          if (timed.has_value()) result.stats.replay = timed->replay_stats();
          return result;
        }
        continue;
      }

      if (matched) {
        if (applied.new_gate != kNullGate) {
          if (applied.new_gate >= to_parent.size())
            to_parent.resize(applied.new_gate + 1, kNullGate);
          to_parent[applied.new_gate] = record->applied.new_gate;
        }
        ++replay_cursor;
      }
      result.commits.push_back(WindowCommit{chosen, applied});
      ++performed;
      progress = true;
    }
    if (!progress) break;
  }

  if (timed.has_value()) result.stats.replay = timed->replay_stats();
  window_span.arg("commits", static_cast<long long>(result.commits.size()));
  return result;
}

}  // namespace powder
