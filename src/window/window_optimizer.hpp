#pragma once
// Window-scoped optimizer (DESIGN.md §11.3): runs the POWDER
// harvest→proof→commit loop against one extracted window.
//
// The loop is a deliberately serial miniature of the global one — local
// simulators and signature words, a local candidate index, local proof
// cones clipped at the window inputs, a local journal with its own
// PO-signature guard — with three windowed-mode differences:
//
//   * candidates targeting a synthetic local input are rejected (an OS2
//     there would rewire parent fanouts outside the window that the local
//     proof never saw), and IS2/IS3 branches into a synthetic local output
//     are rejected (one synthetic pin stands for several parent sinks, so
//     the edit has no parent representation);
//   * there is no delay check — the merge layer applies it against the
//     parent's incremental STA, where arrival times are real;
//   * proofs can be answered by a per-window WAL replay oracle: a
//     candidate matching the next recorded commit for this window skips
//     the engines, anything else is proved live (a merge-conflicted local
//     commit never reached the WAL, so an unmatched candidate must not be
//     auto-rejected the way the global resume path does).
//
// Each accepted commit is returned in local GateIds; the merge layer maps
// them onto the parent via WindowExtraction::to_parent.

#include <array>
#include <cstdint>
#include <vector>

#include "opt/powder.hpp"
#include "opt/selection.hpp"
#include "power/glitch.hpp"
#include "session/wal.hpp"
#include "window/extract.hpp"

namespace powder {

class ResourceBudget;
class TraceSession;

/// One locally accepted substitution, in local GateIds.
struct WindowCommit {
  CandidateSub cand;
  AppliedSub applied;
};

/// Decision counters of one window run, folded serially into the parent
/// run's metrics at merge time so registry totals stay deterministic.
struct WindowLocalStats {
  long harvested = 0;
  long stale = 0;
  long presim_rejected = 0;
  long proof_rejected = 0;
  long guard_rollbacks = 0;
  long inline_proofs = 0;
  long replayed = 0;   ///< proofs answered by the WAL oracle
  long truncated = 0;  ///< candidates dropped by the max_candidates cap
  long sites = 0;          ///< harvest sites bounded
  long sites_matched = 0;  ///< harvest sites matched (bound not pruned)
  long three_sub_pairs = 0;         ///< OS3/IS3 pairs tested
  long three_sub_pairs_passed = 0;  ///< OS3/IS3 pairs that passed
  /// Per-resubstitution-class harvest/proof counts (diagnostics.resub).
  std::array<long, kNumResubClasses> harvested_by_class{};
  std::array<long, kNumResubClasses> proved_by_class{};
  SelectionStats selection;  ///< local PG_C evaluations and memo hits
  GlitchReplayStats replay;  ///< local timed-PG_C replay work
};

struct WindowResult {
  std::vector<WindowCommit> commits;
  WindowLocalStats stats;
};

struct WindowRunOptions {
  /// The parent run's options; the local loop reads num_patterns,
  /// objective, candidates, shortlist, min_gain, repeat and proof.
  const PowderOptions* base = nullptr;
  std::uint64_t seed = 1;   ///< premixed per-window seed (window_seed())
  int rounds = 2;           ///< local harvest rounds
  ResourceBudget* budget = nullptr;  ///< shared proof pools (may be null)
  TraceSession* trace = nullptr;     ///< span sink (may be null)
  /// WAL commits recorded for this window id, in recorded order; null or
  /// empty outside a resume.
  const std::vector<const WalCommit*>* replay = nullptr;
};

/// Optimizes `ex.local` in place and returns the accepted local commits in
/// commit order. Pure function of (extraction, options) — safe to run for
/// disjoint extractions on pool threads concurrently.
WindowResult optimize_window(WindowExtraction& ex,
                             const WindowRunOptions& options);

/// Rewrites a local candidate into parent ids through `to_parent` (the
/// extraction's map, extended as commits insert gates). False when a gate
/// it references has no parent counterpart.
bool map_to_parent(const std::vector<GateId>& to_parent,
                   const CandidateSub& local, CandidateSub* parent);

}  // namespace powder
