#pragma once
// select_power_red_subst (paper §3.5), the greedy loop's selection step:
// drop the candidates that went stale, rank the rest by PG_A + PG_B (or by
// exact area gain), re-estimate PG_C for the shortlist only, and pick the
// best total gain.
//
// Every quantity involved is a pure function of the netlist state, so each
// candidate memoizes them under the Netlist::epoch() they were computed at
// (Transform::gains_epoch, with pg_c_memo marking a PG_C computed at that
// same epoch). A pick rejected by presim, proof or the delay check leaves the
// netlist — and so every memoized value — unchanged for the next round.
//
// A commit or rollback moves the epoch, but PG_A, PG_B and the area gain
// read only a few gates: the target, the branch sink, the replacement's
// sources, and the target's MFFC with every fanin its walk considered. A
// SelectionMemo records those reads in a gate -> candidates index. A round
// at a new epoch collects the gates changed since the previous round — both
// ends of every rewired pin, every added, removed or revived gate with its
// fanins, every resized gate with its fanins (Netlist::deltas_since), and
// every gate whose activity or value words the model's refreshes changed
// (PowerModel::drain_changes) — and re-scores only the candidates that read
// one of them. The others keep their values, bitwise what a re-score would
// give, under the new epoch. Validity is still checked for every candidate,
// and PG_C, which reads the whole transitive fanout, is still recomputed at
// every new epoch. An evicted delta log, a full model refresh or a rebuilt
// netlist re-scores everything (DESIGN.md §13.1).
//
// A pick leaves its list in O(1): take_pick() moves it out and leaves a
// tombstone that the next round's stable compaction pass — which visits
// every candidate anyway — drops, so the sort input is the same as if the
// pick had been erased. The round's order and metric vectors live in the
// memo and are reused from round to round (DESIGN.md §6.1).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "opt/power_gain.hpp"
#include "opt/powder.hpp"
#include "opt/transform.hpp"
#include "power/model.hpp"

namespace powder {

/// Work counters of the selection rounds.
struct SelectionStats {
  long pgc_evaluations = 0;  ///< PG_C values computed
  long pgc_memo_hits = 0;    ///< shortlisted PG_C values reused
  long rounds = 0;           ///< select_power_red_subst calls
  long rescored = 0;         ///< PG_A/PG_B (and area gain) computed
  long reused = 0;           ///< kept across an epoch change: nothing read moved
};

/// The dependency index behind the gain memo of one candidate list, from
/// its harvest on. It is the single consumer of the model's change log.
class SelectionMemo {
 public:
  SelectionMemo(const Netlist& netlist, const PowerModel& model);

  const Netlist& netlist() const { return *netlist_; }
  const PowerModel& model() const { return *model_; }

  /// Opens a round: at a new epoch, marks the candidates that read a gate
  /// changed since the previous round. Requires a refreshed model.
  void begin_round();
  /// True when `c`'s gains, scored at the previous round's epoch, read no
  /// gate changed since.
  bool unchanged(const CandidateSub& c) const;
  /// Computes pg_a, pg_b (and, for the area objective, the area gain) at
  /// the current epoch and records what they read.
  void rescore(CandidateSub* c, bool area);
  /// The area gain of the last rescore(c, true).
  double area_gain(const CandidateSub& c) const;

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  /// How a read gate can move a gain (a bit mask): by any change to its
  /// fanin or fanout lists or cell (the MFFC's members), by a fanout it
  /// loses (the walk's boundary), or by its activity and value words (moved
  /// by model refreshes).
  enum Read : std::uint16_t {
    kStructure = 1,
    kLostFanout = 2,
    kValue = 4,
  };
  static constexpr int kReadBits = 3;
  static constexpr std::uint16_t kGenMask = 0xFFFF >> kReadBits;
  /// One recorded read: candidate slot `slot` read the gate whose list this
  /// entry is on, in the ways `tag`'s low kReadBits name, at the slot
  /// generation in its other bits. A generation that wrapped around can
  /// only mark a candidate needlessly, never miss one.
  struct Entry {
    std::uint16_t slot;
    std::uint16_t tag;
    std::uint32_t next;
  };

  void mark(Read kind, GateId g);

  const Netlist* netlist_;
  const PowerModel* model_;
  std::uint64_t epoch_ = kNoEpoch;       ///< epoch of the current round
  std::uint64_t prev_epoch_ = kNoEpoch;  ///< epoch of the round before
  std::uint32_t round_ = 0;
  bool all_dirty_ = true;
  // Per candidate slot (Transform::memo_slot).
  std::vector<std::uint16_t> gen_;
  std::vector<std::uint32_t> dirty_round_;
  std::vector<double> area_;
  // Per gate: the head of its list in entries_.
  std::vector<std::uint32_t> head_;
  std::vector<Entry> entries_;
  // rescore() scratch: the reads, then one key per read (gate, role order,
  // kinds) to sort them by gate.
  PgaReads reads_;
  std::vector<std::uint64_t> keys_;

  // Round scratch of select_power_red_subst, reused across the rounds.
  friend std::size_t select_power_red_subst(
      SelectionMemo&, std::vector<CandidateSub>*, const PowderOptions&,
      const std::function<bool(const CandidateSub&)>&, SelectionStats*);
  std::vector<std::size_t> order_;
  std::vector<double> metric_;
};

/// One selection round over `*cands` under `options`' objective, shortlist
/// and min_gain. Candidates whose validity is stale are re-checked with
/// `keep`; those it rejects are dropped (the callback does the caller's
/// accounting), tombstones left by take_pick() are dropped silently, and
/// the rest keep their order — one stable compaction pass. pg_a/pg_b of
/// the survivors are re-scored where `memo` says something they read
/// changed, pg_c where stale. Returns the index of the pick, or the
/// candidate count when nothing helps.
std::size_t select_power_red_subst(
    SelectionMemo& memo, std::vector<CandidateSub>* cands,
    const PowderOptions& options,
    const std::function<bool(const CandidateSub&)>& keep,
    SelectionStats* stats);

/// Moves the pick out of `*cands` in O(1), leaving a tombstone in its slot
/// that the next round's compaction drops, as if the pick had been erased.
/// Most picks fail the delay check or the proof, so erasing each one would
/// shift the whole list every round.
CandidateSub take_pick(std::vector<CandidateSub>* cands, std::size_t best);

}  // namespace powder
