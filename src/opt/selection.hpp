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
// Most picks fail the delay check or the proof and leave the netlist as it
// was, so the next round sees the same epoch and the same metrics. Such a
// round costs O(n) and moves no candidate: the memo keeps the previous
// round's survivors (their list positions and metrics, in list order),
// take_pick() drops the pick from them and leaves a tombstone in the list,
// and the round ranks what is left with prefix_sort, which puts the top k
// exactly where std::sort would. Only a round at a new epoch — which
// re-checks validity anyway — compacts the list and drops the tombstones
// (DESIGN.md §6.1).

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
  /// The candidates of `cands` that are not tombstones: O(1) for a list
  /// this memo ranked last, a count otherwise.
  std::size_t live(const std::vector<CandidateSub>& cands) const;

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

  // The list select_power_red_subst ranked last (at epoch_): which list,
  // its buffer and size; its live candidates (list positions and metrics,
  // in list order); the round's pick. A round at the same epoch over a
  // list the memo left as it was — apart from take_pick()'s tombstone —
  // ranks `live_` again without a pass over the list.
  friend std::size_t select_power_red_subst(
      SelectionMemo&, std::vector<CandidateSub>*, const PowderOptions&,
      const std::function<bool(const CandidateSub&)>&, SelectionStats*);
  friend CandidateSub take_pick(SelectionMemo&, std::vector<CandidateSub>*,
                                std::size_t);
  static constexpr std::size_t kNoPick = ~std::size_t{0};
  struct RankKey {
    double metric;
    std::uint32_t live;  ///< position in live_
  };
  bool left_as_is(const std::vector<CandidateSub>& cands) const {
    return list_ == &cands && list_data_ == cands.data() &&
           list_size_ == cands.size();
  }
  const std::vector<CandidateSub>* list_ = nullptr;
  const CandidateSub* list_data_ = nullptr;
  std::size_t list_size_ = 0;
  std::vector<std::uint32_t> live_;
  std::vector<double> live_metric_;
  std::size_t pick_live_ = kNoPick;  ///< live_ position of the last pick
  std::vector<RankKey> ranked_;
};

/// One selection round over `*cands` under `options`' objective, shortlist
/// and min_gain. At a new epoch, candidates whose validity is stale are
/// re-checked with `keep`; those it rejects are dropped (the callback does
/// the caller's accounting), tombstones are dropped silently, and the rest
/// keep their order — one stable compaction pass. pg_a/pg_b of the
/// survivors are re-scored where `memo` says something they read changed,
/// pg_c where stale. At an unchanged epoch over a list `memo` left as it was
/// (take_pick() aside), the list is neither moved nor re-read: its live
/// candidates keep their metrics, and tombstones may stay in it. Returns the
/// index of the pick in `*cands`, or `cands->size()` when nothing helps.
///
/// Between rounds the list may change only by take_pick() or by a change of
/// its size (an erased pick); either way the next round is exact.
std::size_t select_power_red_subst(
    SelectionMemo& memo, std::vector<CandidateSub>* cands,
    const PowderOptions& options,
    const std::function<bool(const CandidateSub&)>& keep,
    SelectionStats* stats);

/// Moves the pick out of `*cands` in O(1), leaving a tombstone
/// (`target == kNullGate`) in its slot, as if the pick had been erased. Most
/// picks fail the delay check or the proof, so erasing each one would shift
/// the whole list every round.
CandidateSub take_pick(SelectionMemo& memo, std::vector<CandidateSub>* cands,
                       std::size_t best);

}  // namespace powder
