#include "opt/selection.hpp"

#include <algorithm>
#include <array>

#include "opt/power_gain.hpp"
#include "opt/substitution.hpp"
#include "trace/trace.hpp"
#include "util/prefix_sort.hpp"

namespace powder {

SelectionMemo::SelectionMemo(const Netlist& netlist, const PowerModel& model)
    : netlist_(&netlist), model_(&model) {}

void SelectionMemo::mark(Read kind, GateId g) {
  if (g >= head_.size()) return;  // no candidate read it (or kNullGate)
  for (std::uint32_t e = head_[g]; e != kNone; e = entries_[e].next) {
    const Entry& entry = entries_[e];
    if ((entry.tag & kind) != 0 &&
        entry.tag >> kReadBits == (gen_[entry.slot] & kGenMask))
      dirty_round_[entry.slot] = round_;
  }
}

void SelectionMemo::begin_round() {
  const std::uint64_t epoch = netlist_->epoch();
  if (epoch == epoch_) return;
  ++round_;
  const ModelChanges changes = model_->drain_changes();
  std::optional<std::vector<NetlistDelta>> deltas;
  if (epoch_ != kNoEpoch && !changes.full)
    deltas = netlist_->deltas_since(epoch_);
  all_dirty_ = !deltas.has_value();
  if (!all_dirty_) {
    for (const NetlistDelta& d : *deltas) {
      switch (d.kind) {
        case DeltaKind::kFaninChanged:
          // The sink's fanin list and both drivers' fanout lists (and so
          // their signal_cap) changed; the old driver lost a fanout.
          mark(kStructure, d.gate);
          mark(kStructure, d.old_driver);
          mark(kLostFanout, d.old_driver);
          mark(kStructure, d.new_driver);
          break;
        case DeltaKind::kCellChanged:
          // The gate's pin caps: its own pin terms and its drivers' loads.
          mark(kStructure, d.gate);
          if (netlist_->alive(d.gate))
            for (const GateId fi : netlist_->fanins(d.gate))
              mark(kStructure, fi);
          break;
        case DeltaKind::kGateAdded:
        case DeltaKind::kGateRevived:
          // The fanins gained a fanout.
          mark(kStructure, d.gate);
          for (const GateId fi : d.fanins) mark(kStructure, fi);
          break;
        case DeltaKind::kGateRemoved:
          mark(kStructure, d.gate);
          mark(kLostFanout, d.gate);
          for (const GateId fi : d.fanins) {
            mark(kStructure, fi);
            mark(kLostFanout, fi);
          }
          break;
        case DeltaKind::kRebuilt:
          all_dirty_ = true;
          break;
      }
    }
    for (const GateId g : changes.gates) mark(kValue, g);
  }
  prev_epoch_ = epoch_;
  epoch_ = epoch;
}

bool SelectionMemo::unchanged(const CandidateSub& c) const {
  return !all_dirty_ && c.memo_slot < gen_.size() &&
         c.gains_epoch == prev_epoch_ && dirty_round_[c.memo_slot] != round_;
}

void SelectionMemo::rescore(CandidateSub* c, bool area) {
  reads_.cone.clear();
  reads_.boundary.clear();
  c->pg_a = compute_pg_a(*netlist_, *model_, *c, &reads_);
  c->pg_b = compute_pg_b(*netlist_, *model_, *c);
  c->gains_epoch = netlist_->epoch();
  c->pg_c_memo = false;
  if (c->memo_slot >= gen_.size()) {
    // Past the last slot a candidate stays untracked: re-scored each time.
    if (gen_.size() == kNoMemoSlot) return;
    c->memo_slot = static_cast<std::uint16_t>(gen_.size());
    gen_.push_back(0);
    dirty_round_.push_back(0);
    area_.push_back(0.0);
  }
  const std::uint16_t slot = c->memo_slot;
  area_[slot] = area ? compute_area_gain(*netlist_, *c) : 0.0;
  // A new generation retires the entries of the slot's previous reads.
  const auto gen = static_cast<std::uint16_t>((++gen_[slot] & kGenMask)
                                              << kReadBits);
  if (head_.size() < netlist_->num_slots())
    head_.resize(netlist_->num_slots(), kNone);
  // Each gate is recorded once, under the first role it appears in. The
  // replacement's sources count by their values only: the walk keeps them
  // out of the cone. Outside the cone a primary input counts not at all:
  // the walk never absorbs one, and its value is the frozen stimulus.
  keys_.clear();
  auto add = [&](GateId g, unsigned kinds) {
    keys_.push_back(std::uint64_t{g} << 32 | keys_.size() << kReadBits |
                    kinds);
  };
  for (const GateId g : reads_.cone) add(g, kStructure | kValue);
  std::array<GateId, 2> buf;
  for (const GateId s : replacement_sources(*c, buf))
    if (netlist_->kind(s) == GateKind::kCell) add(s, kValue);
  for (const GateId g : reads_.boundary)
    if (netlist_->kind(g) == GateKind::kCell) add(g, kLostFanout | kValue);
  std::sort(keys_.begin(), keys_.end());
  constexpr std::uint64_t kKinds = (1u << kReadBits) - 1;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    const auto g = static_cast<GateId>(keys_[i] >> 32);
    if (i > 0 && static_cast<GateId>(keys_[i - 1] >> 32) == g) continue;
    entries_.push_back(Entry{
        slot, static_cast<std::uint16_t>(gen | (keys_[i] & kKinds)),
        head_[g]});
    head_[g] = static_cast<std::uint32_t>(entries_.size() - 1);
  }
}

double SelectionMemo::area_gain(const CandidateSub& c) const {
  return c.memo_slot < area_.size() ? area_[c.memo_slot]
                                    : compute_area_gain(*netlist_, c);
}

std::size_t SelectionMemo::live(const std::vector<CandidateSub>& cands) const {
  if (left_as_is(cands)) return live_.size();
  return static_cast<std::size_t>(
      std::count_if(cands.begin(), cands.end(), [](const CandidateSub& c) {
        return c.target != kNullGate;
      }));
}

std::size_t select_power_red_subst(
    SelectionMemo& memo, std::vector<CandidateSub>* cands,
    const PowderOptions& options,
    const std::function<bool(const CandidateSub&)>& keep,
    SelectionStats* stats) {
  const Netlist& netlist = memo.netlist();
  const PowerModel& model = memo.model();
  const std::uint64_t epoch = netlist.epoch();
  const bool area_mode = options.objective == Objective::kArea;
  // A round at the epoch the memo last ranked this list at, over the list
  // as it left it, sees the same candidates with the same metrics: only
  // the pick take_pick() dropped from live_ is gone.
  const bool same = epoch == memo.epoch_ && memo.left_as_is(*cands);
  memo.begin_round();
  ++stats->rounds;
  std::vector<std::uint32_t>& live = memo.live_;
  std::vector<double>& metric = memo.live_metric_;
  if (!same) {
    // One stable compaction pass: the survivors move down over the dropped.
    live.clear();
    metric.clear();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < cands->size(); ++i) {
      CandidateSub& c = (*cands)[i];
      if (c.target == kNullGate) continue;  // a tombstone (take_pick)
      if (c.gains_epoch != epoch) {
        if (!keep(c)) continue;
        if (memo.unchanged(c)) {
          c.gains_epoch = epoch;
          c.pg_c_memo = false;
          ++stats->reused;
        } else {
          memo.rescore(&c, area_mode);
          ++stats->rescored;
        }
      }
      metric.push_back(area_mode ? memo.area_gain(c) : c.preselect_gain());
      live.push_back(static_cast<std::uint32_t>(kept));
      if (kept != i) (*cands)[kept] = std::move(c);
      ++kept;
    }
    cands->erase(cands->begin() + static_cast<std::ptrdiff_t>(kept),
                 cands->end());
    memo.list_ = cands;
    memo.list_data_ = cands->data();
    memo.list_size_ = cands->size();
  }
  memo.pick_live_ = SelectionMemo::kNoPick;
  std::size_t best = cands->size();
  if (live.empty()) return best;
  // The sort sees the keys in list order, as a std::sort over the compacted
  // list would, and its top k land where that sort puts them.
  std::vector<SelectionMemo::RankKey>& ranked = memo.ranked_;
  ranked.resize(live.size());
  for (std::size_t p = 0; p < live.size(); ++p)
    ranked[p] = {metric[p], static_cast<std::uint32_t>(p)};
  const std::size_t k =
      std::min(ranked.size(),
               area_mode ? std::size_t{1}
                         : static_cast<std::size_t>(options.shortlist));
  prefix_sort(ranked.begin(), ranked.end(), k,
              [](const SelectionMemo::RankKey& x,
                 const SelectionMemo::RankKey& y) {
                return x.metric > y.metric;
              });
  double best_gain = options.min_gain;
  if (area_mode) {
    // Area gain is exact — no shortlist re-estimation needed.
    if (ranked[0].metric > best_gain) {
      memo.pick_live_ = ranked[0].live;
      best = live[ranked[0].live];
    }
    return best;
  }
  // Traced only when some PG_C is computed: a round served from the memo
  // costs nothing worth a trace event.
  const long evaluations = stats->pgc_evaluations;
  const std::uint64_t t0 =
      options.trace.trace != nullptr ? trace_now_ns() : 0;
  for (std::size_t r = 0; r < k; ++r) {
    const std::size_t i = live[ranked[r].live];
    CandidateSub& c = (*cands)[i];
    if (c.pg_c_memo) {
      ++stats->pgc_memo_hits;
    } else {
      c.pg_c = compute_pg_c(netlist, model, c);
      c.pg_c_memo = true;
      ++stats->pgc_evaluations;
    }
    if (c.total_gain() > best_gain) {
      best_gain = c.total_gain();
      best = i;
      memo.pick_live_ = ranked[r].live;
    }
  }
  if (options.trace.trace != nullptr && stats->pgc_evaluations > evaluations)
    options.trace.trace->record_span("pg_c", "power", t0, trace_now_ns() - t0,
                                     "evaluations",
                                     stats->pgc_evaluations - evaluations);
  return best;
}

CandidateSub take_pick(SelectionMemo& memo, std::vector<CandidateSub>* cands,
                       std::size_t best) {
  const bool ranked_pick = memo.left_as_is(*cands) &&
                           memo.pick_live_ != SelectionMemo::kNoPick &&
                           memo.live_[memo.pick_live_] == best;
  CandidateSub& slot = (*cands)[best];
  CandidateSub pick = std::move(slot);
  slot.target = kNullGate;
  if (ranked_pick) {
    const auto at = static_cast<std::ptrdiff_t>(memo.pick_live_);
    memo.live_.erase(memo.live_.begin() + at);
    memo.live_metric_.erase(memo.live_metric_.begin() + at);
  } else {
    memo.list_ = nullptr;  // not the round's pick: the next round compacts
  }
  memo.pick_live_ = SelectionMemo::kNoPick;
  return pick;
}

}  // namespace powder
