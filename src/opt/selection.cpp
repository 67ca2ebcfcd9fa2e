#include "opt/selection.hpp"

#include <algorithm>
#include <array>

#include "opt/power_gain.hpp"
#include "opt/substitution.hpp"
#include "trace/trace.hpp"

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

std::size_t select_power_red_subst(
    SelectionMemo& memo, std::vector<CandidateSub>* cands,
    const PowderOptions& options,
    const std::function<bool(const CandidateSub&)>& keep,
    SelectionStats* stats) {
  const Netlist& netlist = memo.netlist();
  const PowerModel& model = memo.model();
  const std::uint64_t epoch = netlist.epoch();
  const bool area_mode = options.objective == Objective::kArea;
  memo.begin_round();
  ++stats->rounds;
  std::vector<std::size_t>& order = memo.order_;
  std::vector<double>& metric = memo.metric_;
  order.clear();
  metric.resize(cands->size());
  // One stable compaction pass: the survivors move down over the dropped.
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
    metric[kept] = area_mode ? memo.area_gain(c) : c.preselect_gain();
    order.push_back(kept);
    if (kept != i) (*cands)[kept] = std::move(c);
    ++kept;
  }
  cands->erase(cands->begin() + static_cast<std::ptrdiff_t>(kept),
               cands->end());
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

CandidateSub take_pick(std::vector<CandidateSub>* cands, std::size_t best) {
  CandidateSub& slot = (*cands)[best];
  CandidateSub pick = std::move(slot);
  slot.target = kNullGate;
  return pick;
}

}  // namespace powder
