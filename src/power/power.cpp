#include "power/power.hpp"

#include <span>

#include <algorithm>
#include <cmath>

#include "bdd/netlist_bdd.hpp"
#include "util/check.hpp"

namespace powder {

PowerEstimator::PowerEstimator(Simulator* simulator) : sim_(simulator) {
  POWDER_CHECK(sim_ != nullptr);
  estimate_all();
}

void PowerEstimator::refresh_gate(GateId g) {
  const double p = sim_->signal_prob(g);
  prob_[g] = p;
  activity_[g] = 2.0 * p * (1.0 - p);
}

void PowerEstimator::estimate_all() {
  changes_.mark_full();
  const Netlist& nl = sim_->netlist();
  prob_.assign(nl.num_slots(), 0.0);
  activity_.assign(nl.num_slots(), 0.0);
  for (GateId g = 0; g < nl.num_slots(); ++g)
    if (nl.alive(g) && nl.kind(g) != GateKind::kOutput) refresh_gate(g);
  refresh_all_terms();
}

void PowerEstimator::refresh_term(GateId g) {
  const Netlist& nl = sim_->netlist();
  term_[g] = nl.alive(g) && nl.kind(g) != GateKind::kOutput
                 ? signal_power(g)
                 : 0.0;
}

void PowerEstimator::refresh_all_terms() {
  const Netlist& nl = sim_->netlist();
  term_.assign(nl.num_slots(), 0.0);
  for (GateId g = 0; g < nl.num_slots(); ++g) refresh_term(g);
  terms_epoch_ = nl.epoch();
  std::lock_guard<std::mutex> lock(total_mutex_);
  total_stale_ = true;
}

void PowerEstimator::refresh() {
  const Netlist& nl = sim_->netlist();
  const Simulator::RefreshResult r = sim_->refresh();
  if (r.full) {
    estimate_all();
    return;
  }
  prob_.ensure(nl.num_slots());
  activity_.ensure(nl.num_slots());
  for (GateId g : r.gates)
    if (nl.alive(g) && nl.kind(g) != GateKind::kOutput) refresh_gate(g);
  changes_.record(r.changed);
  if (terms_epoch_ == nl.epoch() && r.gates.empty()) return;

  // The gates whose load a delta changed: both drivers of a rewired pin,
  // the fanins of an added, removed, revived or resized gate, and the
  // subject of every structural delta (added, removed or revived).
  const std::optional<std::vector<NetlistDelta>> deltas =
      nl.deltas_since(terms_epoch_);
  if (!deltas.has_value()) {
    refresh_all_terms();
    return;
  }
  term_.resize(nl.num_slots(), 0.0);
  for (const NetlistDelta& d : *deltas) {
    switch (d.kind) {
      case DeltaKind::kFaninChanged:
        refresh_term(d.old_driver);
        refresh_term(d.new_driver);
        break;
      case DeltaKind::kCellChanged:
        if (nl.alive(d.gate))
          for (const GateId fi : nl.fanins(d.gate)) refresh_term(fi);
        break;
      case DeltaKind::kGateAdded:
      case DeltaKind::kGateRemoved:
      case DeltaKind::kGateRevived:
        refresh_term(d.gate);
        for (const GateId fi : d.fanins) refresh_term(fi);
        break;
      case DeltaKind::kRebuilt:
        refresh_all_terms();
        return;
    }
  }
  for (const GateId g : r.gates) refresh_term(g);
  terms_epoch_ = nl.epoch();
  std::lock_guard<std::mutex> lock(total_mutex_);
  total_stale_ = true;
}

double PowerEstimator::signal_power(GateId g) const {
  const Netlist& nl = sim_->netlist();
  return nl.signal_cap(g) * activity_[g];
}

double PowerEstimator::total_power() const {
  POWDER_CHECK_MSG(terms_epoch_ == sim_->netlist().epoch(),
                   "total_power() on a model that needs refresh()");
  std::lock_guard<std::mutex> lock(total_mutex_);
  if (total_stale_) {
    double total = 0.0;
    for (const double t : term_) total += t;
    total_ = total;
    total_stale_ = false;
  }
  return total_;
}

std::vector<double> propagate_signal_probs(
    const Netlist& netlist, const std::vector<double>& pi_probs) {
  POWDER_CHECK(static_cast<int>(pi_probs.size()) == netlist.num_inputs());
  std::vector<double> p(netlist.num_slots(), 0.0);
  for (int i = 0; i < netlist.num_inputs(); ++i)
    p[netlist.inputs()[static_cast<std::size_t>(i)]] =
        pi_probs[static_cast<std::size_t>(i)];
  for (GateId g : netlist.topo_order()) {
    if (netlist.kind(g) == GateKind::kInput) continue;
    if (netlist.kind(g) == GateKind::kOutput) {
      p[g] = p[netlist.fanin(g, 0)];
      continue;
    }
    const std::span<const GateId> fanins = netlist.fanins(g);
    const TruthTable& f = netlist.cell_of(g).function;
    const int k = f.num_vars();
    double out = 0.0;
    for (std::uint64_t m = 0; m < (1ull << k); ++m) {
      if (!f.bit(m)) continue;
      double pm = 1.0;
      for (int v = 0; v < k; ++v) {
        const double pv = p[fanins[static_cast<std::size_t>(v)]];
        pm *= ((m >> v) & 1) ? pv : (1.0 - pv);
      }
      out += pm;
    }
    p[g] = out;
  }
  return p;
}

std::vector<double> exact_signal_probs(const Netlist& netlist,
                                       const std::vector<double>& pi_probs) {
  POWDER_CHECK(static_cast<int>(pi_probs.size()) == netlist.num_inputs());
  NetlistBdds bdds(netlist);
  std::vector<double> p(netlist.num_slots(), 0.0);
  for (GateId g = 0; g < netlist.num_slots(); ++g)
    if (netlist.alive(g))
      p[g] = bdds.manager.probability(bdds.gate_function[g], pi_probs);
  return p;
}

double switched_capacitance(const Netlist& netlist,
                            const std::vector<double>& probs) {
  double total = 0.0;
  for (GateId g = 0; g < netlist.num_slots(); ++g) {
    if (!netlist.alive(g) || netlist.kind(g) == GateKind::kOutput) continue;
    const double p = probs[g];
    total += netlist.signal_cap(g) * 2.0 * p * (1.0 - p);
  }
  return total;
}

std::vector<double> sequential_signal_probs(
    const Netlist& netlist, const std::vector<double>& primary_pi_probs,
    int max_iterations, double damping, double tolerance) {
  // Position of each input gate inside inputs(), and which positions are
  // latch Q pseudo-PIs (paired with their D sample gate).
  const std::vector<GateId>& ins = netlist.inputs();
  std::vector<double> pi(ins.size(), 0.5);
  std::vector<std::size_t> latch_pos(netlist.latches().size(), 0);
  std::vector<std::uint8_t> is_latch(ins.size(), 0);
  for (std::size_t li = 0; li < netlist.latches().size(); ++li) {
    const Latch& l = netlist.latches()[li];
    for (std::size_t i = 0; i < ins.size(); ++i)
      if (ins[i] == l.output) {
        latch_pos[li] = i;
        is_latch[i] = 1;
      }
    const int init = l.init;
    pi[latch_pos[li]] = init == 0 ? 0.0 : init == 1 ? 1.0 : 0.5;
  }
  std::size_t next_primary = 0;
  for (std::size_t i = 0; i < ins.size(); ++i) {
    if (is_latch[i]) continue;
    if (next_primary < primary_pi_probs.size())
      pi[i] = primary_pi_probs[next_primary];
    ++next_primary;
  }
  POWDER_CHECK_MSG(primary_pi_probs.empty() ||
                       primary_pi_probs.size() == next_primary,
                   "pi_probs must cover the non-latch primary inputs");

  std::vector<double> p = propagate_signal_probs(netlist, pi);
  for (int iter = 0; iter < max_iterations; ++iter) {
    double worst = 0.0;
    for (std::size_t li = 0; li < netlist.latches().size(); ++li) {
      const Latch& l = netlist.latches()[li];
      const double target = p[l.input];  // PO gate mirrors its D driver
      const double cur = pi[latch_pos[li]];
      const double next = cur + damping * (target - cur);
      worst = std::max(worst, std::abs(next - cur));
      pi[latch_pos[li]] = next;
    }
    p = propagate_signal_probs(netlist, pi);
    if (worst < tolerance) break;
  }
  return p;
}

std::vector<double> expand_pi_probs(const Netlist& netlist,
                                    const std::vector<double>& user_probs) {
  if (netlist.num_latches() == 0) return user_probs;
  const std::vector<double> p =
      sequential_signal_probs(netlist, user_probs);
  std::vector<double> full;
  full.reserve(netlist.inputs().size());
  std::size_t next_primary = 0;
  for (const GateId g : netlist.inputs()) {
    if (netlist.is_latch_output(g)) {
      full.push_back(p[g]);
    } else if (next_primary < user_probs.size()) {
      full.push_back(user_probs[next_primary++]);
    } else {
      full.push_back(0.5);
    }
  }
  return full;
}

}  // namespace powder
