#include "atpg/sat_checker.hpp"

#include <span>

#include <limits>
#include <unordered_map>

#include "atpg/regions.hpp"
#include "logic/cube.hpp"
#include "sat/solver.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace powder {

namespace {

/// CNF encoding of `z <-> f(inputs)` via onset/offset cube covers.
void encode_function(SatSolver* solver, const TruthTable& f,
                     const std::vector<SatLit>& inputs, SatLit z) {
  POWDER_CHECK(static_cast<int>(inputs.size()) == f.num_vars());
  const Cover onset = Cover::from_truth_table(f);
  const Cover offset = Cover::from_truth_table(~f);
  auto emit = [&](const Cover& cover, SatLit out) {
    for (const Cube& cube : cover.cubes()) {
      std::vector<SatLit> clause;
      for (int v = 0; v < cube.num_vars(); ++v) {
        if (cube.lit(v) == Lit::kDash) continue;
        // cube literal true means input v == (lit == kOne); the clause
        // needs the negation of the cube literal.
        const SatLit in = inputs[static_cast<std::size_t>(v)];
        clause.push_back(cube.lit(v) == Lit::kOne ? sat_not(in) : in);
      }
      clause.push_back(out);
      solver->add_clause(std::move(clause));
    }
  };
  emit(onset, z);            // onset cube satisfied -> z
  emit(offset, sat_not(z));  // offset cube satisfied -> !z
}

}  // namespace

SatChecker::SatChecker(const Netlist& netlist, SatCheckerOptions options)
    : netlist_(&netlist), options_(options) {
  if (options_.metrics != nullptr) {
    m_checks_ = options_.metrics->counter(
        "powder_proof_sat_checks_total", "SAT miter permissibility checks run");
    m_conflicts_ = options_.metrics->counter(
        "powder_proof_sat_conflicts_total",
        "SAT conflicts spent across all checks");
    h_check_ns_ = options_.metrics->histogram(
        "powder_proof_sat_check_duration_ns",
        "Wall time per SAT permissibility check");
  }
}

AtpgResult SatChecker::check_replacement(const ReplacementSite& site,
                                         const ReplacementFunction& rep,
                                         TestVector* test) {
  if (options_.trace == nullptr && m_checks_ == nullptr)
    return check_replacement_impl(site, rep, test);
  const std::uint64_t t0 = trace_now_ns();
  const long conflicts_before = stats_.total_conflicts;
  const AtpgResult r = check_replacement_impl(site, rep, test);
  const std::uint64_t dur = trace_now_ns() - t0;
  const long conflicts = stats_.total_conflicts - conflicts_before;
  if (m_checks_ != nullptr) {
    m_checks_->inc();
    m_conflicts_->inc(conflicts);
    h_check_ns_->observe(dur);
  }
  if (options_.trace != nullptr)
    options_.trace->record_span("sat_check", "proof", t0, dur, "result",
                                static_cast<long long>(r), "conflicts",
                                conflicts);
  return r;
}

AtpgResult SatChecker::check_replacement_impl(const ReplacementSite& site,
                                              const ReplacementFunction& rep,
                                              TestVector* test) {
  ++stats_.checks;
  if (inject_fault(FaultInjector::Site::kSatProof)) {
    ++stats_.aborted;
    return AtpgResult::kAborted;
  }
  ResourceBudget* budget = options_.budget;
  long conflict_limit = options_.conflict_budget;
  if (budget != nullptr) {
    if (budget->expired() || budget->sat_pool_dry()) {
      ++stats_.aborted;
      return AtpgResult::kAborted;
    }
    conflict_limit = budget->grant_sat_conflicts(
        conflict_limit < 0 ? std::numeric_limits<long>::max()
                           : conflict_limit);
  }
  const FaultRegions regions = compute_fault_regions(*netlist_, site, rep);

  SatSolver solver;
  const long conflicts_before = solver.num_conflicts();

  // Good-circuit variables for every relevant gate; faulty-circuit
  // variables only inside the faulty region.
  std::unordered_map<GateId, SatLit> good, faulty;
  for (GateId g : regions.relevant_topo)
    good[g] = sat_lit(solver.new_var(), false);
  for (GateId g : regions.relevant_topo)
    if (regions.in_faulty[g]) faulty[g] = sat_lit(solver.new_var(), false);

  // Replacement literal.
  SatLit rep_lit;
  switch (rep.kind) {
    case ReplacementFunction::Kind::kConstant: {
      rep_lit = sat_lit(solver.new_var(), false);
      solver.add_unit(rep.constant_value ? rep_lit : sat_not(rep_lit));
      break;
    }
    case ReplacementFunction::Kind::kSignal:
      rep_lit = rep.invert_b ? sat_not(good.at(rep.b)) : good.at(rep.b);
      break;
    case ReplacementFunction::Kind::kTwoInput: {
      rep_lit = sat_lit(solver.new_var(), false);
      const SatLit b =
          rep.invert_b ? sat_not(good.at(rep.b)) : good.at(rep.b);
      const SatLit c =
          rep.invert_c ? sat_not(good.at(rep.c)) : good.at(rep.c);
      encode_function(&solver, rep.two_input_fn, {b, c}, rep_lit);
      break;
    }
    case ReplacementFunction::Kind::kCell: {
      rep_lit = sat_lit(solver.new_var(), false);
      std::vector<SatLit> divs;
      divs.reserve(rep.divisors.size());
      for (const GateId d : rep.divisors) divs.push_back(good.at(d));
      encode_function(&solver, rep.two_input_fn, divs, rep_lit);
      break;
    }
  }

  // Gate semantics.
  for (GateId g : regions.relevant_topo) {
    const GateKind kind = netlist_->kind(g);
    if (kind == GateKind::kInput) continue;
    const std::span<const GateId> fanins = netlist_->fanins(g);

    // Good circuit.
    if (kind == GateKind::kOutput) {
      // g <-> fanin
      const SatLit a = good.at(g), b = good.at(fanins[0]);
      solver.add_binary(sat_not(a), b);
      solver.add_binary(a, sat_not(b));
    } else {
      std::vector<SatLit> ins;
      for (GateId fi : fanins) ins.push_back(good.at(fi));
      encode_function(&solver, netlist_->cell_of(g).function, ins, good.at(g));
    }

    if (!regions.in_faulty[g]) continue;

    // Faulty circuit: fanins read faulty values inside the region, good
    // values outside; the site pin (or the whole stem) reads rep_lit.
    auto faulty_in = [&](GateId fi, int pin) -> SatLit {
      if (site.branch.has_value() && site.branch->gate == g &&
          site.branch->pin == pin)
        return rep_lit;
      if (!site.branch.has_value() && fi == site.stem) return rep_lit;
      return regions.in_faulty[fi] ? faulty.at(fi) : good.at(fi);
    };
    if (kind == GateKind::kOutput) {
      const SatLit a = faulty.at(g);
      const SatLit b = faulty_in(fanins[0], 0);
      solver.add_binary(sat_not(a), b);
      solver.add_binary(a, sat_not(b));
    } else if (!site.branch.has_value() && g == site.stem) {
      // The stem itself carries the replacement value in the faulty
      // circuit.
      const SatLit a = faulty.at(g);
      solver.add_binary(sat_not(a), rep_lit);
      solver.add_binary(a, sat_not(rep_lit));
    } else {
      std::vector<SatLit> ins;
      for (int pin = 0; pin < static_cast<int>(fanins.size()); ++pin)
        ins.push_back(faulty_in(fanins[static_cast<std::size_t>(pin)], pin));
      encode_function(&solver, netlist_->cell_of(g).function, ins,
                      faulty.at(g));
    }
  }

  // Miter: at least one observable PO differs.
  std::vector<SatLit> any_diff;
  for (GateId o : regions.observable_pos) {
    const SatLit d = sat_lit(solver.new_var(), false);
    const SatLit a = good.at(o), b = faulty.at(o);
    // d <-> a xor b
    solver.add_ternary(sat_not(d), a, b);
    solver.add_ternary(sat_not(d), sat_not(a), sat_not(b));
    solver.add_ternary(d, sat_not(a), b);
    solver.add_ternary(d, a, sat_not(b));
    any_diff.push_back(d);
  }
  if (any_diff.empty()) {
    ++stats_.proved_untestable;
    return AtpgResult::kUntestable;  // nothing observable at all
  }
  solver.add_clause(std::move(any_diff));

  const SatResult result = solver.solve({}, conflict_limit);
  const long used = solver.num_conflicts() - conflicts_before;
  stats_.total_conflicts += used;
  if (budget != nullptr) budget->consume_sat_conflicts(used);
  switch (result) {
    case SatResult::kSat: {
      if (test != nullptr) {
        test->assign(static_cast<std::size_t>(netlist_->num_inputs()), false);
        for (int i = 0; i < netlist_->num_inputs(); ++i) {
          const GateId pi = netlist_->inputs()[static_cast<std::size_t>(i)];
          const auto it = good.find(pi);
          if (it != good.end())
            (*test)[static_cast<std::size_t>(i)] =
                solver.model_value(sat_var(it->second));
        }
      }
      ++stats_.tests_found;
      return AtpgResult::kTestFound;
    }
    case SatResult::kUnsat:
      ++stats_.proved_untestable;
      return AtpgResult::kUntestable;
    case SatResult::kUnknown:
      ++stats_.aborted;
      return AtpgResult::kAborted;
  }
  POWDER_CHECK(false);
}

AtpgResult prove_replacement(AtpgChecker& atpg, SatChecker& sat,
                             ProofEngine engine, const ReplacementSite& site,
                             const ReplacementFunction& rep) {
  try {
    if (inject_fault(FaultInjector::Site::kProofTransient))
      throw Error::proof_engine("injected proof-engine failure");
    switch (engine) {
      case ProofEngine::kPodem:
        return atpg.check_replacement(site, rep);
      case ProofEngine::kSat:
        return sat.check_replacement(site, rep);
      case ProofEngine::kHybrid: {
        const AtpgResult r = atpg.check_replacement(site, rep);
        if (r != AtpgResult::kAborted) return r;
        return sat.check_replacement(site, rep);
      }
    }
  } catch (const CheckError&) {
  }
  return AtpgResult::kAborted;
}

}  // namespace powder
