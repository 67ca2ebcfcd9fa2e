// Generalized-resubstitution experiment (DESIGN.md §12): on a
// make_scale_netlist instance, measure what the two extensions beyond the
// paper's OS2/IS2/OS3/IS3 classes buy:
//
//   * funcred — the functional-reduction pre-pass alone (greedy harvest
//     capped to zero) must strictly reduce the live gate count: every tile
//     of the scale generator plants a duplicate leaf (r1 computes exactly
//     a1), so merges > 0 is a property of the generator, not luck;
//   * k-resub — with max_divisors >= 3 the harvest must find and commit
//     OSK/ISK wins that the pair classes structurally cannot express
//     (a k-input gate replacing a deeper cone).
//
// Emits BENCH_resub.json and exits nonzero unless both hold and no
// signature guard tripped. Registered as the ctest test `bench_resub`
// (label `resub`).
//
// Knobs: POWDER_SCALE_GATES (default 20000), POWDER_PATTERNS (default
// 256), POWDER_REPEAT (default 4), POWDER_OUTER (default 1),
// POWDER_MAX_DIVISORS (default 3).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "opt/transform.hpp"

using namespace powder;
using namespace powder::bench;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ModeRun {
  double wall_ms = 0.0;
  int gates_before = 0;
  int gates_after = 0;
  PowderReport report;
};

ModeRun run_mode(const Netlist& input, const PowderOptions& opt) {
  ModeRun m;
  Netlist nl = input;
  m.gates_before = nl.num_cells();
  const double t0 = now_ms();
  m.report = optimize(nl, opt);
  m.wall_ms = now_ms() - t0;
  m.gates_after = nl.num_cells();
  return m;
}

long k_applied(const PowderReport& r) {
  return r.by_class[static_cast<std::size_t>(ResubClass::kOSK)].applied +
         r.by_class[static_cast<std::size_t>(ResubClass::kISK)].applied;
}

void json_mode(std::ostringstream& os, const char* key, const ModeRun& m) {
  os << "\"" << key << "\":{\"wall_ms\":" << m.wall_ms
     << ",\"gates_before\":" << m.gates_before
     << ",\"gates_after\":" << m.gates_after
     << ",\"power_before\":" << m.report.initial_power
     << ",\"power_after\":" << m.report.final_power
     << ",\"applied\":" << m.report.substitutions_applied
     << ",\"funcred_merges\":" << m.report.diagnostics.resub.funcred_merges
     << ",\"k_applied\":" << k_applied(m.report) << ",\"guard_failed\":"
     << (m.report.diagnostics.guard_failed ? "true" : "false") << "}";
}

}  // namespace

int main() {
  const int gates = env_int("POWDER_SCALE_GATES", 20'000);
  const int patterns = env_int("POWDER_PATTERNS", 256);
  const int max_divisors = env_int("POWDER_MAX_DIVISORS", 3);

  const Netlist input = make_scale_netlist(gates);
  std::printf("scale netlist: %d gates, %d PIs, %d POs\n", input.num_cells(),
              input.num_inputs(), input.num_outputs());

  auto base = [&]() {
    return PowderOptions::builder()
        .patterns(patterns)
        .repeat(env_int("POWDER_REPEAT", 4))
        .max_outer_iterations(env_int("POWDER_OUTER", 1))
        .threads(env_int("POWDER_THREADS", 1));
  };

  // Funcred in isolation: cap the greedy harvest to zero candidates so the
  // only edits are pre-pass merges; the live gate count must strictly drop.
  CandidateOptions funcred_only;
  funcred_only.max_candidates = 0;
  const ModeRun funcred_run =
      run_mode(input, base().candidates(funcred_only).funcred(true).build());
  std::printf("funcred:  %6.1f ms, %d -> %d gates, %lld merges\n",
              funcred_run.wall_ms, funcred_run.gates_before,
              funcred_run.gates_after,
              static_cast<long long>(
                  funcred_run.report.diagnostics.resub.funcred_merges));

  // Paper classes only (the baseline the extensions are measured against).
  const ModeRun pair_run = run_mode(input, base().build());
  std::printf("pairs:    %6.1f ms, %d -> %d gates, %d applied\n",
              pair_run.wall_ms, pair_run.gates_before, pair_run.gates_after,
              pair_run.report.substitutions_applied);

  // Full framework: funcred pre-pass plus OSK/ISK harvest.
  const ModeRun k_run = run_mode(
      input, base().funcred(true).max_divisors(max_divisors).build());
  std::printf(
      "k-resub:  %6.1f ms, %d -> %d gates, %d applied (%ld OSK/ISK)\n",
      k_run.wall_ms, k_run.gates_before, k_run.gates_after,
      k_run.report.substitutions_applied, k_applied(k_run.report));

  bool ok = true;
  if (funcred_run.report.diagnostics.resub.funcred_merges <= 0) {
    std::fprintf(stderr, "FAIL: funcred merged nothing on scale input\n");
    ok = false;
  }
  if (funcred_run.gates_after >= funcred_run.gates_before) {
    std::fprintf(stderr, "FAIL: funcred did not reduce live gates (%d -> %d)\n",
                 funcred_run.gates_before, funcred_run.gates_after);
    ok = false;
  }
  if (k_applied(k_run.report) < 1) {
    std::fprintf(stderr,
                 "FAIL: no OSK/ISK commit at max_divisors=%d — the k-harvest "
                 "found nothing the pair classes missed\n",
                 max_divisors);
    ok = false;
  }
  if (funcred_run.report.diagnostics.guard_failed ||
      pair_run.report.diagnostics.guard_failed ||
      k_run.report.diagnostics.guard_failed) {
    std::fprintf(stderr, "FAIL: a signature guard failed\n");
    ok = false;
  }

  std::ostringstream json;
  json.precision(17);
  json << "{\"powder_build_type\":\"" << bench::build_type()
       << "\",\"gates\":" << gates << ",\"patterns\":" << patterns
       << ",\"max_divisors\":" << max_divisors << ",";
  json_mode(json, "funcred_only", funcred_run);
  json << ",";
  json_mode(json, "pairs_only", pair_run);
  json << ",";
  json_mode(json, "k_resub", k_run);
  json << ",\"pass\":" << (ok ? "true" : "false") << "}";

  std::ofstream out("BENCH_resub.json");
  out << json.str() << "\n";
  std::printf("wrote BENCH_resub.json\n");
  return ok ? 0 : 1;
}
