// Scale check (DESIGN.md §11.5): the global greedy loop on a large
// make_scale_netlist instance (default 10^5 gates) must finish, keep the
// signature guard intact, commit substitutions and lower the power.
//
// Emits BENCH_scale.json with the run's wall time, initial and final
// power, commits and harvest work, and exits nonzero when any of the four
// conditions fails. Registered as the ctest test `bench_scale` (label
// `scale`).
//
// Knobs: POWDER_SCALE_GATES (default 100000), POWDER_PATTERNS (default
// 256), POWDER_REPEAT and POWDER_OUTER (default: the PowderOptions
// defaults), POWDER_THREADS (default 1).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"

using namespace powder;
using namespace powder::bench;

int main() {
  const PowderOptions defaults;
  const int gates = env_int("POWDER_SCALE_GATES", 100'000);
  const int patterns = env_int("POWDER_PATTERNS", 256);
  const int repeat = env_int("POWDER_REPEAT", defaults.repeat);
  const int outer = env_int("POWDER_OUTER", defaults.max_outer_iterations);
  const int threads = env_int("POWDER_THREADS", 1);

  Netlist nl = make_scale_netlist(gates);
  std::printf("scale netlist: %d gates, %d PIs, %d POs\n", nl.num_cells(),
              nl.num_inputs(), nl.num_outputs());

  const PowderOptions opt = PowderOptions::builder()
                                .patterns(patterns)
                                .repeat(repeat)
                                .max_outer_iterations(outer)
                                .threads(threads)
                                .build();
  const auto t0 = std::chrono::steady_clock::now();
  const PowderReport r = optimize(nl, opt);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  const auto& resub = r.diagnostics.resub;
  std::printf(
      "global: wall %.2f s, power %.2f -> %.2f, %d commit(s) in %d "
      "iteration(s), %ld of %ld site(s) matched\n",
      wall_s, r.initial_power, r.final_power, r.substitutions_applied,
      r.outer_iterations, resub.harvest_sites_matched, resub.harvest_sites);

  bool ok = true;
  if (r.diagnostics.guard_failed) {
    std::fprintf(stderr, "FAIL: the signature guard failed\n");
    ok = false;
  }
  if (r.substitutions_applied <= 0) {
    std::fprintf(stderr, "FAIL: no substitution committed\n");
    ok = false;
  }
  if (!(r.final_power < r.initial_power)) {
    std::fprintf(stderr, "FAIL: final power %.17g is not below %.17g\n",
                 r.final_power, r.initial_power);
    ok = false;
  }

  std::ostringstream json;
  json.precision(17);
  json << "{\"powder_build_type\":\"" << build_type()
       << "\",\"gates\":" << gates << ",\"patterns\":" << patterns
       << ",\"repeat\":" << repeat << ",\"max_outer_iterations\":" << outer
       << ",\"threads\":" << threads << ",\"wall_s\":" << wall_s
       << ",\"initial_power\":" << r.initial_power
       << ",\"final_power\":" << r.final_power
       << ",\"commits\":" << r.substitutions_applied
       << ",\"outer_iterations\":" << r.outer_iterations
       << ",\"harvest_sites\":" << resub.harvest_sites
       << ",\"harvest_sites_matched\":" << resub.harvest_sites_matched
       << ",\"guard_failed\":"
       << (r.diagnostics.guard_failed ? "true" : "false")
       << ",\"pass\":" << (ok ? "true" : "false") << "}";

  std::ofstream out("BENCH_scale.json");
  out << json.str() << "\n";
  std::printf("wrote BENCH_scale.json\n");
  return ok ? 0 : 1;
}
