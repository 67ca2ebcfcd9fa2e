// Glitch-aware optimization experiment (DESIGN.md §13): does driving the
// POWDER greedy loop with the event-driven timed power model produce
// circuits with lower glitch-inclusive power than optimizing the paper's
// zero-delay proxy?
//
// For each circuit: measure the timed estimate of the initial mapped
// netlist, optimize once per power model, then score BOTH results with the
// same timed estimate (identical stimulus and vector pairs, so the
// comparison is apples-to-apples). The bound asserted on every ctest pass:
// on at least one circuit the timed-optimized netlist must beat the
// zero-delay-optimized one on glitch-inclusive power, and no run may trip
// a signature guard. Emits BENCH_glitch.json in the working directory.
// Registered as the ctest test `bench_glitch` (label `glitch`).
//
// Knobs: POWDER_SUITE (default quick), POWDER_PATTERNS, POWDER_REPEAT,
// POWDER_OUTER, POWDER_THREADS, POWDER_GLITCH_PAIRS (default 64).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "power/glitch.hpp"

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
  PowderReport report;
  GlitchEstimate timed;  ///< scored on the optimized netlist
};

ModeRun run_mode(const Netlist& input, PowerModelKind kind,
                 const GlitchOptions& gopt) {
  ModeRun m;
  Netlist nl = input;
  PowderOptions opt = PowderOptions::builder()
                          .patterns(env_int("POWDER_PATTERNS", 1024))
                          .repeat(env_int("POWDER_REPEAT", 25))
                          .max_outer_iterations(env_int("POWDER_OUTER", 16))
                          .threads(env_int("POWDER_THREADS", 1))
                          .pi_probs(input_probs(input.num_inputs()))
                          .power_model(kind)
                          .glitch(gopt)
                          .build();
  const double t0 = now_ms();
  m.report = optimize(nl, opt);
  m.wall_ms = now_ms() - t0;
  m.timed = estimate_glitch_power(nl, gopt);
  return m;
}

}  // namespace

int main() {
  const CellLibrary lib = CellLibrary::standard();
  const auto suite = env_suite("quick");

  std::printf("=== Glitch-aware vs zero-delay optimization ===\n\n");
  std::printf("%-10s | %10s %8s | %10s %10s | %7s\n", "circuit", "initial",
              "glitch%", "0d-opt", "timed-opt", "delta%");

  std::ostringstream js;
  js << "{\"powder_build_type\":\"" << bench::build_type()
     << "\",\"circuits\":[";
  int wins = 0;
  bool guard_failed = false;
  bool first = true;
  for (const std::string& name : suite) {
    const Netlist input = initial_circuit(name, lib);
    GlitchOptions gopt;
    gopt.stimulus.prob = input_probs(input.num_inputs());
    gopt.num_vector_pairs = env_int("POWDER_GLITCH_PAIRS", 64);
    const GlitchEstimate before = estimate_glitch_power(input, gopt);

    const ModeRun zd = run_mode(input, PowerModelKind::kZeroDelay, gopt);
    const ModeRun td = run_mode(input, PowerModelKind::kTimed, gopt);
    guard_failed |= zd.report.diagnostics.guard_failed ||
                    td.report.diagnostics.guard_failed;
    // Delta of the timed-optimized result versus the zero-delay-optimized
    // one, both scored glitch-inclusively: positive = timed model won.
    const double delta =
        100.0 * (zd.timed.timed_power - td.timed.timed_power) /
        zd.timed.timed_power;
    if (td.timed.timed_power <= zd.timed.timed_power) ++wins;

    std::printf("%-10s | %10.2f %7.1f%% | %10.2f %10.2f | %+6.1f%%\n",
                name.c_str(), before.timed_power,
                100.0 * before.glitch_share(), zd.timed.timed_power,
                td.timed.timed_power, delta);
    std::fflush(stdout);

    if (!first) js << ",";
    first = false;
    js << "{\"name\":\"" << name << "\""
       << ",\"initial_timed_power\":" << before.timed_power
       << ",\"initial_glitch_share\":" << before.glitch_share()
       << ",\"zero_delay_opt\":{\"timed_power\":" << zd.timed.timed_power
       << ",\"glitch_share\":" << zd.timed.glitch_share()
       << ",\"applied\":" << zd.report.substitutions_applied
       << ",\"wall_ms\":" << zd.wall_ms << "}"
       << ",\"timed_opt\":{\"timed_power\":" << td.timed.timed_power
       << ",\"glitch_share\":" << td.timed.glitch_share()
       << ",\"applied\":" << td.report.substitutions_applied
       << ",\"timed_resims\":"
       << td.report.diagnostics.power_model.timed_resims
       << ",\"event_overflows\":"
       << td.report.diagnostics.power_model.event_overflows
       << ",\"wall_ms\":" << td.wall_ms << "}"
       << ",\"timed_vs_zero_delay_delta_pct\":" << delta << "}";
  }
  js << "],\"wins\":" << wins << ",\"guard_failed\":"
     << (guard_failed ? "true" : "false") << "}\n";
  std::ofstream("BENCH_glitch.json") << js.str();
  std::printf("\nwrote BENCH_glitch.json (%d/%zu circuits where the timed "
              "model matched or beat the zero-delay proxy)\n",
              wins, suite.size());

  if (guard_failed) {
    std::fprintf(stderr, "FAIL: a signature guard failed\n");
    return 1;
  }
  if (wins < 1) {
    std::fprintf(stderr,
                 "FAIL: the timed model never beat the zero-delay proxy on "
                 "glitch-inclusive power\n");
    return 1;
  }
  return 0;
}
