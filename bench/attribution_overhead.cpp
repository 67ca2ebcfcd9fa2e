// Verifies the introspection plane's budget: with the progress stream and
// the power-attribution sink both null, their compiled-in probe sites may
// cost at most 2% of an unobserved optimize() run.
//
// Mirrors trace_overhead.cpp's first-principles bound (there is no build
// without the probes to diff against):
//
//   1. microbenchmark the disabled probe — two null-pointer branches, the
//      shape of every `if (prog != nullptr) ... if (attr != nullptr) ...`
//      site — through volatile pointers the compiler cannot fold away;
//   2. run optimize() with both sinks attached and count the events they
//      actually absorb (progress lines, ledger commits, delta-bus
//      notifications, plus one tick per harvested candidate), which
//      upper-bounds the disabled-path probe executions of the same run;
//   3. assert  probes * ns_per_probe * kSafetyFactor <= 2% of the
//      unobserved run's wall time.
//
// Emits BENCH_attribution.json and a summary on stdout; exits nonzero when
// the bound is violated. Registered as the ctest test
// `bench_attribution_overhead`.
//
// Knobs: POWDER_SUITE, POWDER_PATTERNS, POWDER_THREADS (bench_common.hpp).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "power/attribution.hpp"
#include "trace/progress.hpp"
#include "util/check.hpp"

using namespace powder;
using namespace powder::bench;

namespace {

double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The optimizer holds the sinks as member pointers it null-checks at each
/// probe site; volatile reproduces exactly that unfoldable branch pair.
volatile ProgressStream* g_null_progress = nullptr;
volatile PowerAttribution* g_null_attribution = nullptr;
volatile long long g_sink = 0;

double disabled_probe_ns(long long iters) {
  const double t0 = now_ns();
  for (long long i = 0; i < iters; ++i) {
    if (const_cast<ProgressStream*>(g_null_progress) != nullptr) g_sink += 1;
    if (const_cast<PowerAttribution*>(g_null_attribution) != nullptr)
      g_sink += 2;
    g_sink += i;  // keeps the loop itself from being elided
  }
  return (now_ns() - t0) / static_cast<double>(iters);
}

struct RunCost {
  double wall_ns = 0.0;
  long long events = 0;  // progress lines + ledger feeds + delta-bus + ticks
  int substitutions = 0;
};

RunCost run_once(Netlist circuit, const PowderOptions& base, bool observed) {
  RunCost cost;
  std::ostringstream progress_os;
  ProgressStream prog(&progress_os);
  PowerAttribution attr;

  PowderOptions opt = base;
  if (observed) {
    opt.trace.progress = &prog;
    opt.trace.attribution = &attr;
  }
  const double t0 = now_ns();
  const PowderReport report = optimize(circuit, opt);
  cost.wall_ns = now_ns() - t0;
  // Every progress line, ledger commit and delta notification was one
  // enabled probe firing; the per-candidate heartbeat ticks fire even when
  // no event is emitted, so count one per harvested candidate too.
  cost.events = prog.events_written() + attr.commits_recorded() +
                attr.rollbacks_recorded() + attr.deltas_observed() +
                report.candidates_harvested;
  cost.substitutions = report.substitutions_applied;
  return cost;
}

}  // namespace

int main() {
  const CellLibrary lib = CellLibrary::standard();
  const std::vector<std::string> suite = env_suite("quick");
  // Each probe site is one or two pointer null-checks — strictly less than
  // the microbenched pair; the factor pads for cache effects around the
  // cold branches.
  constexpr double kSafetyFactor = 3.0;
  constexpr double kBudgetPercent = 2.0;

  const double probe_ns = disabled_probe_ns(20'000'000);
  std::printf("disabled probe: %.3f ns\n", probe_ns);

  bool ok = true;
  std::ostringstream json;
  json.precision(17);
  json << "{\"powder_build_type\":\"" << bench::build_type()
       << "\",\"probe_ns\":" << probe_ns << ",\"budget_percent\":"
       << kBudgetPercent << ",\"safety_factor\":" << kSafetyFactor
       << ",\"circuits\":[";
  bool first = true;
  for (const std::string& name : suite) {
    const Netlist circuit = initial_circuit(name, lib);
    const PowderOptions opt = bench_options(circuit.num_inputs());

    // Warm-up plus best-of-3 keeps the denominator honest on noisy CI.
    (void)run_once(circuit, opt, /*observed=*/false);
    RunCost off = run_once(circuit, opt, /*observed=*/false);
    for (int i = 0; i < 2; ++i) {
      const RunCost again = run_once(circuit, opt, /*observed=*/false);
      if (again.wall_ns < off.wall_ns) off = again;
    }
    const RunCost on = run_once(circuit, opt, /*observed=*/true);
    POWDER_CHECK_MSG(on.substitutions == off.substitutions,
                     "introspection changed the optimization result on "
                         << name);

    const double est_overhead_ns =
        static_cast<double>(on.events) * probe_ns * kSafetyFactor;
    const double overhead_pct = 100.0 * est_overhead_ns / off.wall_ns;
    const double observed_pct = 100.0 * (on.wall_ns / off.wall_ns - 1.0);
    const bool pass = overhead_pct <= kBudgetPercent;
    ok = ok && pass;
    std::printf(
        "%-10s off %8.2f ms, on %8.2f ms (%+6.1f%%), %7lld events, "
        "est. off-mode overhead %.4f%%  [%s]\n",
        name.c_str(), off.wall_ns / 1e6, on.wall_ns / 1e6, observed_pct,
        on.events, overhead_pct, pass ? "ok" : "OVER BUDGET");

    if (!first) json << ",";
    first = false;
    json << "{\"name\":\"" << name << "\",\"off_ms\":" << off.wall_ns / 1e6
         << ",\"on_ms\":" << on.wall_ns / 1e6 << ",\"events\":" << on.events
         << ",\"est_overhead_percent\":" << overhead_pct
         << ",\"pass\":" << (pass ? "true" : "false") << "}";
  }
  json << "]}";

  std::ofstream out("BENCH_attribution.json");
  out << json.str() << "\n";
  std::printf("wrote BENCH_attribution.json\n");
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: estimated off-mode overhead exceeds %.1f%%\n",
                 kBudgetPercent);
    return 1;
  }
  return 0;
}
