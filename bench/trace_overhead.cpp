// Verifies the observability plane's headline budget: with every sink
// null, the compiled-in instrumentation may cost at most 2% of an
// untraced optimize() run.
//
// There is no uninstrumented build to diff against, so the bound is
// established from first principles:
//
//   1. microbenchmark the disabled probe — a TraceSpan over a null
//      session plus two arg() calls — through a volatile pointer the
//      compiler cannot constant-fold, giving ns per disabled probe;
//   2. run optimize() with all sinks attached and count how many events
//      the run actually emits (trace events + audit records), which upper-
//      bounds how many probes the same run executes when disabled;
//   3. assert  probes * ns_per_probe * kSafetyFactor <= 2% of the
//      untraced run's wall time.
//
// Emits BENCH_trace.json and a summary on stdout; exits nonzero when the
// bound is violated. Registered as the ctest test `bench_trace_overhead`.
//
// Knobs: POWDER_SUITE, POWDER_PATTERNS, POWDER_THREADS (bench_common.hpp).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/check.hpp"

using namespace powder;
using namespace powder::bench;

namespace {

double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The compiler must believe the session might be non-null, exactly like
/// the optimizer's member pointers, so the probe is read through volatile.
volatile TraceSession* g_null_session = nullptr;
volatile long long g_sink = 0;

double disabled_probe_ns(long long iters) {
  const double t0 = now_ns();
  for (long long i = 0; i < iters; ++i) {
    TraceSpan span(const_cast<TraceSession*>(g_null_session), "probe",
                   "bench");
    span.arg("a", i);
    span.arg("b", i + 1);
    g_sink += i;  // keeps the loop itself from being elided
  }
  return (now_ns() - t0) / static_cast<double>(iters);
}

struct RunCost {
  double wall_ns = 0.0;
  std::uint64_t events = 0;  // trace events + audit records
  int substitutions = 0;
};

RunCost run_once(Netlist circuit, const PowderOptions& base, bool traced) {
  RunCost cost;
  TraceSession trace;
  MetricsRegistry metrics;
  std::ostringstream audit_os;
  AuditLog audit(&audit_os);

  PowderOptions opt = base;
  if (traced) {
    opt.trace.trace = &trace;
    opt.trace.metrics = &metrics;
    opt.trace.audit = &audit;
  }
  const double t0 = now_ns();
  const PowderReport report = optimize(circuit, opt);
  cost.wall_ns = now_ns() - t0;
  cost.events = trace.events_recorded() + trace.dropped() +
                static_cast<std::uint64_t>(audit.records());
  cost.substitutions = report.substitutions_applied;
  return cost;
}

}  // namespace

int main() {
  const CellLibrary lib = CellLibrary::standard();
  const std::vector<std::string> suite = env_suite("quick");
  // Every probe site does strictly less disabled work than the
  // microbenched span+2 args; the factor still pads the estimate for
  // metric-handle branches that fire without emitting an event.
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
    (void)run_once(circuit, opt, /*traced=*/false);
    RunCost off = run_once(circuit, opt, /*traced=*/false);
    for (int i = 0; i < 2; ++i) {
      const RunCost again = run_once(circuit, opt, /*traced=*/false);
      if (again.wall_ns < off.wall_ns) off = again;
    }
    const RunCost on = run_once(circuit, opt, /*traced=*/true);
    POWDER_CHECK_MSG(on.substitutions == off.substitutions,
                     "tracing changed the optimization result on " << name);

    const double est_overhead_ns =
        static_cast<double>(on.events) * probe_ns * kSafetyFactor;
    const double overhead_pct = 100.0 * est_overhead_ns / off.wall_ns;
    const double traced_pct = 100.0 * (on.wall_ns / off.wall_ns - 1.0);
    const bool pass = overhead_pct <= kBudgetPercent;
    ok = ok && pass;
    std::printf(
        "%-10s off %8.2f ms, on %8.2f ms (%+6.1f%%), %7llu events, "
        "est. off-mode overhead %.4f%%  [%s]\n",
        name.c_str(), off.wall_ns / 1e6, on.wall_ns / 1e6, traced_pct,
        static_cast<unsigned long long>(on.events), overhead_pct,
        pass ? "ok" : "OVER BUDGET");

    if (!first) json << ",";
    first = false;
    json << "{\"name\":\"" << name << "\",\"off_ms\":" << off.wall_ns / 1e6
         << ",\"on_ms\":" << on.wall_ns / 1e6 << ",\"events\":" << on.events
         << ",\"est_overhead_percent\":" << overhead_pct
         << ",\"pass\":" << (pass ? "true" : "false") << "}";
  }
  json << "]}";

  std::ofstream out("BENCH_trace.json");
  out << json.str() << "\n";
  std::printf("wrote BENCH_trace.json\n");
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: estimated off-mode overhead exceeds %.1f%%\n",
                 kBudgetPercent);
    return 1;
  }
  return 0;
}
