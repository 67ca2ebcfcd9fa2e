// Verifies the crash-safety plane's headline budget: with checkpointing,
// resume, and memory limits all DISABLED (the default), the session
// machinery threaded through the optimizer may cost at most 1% of a run.
//
// As with trace_overhead, there is no un-instrumented build to diff
// against, so the bound is established from first principles:
//
//   1. microbenchmark the disabled probes through volatile pointers the
//      compiler cannot constant-fold away:
//        - DegradationLadder::evaluate with no deadline/limit configured
//          (the stop_requested() hot path),
//        - SessionRecorder::record_commit on a recorder that was never
//          opened (the commit-path no-op),
//        - SessionResume::matches on an empty cursor (the proof-stage
//          check);
//   2. run optimize() un-checkpointed and bound how often each probe fires
//      from the report: evaluate once per iteration + once per commit
//      attempt (<= candidates harvested), record_commit/matches once per
//      considered candidate (<= harvested);
//   3. assert  sum(probe_count * ns) * kSafetyFactor <= 1% of wall time.
//
// Emits BENCH_recovery.json; exits nonzero when the bound is violated.
// Registered as the ctest test `bench_recovery_overhead`.
//
// Knobs: POWDER_SUITE, POWDER_PATTERNS, POWDER_THREADS (bench_common.hpp).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "session/checkpoint.hpp"
#include "session/degradation.hpp"
#include "util/budget.hpp"
#include "util/check.hpp"

using namespace powder;
using namespace powder::bench;

namespace {

double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

volatile long long g_sink = 0;

/// ns per disabled DegradationLadder::evaluate — the probe the inner loop
/// hits on every stop_requested() call.
double ladder_probe_ns(long long iters) {
  SessionOptions session;  // no mem limit
  DegradationLadder ladder(session, /*deadline_seconds=*/-1.0,
                           ProofEngine::kHybrid, nullptr, nullptr);
  ResourceBudget budget;  // unlimited
  const double t0 = now_ns();
  for (long long i = 0; i < iters; ++i) {
    g_sink = g_sink + static_cast<long long>(ladder.evaluate(budget));
  }
  return (now_ns() - t0) / static_cast<double>(iters);
}

/// ns per disabled SessionRecorder::record_commit + SessionResume::matches
/// — the probes on the commit and proof paths.
double recorder_probe_ns(long long iters) {
  SessionRecorder recorder(nullptr, nullptr);  // never opened: disabled
  SessionResume resume;                        // never loaded: inactive
  const CandidateSub cand;
  const AppliedSub applied;
  const double t0 = now_ns();
  for (long long i = 0; i < iters; ++i) {
    recorder.record_commit(1, 1, cand, applied);
    g_sink = g_sink + (resume.matches(cand) ? 1 : 0);
    g_sink = g_sink + (resume.active() ? 1 : 0);
  }
  return (now_ns() - t0) / static_cast<double>(iters);
}

}  // namespace

int main() {
  const CellLibrary lib = CellLibrary::standard();
  const std::vector<std::string> suite = env_suite("quick");
  constexpr double kSafetyFactor = 3.0;
  constexpr double kBudgetPercent = 1.0;

  const double ladder_ns = ladder_probe_ns(20'000'000);
  const double recorder_ns = recorder_probe_ns(20'000'000);
  std::printf("disabled probes: ladder %.3f ns, recorder+resume %.3f ns\n",
              ladder_ns, recorder_ns);

  bool ok = true;
  std::ostringstream json;
  json.precision(17);
  json << "{\"powder_build_type\":\"" << bench::build_type()
       << "\",\"ladder_probe_ns\":" << ladder_ns
       << ",\"recorder_probe_ns\":" << recorder_ns
       << ",\"budget_percent\":" << kBudgetPercent
       << ",\"safety_factor\":" << kSafetyFactor << ",\"circuits\":[";
  bool first = true;
  for (const std::string& name : suite) {
    const Netlist circuit = initial_circuit(name, lib);
    const PowderOptions opt = bench_options(circuit.num_inputs());

    // Warm-up plus best-of-3 keeps the denominator honest on noisy CI.
    auto run_once = [&]() {
      Netlist nl = circuit;
      const double t0 = now_ns();
      const PowderReport r = optimize(nl, opt);
      return std::pair<double, PowderReport>(now_ns() - t0, r);
    };
    (void)run_once();
    auto [wall_ns, report] = run_once();
    for (int i = 0; i < 2; ++i) {
      const auto again = run_once();
      if (again.first < wall_ns) wall_ns = again.first;
    }

    // Probe-count upper bounds from the run's own report: evaluate fires
    // once per outer iteration plus once per inner commit attempt; the
    // recorder/resume probes fire at most once per considered candidate.
    const double evaluates =
        static_cast<double>(report.outer_iterations) +
        static_cast<double>(report.candidates_harvested);
    const double commits = static_cast<double>(report.candidates_harvested);
    const double est_overhead_ns =
        (evaluates * ladder_ns + commits * recorder_ns) * kSafetyFactor;
    const double overhead_pct = 100.0 * est_overhead_ns / wall_ns;
    const bool pass = overhead_pct <= kBudgetPercent;
    ok = ok && pass;
    std::printf(
        "%-10s wall %8.2f ms, %6d candidates, %3d iterations, "
        "est. disabled-session overhead %.4f%%  [%s]\n",
        name.c_str(), wall_ns / 1e6, report.candidates_harvested,
        report.outer_iterations, overhead_pct, pass ? "ok" : "OVER BUDGET");

    if (!first) json << ",";
    first = false;
    json << "{\"name\":\"" << name << "\",\"wall_ms\":" << wall_ns / 1e6
         << ",\"candidates\":" << report.candidates_harvested
         << ",\"iterations\":" << report.outer_iterations
         << ",\"est_overhead_percent\":" << overhead_pct
         << ",\"pass\":" << (pass ? "true" : "false") << "}";
  }
  json << "]}";

  std::ofstream out("BENCH_recovery.json");
  out << json.str() << "\n";
  std::printf("wrote BENCH_recovery.json\n");
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: estimated disabled-session overhead exceeds %.1f%%\n",
                 kBudgetPercent);
    return 1;
  }
  return 0;
}
