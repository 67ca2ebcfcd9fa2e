// Scaling experiment for windowed mode (DESIGN.md §11): on a large
// make_scale_netlist instance (default 10^5 gates), compare the
// per-candidate work of global mode against windowed mode.
//
// The work model follows where the optimizer actually spends its time per
// candidate it settles:
//
//   * proof region — a proof engine (PODEM implications, SAT miter) and
//     the signature guard operate on the whole netlist it was constructed
//     over: the live gate count in global mode, the mean extracted window
//     size in windowed mode;
//   * signature words touched — region gates times the packed words per
//     gate (patterns / 64);
//   * candidates scanned per commit — the selection loop re-validates and
//     re-ranks every surviving harvest candidate before each commit:
//     harvested / applied in either mode.
//
// Emits BENCH_scale.json and exits nonzero unless windowed mode reduces
// the combined per-candidate work by at least kMinWorkRatio (5x) while
// still committing substitutions with the signature guard intact.
// Registered as the ctest test `bench_scale` (label `scale`).
//
// Knobs: POWDER_SCALE_GATES (default 100000), POWDER_PATTERNS (default
// 256), POWDER_REPEAT (default 4), POWDER_OUTER (default 1),
// POWDER_WINDOW_SIZE (default 512), POWDER_WINDOW_OVERLAP (default 64).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "util/check.hpp"

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
  double region_gates = 0.0;       ///< mean proof/signature region
  double sig_words = 0.0;          ///< region * words per gate
  double cands_per_commit = 0.0;   ///< harvested / applied
  double work_per_candidate = 0.0; ///< region * (1 + words) + scan share
  PowderReport report;
};

ModeRun run_mode(const Netlist& input, const PowderOptions& opt,
                 int patterns) {
  ModeRun m;
  Netlist nl = input;
  const double live_gates = static_cast<double>(nl.num_cells());
  const double t0 = now_ms();
  m.report = optimize(nl, opt);
  m.wall_ms = now_ms() - t0;

  const auto& w = m.report.diagnostics.windowing;
  m.region_gates = w.windows_built > 0
                       ? static_cast<double>(w.window_gates_total) /
                             static_cast<double>(w.windows_built)
                       : live_gates;
  const double words = static_cast<double>((patterns + 63) / 64);
  m.sig_words = m.region_gates * words;
  const double applied =
      std::max(1, m.report.substitutions_applied +
                      m.report.diagnostics.guard_rollbacks);
  m.cands_per_commit =
      static_cast<double>(m.report.candidates_harvested) / applied;
  m.work_per_candidate =
      m.region_gates * (1.0 + words) + m.cands_per_commit;
  return m;
}

void print_mode(const char* name, const ModeRun& m) {
  std::printf(
      "%-8s wall %9.1f ms, region %9.1f gates, %10.1f sig words, "
      "%8.1f candidates/commit, work/cand %12.1f  (%d commits)\n",
      name, m.wall_ms, m.region_gates, m.sig_words, m.cands_per_commit,
      m.work_per_candidate, m.report.substitutions_applied);
}

void json_mode(std::ostringstream& os, const char* key, const ModeRun& m) {
  os << "\"" << key << "\":{\"wall_ms\":" << m.wall_ms
     << ",\"region_gates\":" << m.region_gates
     << ",\"sig_words\":" << m.sig_words
     << ",\"candidates_per_commit\":" << m.cands_per_commit
     << ",\"work_per_candidate\":" << m.work_per_candidate
     << ",\"harvested\":" << m.report.candidates_harvested
     << ",\"applied\":" << m.report.substitutions_applied
     << ",\"power_before\":" << m.report.initial_power
     << ",\"power_after\":" << m.report.final_power
     << ",\"windows_built\":" << m.report.diagnostics.windowing.windows_built
     << ",\"boundary_conflicts\":"
     << m.report.diagnostics.windowing.boundary_conflicts
     << ",\"guard_failed\":"
     << (m.report.diagnostics.guard_failed ? "true" : "false") << "}";
}

}  // namespace

int main() {
  constexpr double kMinWorkRatio = 5.0;
  const int gates = env_int("POWDER_SCALE_GATES", 100'000);
  const int patterns = env_int("POWDER_PATTERNS", 256);
  const int window_size = env_int("POWDER_WINDOW_SIZE", 512);
  const int window_overlap = env_int("POWDER_WINDOW_OVERLAP", 64);

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
  const ModeRun global_run = run_mode(input, base().build(), patterns);
  print_mode("global", global_run);
  const ModeRun windowed_run =
      run_mode(input,
               base()
                   .windowed(true)
                   .window_size(window_size)
                   .window_overlap(window_overlap)
                   .build(),
               patterns);
  print_mode("windowed", windowed_run);

  const double region_ratio =
      global_run.region_gates / std::max(1.0, windowed_run.region_gates);
  const double work_ratio = global_run.work_per_candidate /
                            std::max(1.0, windowed_run.work_per_candidate);
  const double scan_ratio = global_run.cands_per_commit /
                            std::max(1.0, windowed_run.cands_per_commit);
  std::printf(
      "ratios: proof region %.1fx, per-candidate work %.1fx, "
      "candidate scans %.1fx\n",
      region_ratio, work_ratio, scan_ratio);

  bool ok = true;
  if (work_ratio < kMinWorkRatio) {
    std::fprintf(stderr, "FAIL: per-candidate work ratio %.2f < %.1f\n",
                 work_ratio, kMinWorkRatio);
    ok = false;
  }
  if (windowed_run.report.substitutions_applied <= 0) {
    std::fprintf(stderr, "FAIL: windowed mode committed nothing\n");
    ok = false;
  }
  if (global_run.report.diagnostics.guard_failed ||
      windowed_run.report.diagnostics.guard_failed) {
    std::fprintf(stderr, "FAIL: a signature guard failed\n");
    ok = false;
  }

  std::ostringstream json;
  json.precision(17);
  json << "{\"powder_build_type\":\"" << bench::build_type()
       << "\",\"gates\":" << gates << ",\"patterns\":" << patterns
       << ",\"window_size\":" << window_size
       << ",\"window_overlap\":" << window_overlap << ",";
  json_mode(json, "global", global_run);
  json << ",";
  json_mode(json, "windowed", windowed_run);
  json << ",\"region_ratio\":" << region_ratio
       << ",\"work_ratio\":" << work_ratio
       << ",\"scan_ratio\":" << scan_ratio << ",\"min_work_ratio\":"
       << kMinWorkRatio << ",\"pass\":" << (ok ? "true" : "false") << "}";

  std::ofstream out("BENCH_scale.json");
  out << json.str() << "\n";
  std::printf("wrote BENCH_scale.json\n");
  return ok ? 0 : 1;
}
