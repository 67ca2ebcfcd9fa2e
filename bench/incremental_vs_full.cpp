// Measures the payoff of the event-driven incremental core (DESIGN.md §6):
// after every journal commit, how much does it cost to bring the
// self-maintaining caches (simulator dirty-region resim, power refresh,
// incremental STA) back in sync, versus recomputing everything from
// scratch the way the pre-incremental code did?
//
// Emits BENCH_incremental.json in the working directory and a table on
// stdout. Registered as a ctest test (quick suite), so the comparison runs
// — and the incremental paths get exercised end to end — on every CI pass.
//
// Knobs: POWDER_SUITE, POWDER_PATTERNS (bench_common.hpp), and
// POWDER_COMMITS (journal commits measured per circuit, default 24).

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "opt/candidates.hpp"
#include "opt/journal.hpp"
#include "timing/incremental_timing.hpp"
#include "timing/timing.hpp"
#include "util/check.hpp"

using namespace powder;
using namespace powder::bench;

namespace {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Row {
  std::string name;
  int commits = 0;
  double inc_us = 0.0;   // total incremental resync time
  double full_us = 0.0;  // total from-scratch recompute time
  std::uint64_t sta_inc = 0, sta_full = 0;
  std::size_t cand_refreshed = 0, cand_index = 0;
  double checksum = 0.0;  // keeps the full recompute from being elided
};

Row measure(const std::string& name, const CellLibrary& lib, int patterns,
            int max_commits) {
  Row row;
  row.name = name;
  Netlist nl = initial_circuit(name, lib);

  Simulator sim(nl, patterns, input_probs(nl.num_inputs()), /*seed=*/7);
  PowerEstimator est(&sim);
  CandidateFinder finder(nl, est, {}, /*seed=*/7);
  SubstJournal journal(&nl);
  IncrementalTiming timing(nl);
  (void)timing.circuit_delay();

  // The from-scratch rig: a second simulator/estimator pair over the same
  // netlist, fully recomputed after every commit (what every commit cost
  // before the delta bus existed).
  Simulator full_sim(nl, patterns, input_probs(nl.num_inputs()), /*seed=*/7);
  PowerEstimator full_est(&full_sim);

  const std::vector<CandidateSub> cands = finder.find();
  for (const CandidateSub& sub : cands) {
    if (row.commits >= max_commits) break;
    if (!substitution_still_valid(nl, sub)) continue;
    try {
      journal.apply(sub);
    } catch (const CheckError&) {
      continue;
    }
    ++row.commits;

    double t0 = now_us();
    est.refresh();  // sim dirty-region resim + power refresh
    timing.refresh();
    row.inc_us += now_us() - t0;

    t0 = now_us();
    full_sim.resimulate_all();
    full_est.estimate_all();
    const TimingAnalysis full = analyze_timing(nl);
    row.full_us += now_us() - t0;
    row.checksum += full.circuit_delay + full_est.total_power();
  }

  // Candidate-index maintenance after the commit batch: gates re-hashed vs
  // what a full rebuild would touch.
  est.refresh();
  (void)finder.find();
  row.cand_refreshed = finder.last_refresh_count();
  row.cand_index = finder.index_size();

  row.sta_inc = timing.nodes_visited();
  row.sta_full = timing.full_equiv_visits();
  return row;
}

}  // namespace

int main() {
  const CellLibrary lib = CellLibrary::standard();
  const std::vector<std::string> suite = env_suite("quick");
  const int patterns = env_int("POWDER_PATTERNS", 1024);
  const int max_commits = env_int("POWDER_COMMITS", 24);

  std::printf("=== incremental resync vs full recompute (per commit) ===\n");
  std::printf("%-10s %8s %14s %14s %9s %12s %12s\n", "circuit", "commits",
              "inc us/commit", "full us/commit", "speedup", "sta visits",
              "cand refresh");

  std::vector<Row> rows;
  for (const std::string& name : suite)
    rows.push_back(measure(name, lib, patterns, max_commits));

  FILE* json = std::fopen("BENCH_incremental.json", "w");
  POWDER_CHECK_MSG(json != nullptr, "cannot write BENCH_incremental.json");
  std::fprintf(json,
               "{\"powder_build_type\":\"%s\",\"patterns\":%d,"
               "\"circuits\":[",
               bench::build_type(), patterns);

  bool first = true;
  for (const Row& r : rows) {
    const double inc = r.commits > 0 ? r.inc_us / r.commits : 0.0;
    const double full = r.commits > 0 ? r.full_us / r.commits : 0.0;
    const double speedup = inc > 0.0 ? full / inc : 0.0;
    const double sta_frac =
        r.sta_full > 0 ? static_cast<double>(r.sta_inc) /
                             static_cast<double>(r.sta_full)
                       : 0.0;
    const double cand_frac =
        r.cand_index > 0 ? static_cast<double>(r.cand_refreshed) /
                               static_cast<double>(r.cand_index)
                         : 0.0;
    std::printf("%-10s %8d %14.1f %14.1f %8.1fx %5.1f%% full %5.1f%% full\n",
                r.name.c_str(), r.commits, inc, full, speedup,
                100.0 * sta_frac, 100.0 * cand_frac);
    std::fprintf(json,
                 "%s{\"name\":\"%s\",\"commits\":%d,"
                 "\"incremental_us_per_commit\":%.3f,"
                 "\"full_us_per_commit\":%.3f,\"speedup\":%.3f,"
                 "\"sta_incremental_visits\":%llu,"
                 "\"sta_full_equiv_visits\":%llu,"
                 "\"candidate_gates_refreshed\":%zu,"
                 "\"candidate_index_size\":%zu}",
                 first ? "" : ",", r.name.c_str(), r.commits, inc, full,
                 speedup, static_cast<unsigned long long>(r.sta_inc),
                 static_cast<unsigned long long>(r.sta_full),
                 r.cand_refreshed, r.cand_index);
    first = false;
  }
  std::fprintf(json, "]}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_incremental.json\n");
  return 0;
}
