// powder — command-line front end for the POWDER library.
//
//   powder optimize <in.blif> -o <out.blif> [options]   run POWDER
//   powder stats    <in.blif> [options]                 report metrics
//   powder gen      <circuit> -o <out.blif> [options]   emit a benchmark
//                   (<circuit> may be scale<N> for the synthetic N-gate
//                    windowed-mode workload, e.g. scale100000)
//   powder check    <a.blif> <b.blif> [options]         equivalence check
//   powder cleanup  <in.blif> -o <out.blif> [options]   redundancy removal
//   powder diff     <base.json> <cand.json> [options]   compare two
//                   --report-json files; exit 1 on regression
//   powder trajectory [--dir d] [-o out.json]           fold BENCH_*.json
//                   artifacts into one BENCH_trajectory.json
//
// Common options:
//   --lib <file.genlib>     cell library (default: built-in powder-lib2)
//   --probs <p0,p1,...>     primary-input signal probabilities
// Optimize options:
//   --delay-limit <factor>  delay constraint as factor of the initial
//                           delay (e.g. 1.0); unconstrained if omitted
//   --objective power|area  greedy objective (default power)
//   --power-model zero-delay|timed
//                           power model the greedy loop optimizes
//                           (default zero-delay: the paper's 2p(1-p)
//                           estimate; timed: event-driven, glitch-aware)
//   --glitch-pairs <n>      vector pairs per timed estimate (default 256)
//   --glitch-event-cap <n>  event budget per vector pair (0 = automatic)
//   --engine podem|sat|hybrid  permissibility proof engine
//   --patterns <n>          simulation patterns (default 2048)
//   --seed <n>              RNG seed
//   --resize                follow up with gate re-sizing
//   --redundancy            precede with redundancy removal
//   --deadline <seconds>    wall-clock budget; the run stops cleanly with
//                           a partial result when it expires
//   --threads <n>           harvest/simulation shards or window fan-out
//                           (default 1; 0 = one per hardware thread)
//   --windowed              partition the netlist into overlapping windows
//                           and optimize them independently (DESIGN.md §11;
//                           the scalable mode for 10^5+ gate netlists)
//   --window-size <n>       gates per window (default 512)
//   --window-overlap <n>    gates shared between neighbouring windows
//                           (default 64)
//   --window-order-seed <n> shuffle seed for the merge order (0 = natural
//                           topological order)
//   --report-json <path>    write the full report (incl. diagnostics) as JSON
//   --paranoid              netlist invariant checks after every commit and
//                           an end-of-run BDD equivalence guard
// Observability options (optimize):
//   --trace-out <path>      Chrome trace-event JSON of the run's spans
//                           (load in ui.perfetto.dev or chrome://tracing)
//   --metrics-out <path>    Prometheus text exposition of the run counters
//   --audit-out <path>      NDJSON decision audit log, one line per
//                           candidate considered
//   --progress              live NDJSON progress events on stderr
//   --progress-out <path>   live NDJSON progress events to a file; the file
//                           is written incrementally (tail -f friendly),
//                           NOT atomically like the other artifacts
//   --attribution-out <path> per-gate power attribution JSON: top-K gates
//                           before/after, per-cell and per-class ledgers
//   --attribution-top <k>   gates in the attribution top list (default 16)
// Diff options:
//   --power-threshold <pct>   fail if candidate power worsens by more than
//                             this percent (default 0.5)
//   --area-threshold <pct>    same for area (default 2.0)
//   --runtime-threshold <pct> also gate on cpu_seconds (off by default:
//                             runtime is noisy)
//   --base-audit / --cand-audit <path>   add audit decision histograms
//   --base-attribution / --cand-attribution <path>  add per-class gains
//   -o <path>               write the verdict JSON (default: stdout)
// Trajectory options:
//   --dir <path>            directory to scan for BENCH_*.json (default .)
//   -o <path>               output (default BENCH_trajectory.json in --dir)
// Recovery options (optimize, DESIGN.md §10):
//   --checkpoint-out <path> durable WAL: every committed substitution is
//                           fsync'd so a killed run can be resumed
//   --resume <path>         replay a checkpoint WAL onto the (identical)
//                           input netlist, then continue optimizing
//   --mem-limit <MB>        degrade and finally stop cleanly when resident
//                           memory crosses this limit
// Global options:
//   --quiet                 suppress progress output (results still print)
//
// Progress lines go to stderr; primary results (stats, check verdicts,
// BLIF dumped to stdout) stay on stdout so pipelines keep working.
// All file artifacts are written atomically (temp + rename): a crashed or
// failed run never leaves a truncated output behind.

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bdd/netlist_bdd.hpp"
#include "util/check.hpp"
#include "benchgen/benchmarks.hpp"
#include "mapper/mapper.hpp"
#include "opt/redundancy.hpp"
#include "opt/report_diff.hpp"
#include "opt/resize.hpp"
#include "powder.hpp"
#include "power/attribution.hpp"
#include "power/glitch.hpp"
#include "trace/progress.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"

using namespace powder;

namespace {

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::string out_path;
  std::string lib_path;
  std::vector<double> probs;
  double delay_limit = -1.0;
  Objective objective = Objective::kPower;
  PowerModelKind power_model = PowerModelKind::kZeroDelay;
  int glitch_pairs = -1;        ///< -1 = keep the default
  long glitch_event_cap = -1;   ///< -1 = keep the default (0 = automatic)
  ProofEngine engine = ProofEngine::kHybrid;
  int patterns = 2048;
  std::uint64_t seed = 1;
  bool resize = false;
  bool redundancy = false;
  double deadline = -1.0;
  int threads = 1;
  bool windowed = false;
  bool funcred = false;
  int max_divisors = -1;  ///< -1 = keep the default (pair classes)
  int window_size = 512;
  int window_overlap = 64;
  std::uint64_t window_order_seed = 0;
  std::string report_json_path;
  std::string trace_out_path;
  std::string metrics_out_path;
  std::string audit_out_path;
  std::string checkpoint_out_path;
  std::string resume_path;
  long long mem_limit_mb = 0;
  bool quiet = false;
  bool paranoid = false;
  bool progress_stderr = false;
  std::string progress_out_path;
  std::string attribution_out_path;
  int attribution_top = 16;
  // powder diff
  DiffThresholds diff_thresholds;
  std::string base_audit_path;
  std::string cand_audit_path;
  std::string base_attribution_path;
  std::string cand_attribution_path;
  // powder trajectory
  std::string trajectory_dir = ".";
};

bool g_quiet = false;

/// Progress/status output: stderr, suppressed by --quiet. Primary results
/// (stats report, check verdict, BLIF on stdout) do not go through here.
void progress(const char* fmt, ...) {
  if (g_quiet) return;
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
}

/// Fails fast — before any expensive work — when an output path cannot be
/// created or written. A file newly created by the probe is removed again,
/// so a failing run does not leave empty artifacts around.
void check_writable(const std::string& path, const char* flag) {
  if (path.empty()) return;
  namespace fs = std::filesystem;
  std::error_code ec;
  const bool existed = fs::exists(path, ec);
  {
    // Append mode: probing must not truncate an existing file.
    std::ofstream probe(path, std::ios::app);
    POWDER_CHECK_MSG(probe.good(),
                     flag << " path is not writable: " << path);
  }
  if (!existed) fs::remove(path, ec);
}

void usage() {
  std::fprintf(
      stderr,
      "usage: powder <optimize|stats|gen|check|cleanup|diff|trajectory> "
      "<files...> [-o out.blif] [--lib f.genlib]\n"
      "               [--delay-limit F] [--objective power|area] "
      "[--engine podem|sat|hybrid]\n"
      "               [--power-model zero-delay|timed] [--glitch-pairs N] "
      "[--glitch-event-cap N]\n"
      "               [--patterns N] [--seed N] [--probs p0,p1,...] "
      "[--resize] [--redundancy]\n"
      "               [--deadline SECONDS] [--threads N] "
      "[--report-json FILE] [--paranoid]\n"
      "               [--windowed] [--window-size N] [--window-overlap N] "
      "[--window-order-seed N]\n"
      "               [--funcred] [--max-divisors K]\n"
      "               [--trace-out FILE] [--metrics-out FILE] "
      "[--audit-out FILE] [--quiet]\n"
      "               [--progress] [--progress-out FILE] "
      "[--attribution-out FILE] [--attribution-top K]\n"
      "               [--checkpoint-out FILE] [--resume FILE] "
      "[--mem-limit MB]\n"
      "       powder diff <base.json> <cand.json> [--power-threshold PCT] "
      "[--area-threshold PCT]\n"
      "               [--runtime-threshold PCT] [--base-audit FILE] "
      "[--cand-audit FILE]\n"
      "               [--base-attribution FILE] [--cand-attribution FILE] "
      "[-o verdict.json]\n"
      "       powder trajectory [--dir DIR] [-o out.json]\n");
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) return std::nullopt;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "-o") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.out_path = v;
    } else if (arg == "--lib") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.lib_path = v;
    } else if (arg == "--delay-limit") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.delay_limit = std::stod(v);
    } else if (arg == "--objective") {
      const char* v = next();
      if (!v) return std::nullopt;
      if (std::strcmp(v, "area") == 0)
        a.objective = Objective::kArea;
      else if (std::strcmp(v, "power") == 0)
        a.objective = Objective::kPower;
      else
        return std::nullopt;
    } else if (arg == "--power-model") {
      const char* v = next();
      if (!v) return std::nullopt;
      if (std::strcmp(v, "zero-delay") == 0)
        a.power_model = PowerModelKind::kZeroDelay;
      else if (std::strcmp(v, "timed") == 0)
        a.power_model = PowerModelKind::kTimed;
      else
        return std::nullopt;
    } else if (arg == "--glitch-pairs") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.glitch_pairs = std::atoi(v);
    } else if (arg == "--glitch-event-cap") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.glitch_event_cap = std::atol(v);
    } else if (arg == "--engine") {
      const char* v = next();
      if (!v) return std::nullopt;
      if (std::strcmp(v, "podem") == 0)
        a.engine = ProofEngine::kPodem;
      else if (std::strcmp(v, "sat") == 0)
        a.engine = ProofEngine::kSat;
      else if (std::strcmp(v, "hybrid") == 0)
        a.engine = ProofEngine::kHybrid;
      else
        return std::nullopt;
    } else if (arg == "--patterns") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.patterns = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--probs") {
      const char* v = next();
      if (!v) return std::nullopt;
      std::stringstream ss(v);
      std::string tok;
      while (std::getline(ss, tok, ',')) a.probs.push_back(std::stod(tok));
    } else if (arg == "--resize") {
      a.resize = true;
    } else if (arg == "--redundancy") {
      a.redundancy = true;
    } else if (arg == "--deadline") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.deadline = std::stod(v);
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.threads = std::atoi(v);
    } else if (arg == "--windowed") {
      a.windowed = true;
    } else if (arg == "--funcred") {
      a.funcred = true;
    } else if (arg == "--max-divisors") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.max_divisors = std::atoi(v);
    } else if (arg == "--window-size") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.window_size = std::atoi(v);
    } else if (arg == "--window-overlap") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.window_overlap = std::atoi(v);
    } else if (arg == "--window-order-seed") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.window_order_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--report-json") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.report_json_path = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.trace_out_path = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.metrics_out_path = v;
    } else if (arg == "--audit-out") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.audit_out_path = v;
    } else if (arg == "--progress") {
      a.progress_stderr = true;
    } else if (arg == "--progress-out") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.progress_out_path = v;
    } else if (arg == "--attribution-out") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.attribution_out_path = v;
    } else if (arg == "--attribution-top") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.attribution_top = std::atoi(v);
    } else if (arg == "--power-threshold") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.diff_thresholds.power_percent = std::stod(v);
    } else if (arg == "--area-threshold") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.diff_thresholds.area_percent = std::stod(v);
    } else if (arg == "--runtime-threshold") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.diff_thresholds.runtime_percent = std::stod(v);
      a.diff_thresholds.check_runtime = true;
    } else if (arg == "--base-audit") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.base_audit_path = v;
    } else if (arg == "--cand-audit") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.cand_audit_path = v;
    } else if (arg == "--base-attribution") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.base_attribution_path = v;
    } else if (arg == "--cand-attribution") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.cand_attribution_path = v;
    } else if (arg == "--dir") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.trajectory_dir = v;
    } else if (arg == "--checkpoint-out") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.checkpoint_out_path = v;
    } else if (arg == "--resume") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.resume_path = v;
    } else if (arg == "--mem-limit") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.mem_limit_mb = std::atoll(v);
    } else if (arg == "--quiet") {
      a.quiet = true;
    } else if (arg == "--paranoid") {
      a.paranoid = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return std::nullopt;
    } else {
      a.positional.push_back(arg);
    }
  }
  return a;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw Error::io("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

CellLibrary load_library(const Args& a) {
  if (a.lib_path.empty()) return CellLibrary::standard();
  return CellLibrary::from_genlib(read_file(a.lib_path));
}

void print_stats(const Netlist& nl, const Args& a) {
  // Latch outputs are pseudo-PIs: the user's --probs cover the primary
  // inputs only, the reset-state fixed point fills in the rest.
  const std::vector<double> probs = expand_pi_probs(nl, a.probs);
  Simulator sim(nl, a.patterns, probs, a.seed);
  PowerEstimator est(&sim);
  const TimingAnalysis ta = analyze_timing(nl);
  GlitchOptions gopt;
  gopt.stimulus.prob = probs;
  gopt.num_vector_pairs = 128;
  const GlitchEstimate ge = estimate_glitch_power(nl, gopt);
  std::printf("circuit:          %s\n", nl.name().c_str());
  std::printf("inputs/outputs:   %d / %d\n", nl.num_inputs(),
              nl.num_outputs());
  if (nl.num_latches() > 0)
    std::printf("latches:          %d\n", nl.num_latches());
  std::printf("gates:            %d\n", nl.num_cells());
  std::printf("area:             %.0f\n", nl.total_area());
  std::printf("delay:            %.3f\n", ta.circuit_delay);
  std::printf("power (sum C*E):  %.4f\n", est.total_power());
  std::printf("glitch-aware:     %.4f  (glitch share %.1f%%)\n",
              ge.timed_power, 100.0 * ge.glitch_share());
}

int cmd_optimize(const Args& a) {
  // Fail fast on every output path before reading/optimizing anything: a
  // typo'd --trace-out must not surface after a minutes-long run.
  check_writable(a.out_path, "-o");
  check_writable(a.report_json_path, "--report-json");
  check_writable(a.trace_out_path, "--trace-out");
  check_writable(a.metrics_out_path, "--metrics-out");
  check_writable(a.audit_out_path, "--audit-out");
  check_writable(a.checkpoint_out_path, "--checkpoint-out");
  check_writable(a.progress_out_path, "--progress-out");
  check_writable(a.attribution_out_path, "--attribution-out");

  const CellLibrary lib = load_library(a);
  Netlist nl = read_blif(read_file(a.positional.at(0)), lib);
  const Netlist original = nl;

  // Observability sinks, all optional. A metrics registry is also created
  // for --report-json alone so the report gains its "metrics" field.
  std::optional<TraceSession> trace;
  if (!a.trace_out_path.empty()) trace.emplace();
  std::optional<MetricsRegistry> metrics;
  if (!a.metrics_out_path.empty() || !a.report_json_path.empty())
    metrics.emplace();
  // The audit log streams into an atomic writer: the destination path only
  // appears (via rename) once the run ends and the log is complete.
  std::optional<AtomicFileWriter> audit_w;
  std::optional<AuditLog> audit;
  if (!a.audit_out_path.empty()) {
    audit_w.emplace(a.audit_out_path);
    audit.emplace(&audit_w->stream());
  }
  // The progress stream is the one artifact written live (no temp+rename):
  // its whole point is being tail -f'able while the run is in flight.
  std::optional<std::ofstream> progress_file;
  std::optional<ProgressStream> prog;
  if (!a.progress_out_path.empty()) {
    progress_file.emplace(a.progress_out_path, std::ios::trunc);
    POWDER_CHECK_MSG(progress_file->good(), "--progress-out path is not "
                     "writable: " << a.progress_out_path);
    prog.emplace(&*progress_file);
  } else if (a.progress_stderr) {
    prog.emplace(&std::cerr);
  }
  std::optional<PowerAttribution> attr;
  if (!a.attribution_out_path.empty()) attr.emplace(a.attribution_top);
  TraceSession* const trace_ptr = trace ? &*trace : nullptr;

  if (a.redundancy) {
    TraceSpan span(trace_ptr, "redundancy_removal", "flow");
    const RedundancyRemovalReport rr = remove_redundancies(&nl);
    span.arg("pins_tied", rr.pins_tied);
    span.arg("gates_removed", rr.gates_removed);
    progress("redundancy: %d pins tied, %d gates removed\n", rr.pins_tied,
             rr.gates_removed);
  }

  auto builder = PowderOptions::builder()
                     .objective(a.objective)
                     .power_model(a.power_model)
                     .proof_engine(a.engine)
                     .patterns(a.patterns)
                     .seed(a.seed)
                     .pi_probs(a.probs)
                     .delay_limit_factor(a.delay_limit)
                     .deadline(a.deadline)
                     .threads(a.threads)
                     .windowed(a.windowed)
                     .window_size(a.window_size)
                     .window_overlap(a.window_overlap)
                     .window_order_seed(a.window_order_seed)
                     .funcred(a.funcred)
                     .check_invariants(a.paranoid)
                     .final_equivalence_check(a.paranoid)
                     .trace(trace_ptr)
                     .metrics(metrics ? &*metrics : nullptr)
                     .audit(audit ? &*audit : nullptr)
                     .progress(prog ? &*prog : nullptr)
                     .attribution(attr ? &*attr : nullptr)
                     .checkpoint_out(a.checkpoint_out_path)
                     .resume_from(a.resume_path)
                     .mem_limit_bytes(a.mem_limit_mb * 1024 * 1024);
  if (a.max_divisors >= 0) builder.max_divisors(a.max_divisors);
  if (a.glitch_pairs >= 0) builder.glitch_vector_pairs(a.glitch_pairs);
  if (a.glitch_event_cap >= 0) builder.glitch_event_cap(a.glitch_event_cap);
  const PowderOptions opt = builder.build();
  if (!a.resume_path.empty())
    progress("powder: resuming from %s\n", a.resume_path.c_str());
  const PowderReport r = optimize(nl, opt);
  const PowderReport::Diagnostics& d = r.diagnostics;
  if (a.windowed)
    progress("powder: %ld window(s), %ld window commit(s), "
             "%ld boundary conflict(s), %ld rerun(s)\n",
             d.windowing.windows_built, d.windowing.window_commits,
             d.windowing.boundary_conflicts, d.windowing.window_reruns);
  if (a.power_model == PowerModelKind::kTimed)
    progress("powder: timed power model: %ld full estimate(s), "
             "%ld cone refresh(es) over %ld gate(s) with %ld fallback "
             "pair(s), %ld overflow(s), final glitch share %.1f%%\n",
             d.power_model.timed_resims, d.power_model.cone_refreshes,
             d.power_model.refresh_cone_gates,
             d.power_model.refresh_fallback_pairs,
             d.power_model.event_overflows,
             100.0 * d.power_model.glitch_share);
  if (a.funcred)
    progress("powder: functional reduction merged %ld equivalent "
             "signal(s)\n",
             d.resub.funcred_merges);
  if (d.resub.harvest_truncated > 0)
    progress("powder: WARNING: %ld scored candidate(s) fell outside a "
             "harvest's max_candidates cap (%ld of %ld site(s) matched; the "
             "rest were bounded below the cap); raise the cap to consider "
             "them\n",
             d.resub.harvest_truncated, d.resub.harvest_sites_matched,
             d.resub.harvest_sites);
  if (d.resume_replayed > 0)
    progress("powder: replayed %lld checkpointed substitution(s)\n",
             static_cast<long long>(d.resume_replayed));
  if (d.checkpoint_frames > 0)
    progress("powder: checkpoint %s holds %lld commit frame(s)\n",
             a.checkpoint_out_path.c_str(),
             static_cast<long long>(d.checkpoint_frames));
  if (d.checkpoint_disabled)
    progress("powder: WARNING: checkpointing disabled after an I/O "
             "failure; the run continued without durability\n");
  if (d.degradation_events > 0)
    progress("powder: degradation ladder stepped %d time(s); see the "
             "audit log for the transition trail\n",
             d.degradation_events);
  if (d.mem_limit_hit)
    progress("powder: memory limit reached; result is partial\n");
  progress(
      "powder: power %.3f -> %.3f (-%.1f%%), area %.0f -> %.0f, "
      "delay %.2f -> %.2f, %d substitutions, %.1fs (%d thread%s)\n",
      r.initial_power, r.final_power, r.power_reduction_percent(),
      r.initial_area, r.final_area, r.initial_delay, r.final_delay,
      r.substitutions_applied, r.cpu_seconds, d.threads_used,
      d.threads_used == 1 ? "" : "s");
  if (!a.report_json_path.empty()) {
    write_file_atomic(a.report_json_path, r.to_json() + "\n");
    progress("wrote %s\n", a.report_json_path.c_str());
  }
  if (d.deadline_hit)
    progress("powder: wall-clock deadline hit; result is partial\n");
  if (d.budget_exhausted)
    progress("powder: proof-effort budget exhausted; result is partial\n");
  if (d.guard_rollbacks > 0 || d.final_check_rollbacks > 0 ||
      d.apply_failures > 0)
    progress("powder: guard rolled back %d commit(s) (%d at end of run), "
             "%d apply failure(s)\n",
             d.guard_rollbacks + d.final_check_rollbacks,
             d.final_check_rollbacks, d.apply_failures);
  if (d.guard_failed) {
    std::fprintf(stderr,
                 "INTERNAL ERROR: equivalence guard could not restore a "
                 "known-good netlist\n");
    return 2;
  }

  if (a.resize) {
    TraceSpan span(trace_ptr, "resize", "flow");
    ResizeOptions ro;
    ro.pi_probs = a.probs;
    ro.delay_limit_factor = a.delay_limit < 0 ? -1.0 : a.delay_limit;
    const ResizeReport rr = resize_gates(&nl, ro);
    span.arg("downsized", rr.downsized);
    span.arg("upsized", rr.upsized);
    progress("resize: %d down / %d up, power %.3f -> %.3f\n", rr.downsized,
             rr.upsized, rr.initial_power, rr.final_power);
  }

  {
    TraceSpan span(trace_ptr, "final_equivalence_check", "flow");
    if (!functionally_equivalent(original, nl)) {
      std::fprintf(stderr, "INTERNAL ERROR: equivalence check failed\n");
      return 2;
    }
  }
  if (!a.out_path.empty()) {
    write_file_atomic(a.out_path, write_blif(nl));
    progress("wrote %s\n", a.out_path.c_str());
  }

  if (trace) {
    AtomicFileWriter out(a.trace_out_path);
    trace->write_chrome_json(out.stream());
    out.commit();
    progress("wrote %s (%llu events, %llu dropped)\n",
             a.trace_out_path.c_str(),
             static_cast<unsigned long long>(trace->events_recorded()),
             static_cast<unsigned long long>(trace->dropped()));
  }
  if (!a.metrics_out_path.empty()) {
    AtomicFileWriter out(a.metrics_out_path);
    metrics->write_prometheus(out.stream());
    out.commit();
    progress("wrote %s (%zu instruments)\n", a.metrics_out_path.c_str(),
             metrics->size());
  }
  if (audit) {
    audit_w->commit();
    progress("wrote %s (%lld decisions)\n", a.audit_out_path.c_str(),
             audit->records());
  }
  if (attr) {
    write_file_atomic(a.attribution_out_path, attr->to_json() + "\n");
    progress("wrote %s (%lld commits, %lld deltas observed)\n",
             a.attribution_out_path.c_str(), attr->commits_recorded(),
             attr->deltas_observed());
  }
  if (prog && !a.progress_out_path.empty())
    progress("wrote %s (%lld events, %lld heartbeats)\n",
             a.progress_out_path.c_str(), prog->events_written(),
             prog->heartbeats_written());
  return 0;
}

/// `powder diff base.json cand.json`: structured regression verdict.
/// Exit codes: 0 = ok, 1 = regression, 3 = unreadable/invalid inputs.
int cmd_diff(const Args& a) {
  check_writable(a.out_path, "-o");
  const std::string base = read_file(a.positional.at(0));
  const std::string cand = read_file(a.positional.at(1));
  const auto side_file = [&](const std::string& path) {
    return path.empty() ? std::string() : read_file(path);
  };
  const DiffResult r = diff_reports(
      base, cand, a.diff_thresholds, side_file(a.base_audit_path),
      side_file(a.cand_audit_path), side_file(a.base_attribution_path),
      side_file(a.cand_attribution_path));
  if (!r.ok) throw Error::input("diff: " + r.error);
  if (a.out_path.empty()) {
    std::printf("%s\n", r.verdict_json.c_str());
  } else {
    write_file_atomic(a.out_path, r.verdict_json + "\n");
    progress("wrote %s\n", a.out_path.c_str());
  }
  progress("powder diff: %s\n", r.regressed ? "REGRESSION" : "ok");
  return r.regressed ? 1 : 0;
}

/// `powder trajectory`: folds every BENCH_*.json in --dir into one
/// BENCH_trajectory.json perf-trajectory document.
int cmd_trajectory(const Args& a) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, std::string>> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(a.trajectory_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 || name.size() < 5 ||
        name.substr(name.size() - 5) != ".json")
      continue;
    if (name == "BENCH_trajectory.json") continue;  // don't fold ourselves
    files.emplace_back(name, read_file(entry.path().string()));
  }
  if (ec)
    throw Error::input("trajectory: cannot scan " + a.trajectory_dir + ": " +
                       ec.message());
  // Directory iteration order is filesystem-dependent; sort for determinism.
  std::sort(files.begin(), files.end());
  const std::string out_path =
      a.out_path.empty()
          ? (fs::path(a.trajectory_dir) / "BENCH_trajectory.json").string()
          : a.out_path;
  check_writable(out_path, "-o");
  write_file_atomic(out_path, fold_bench_trajectory(files) + "\n");
  progress("wrote %s (%zu bench file(s))\n", out_path.c_str(), files.size());
  return 0;
}

int cmd_stats(const Args& a) {
  const CellLibrary lib = load_library(a);
  const Netlist nl = read_blif(read_file(a.positional.at(0)), lib);
  print_stats(nl, a);
  return 0;
}

// "scaleN" names (e.g. scale100000) generate the synthetic N-gate
// netlist used by the windowed-mode scaling bench; returns -1 otherwise.
int parse_scale_gates(const std::string& name) {
  if (name.rfind("scale", 0) != 0 || name.size() <= 5) return -1;
  int gates = 0;
  for (std::size_t i = 5; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    if (gates > 100'000'000) return -1;
    gates = gates * 10 + (name[i] - '0');
  }
  return gates;
}

int cmd_gen(const Args& a) {
  check_writable(a.out_path, "-o");
  const std::string& name = a.positional.at(0);
  const int scale_gates = parse_scale_gates(name);
  if (scale_gates >= 0) {
    if (scale_gates < 10)
      throw Error::input("scale<N> needs N >= 10 (one 10-gate tile), got " +
                         std::to_string(scale_gates));
    const Netlist nl = make_scale_netlist(scale_gates, a.seed);
    const std::string text = write_blif(nl);
    if (a.out_path.empty()) {
      std::fputs(text.c_str(), stdout);
    } else {
      write_file_atomic(a.out_path, text);
      progress("wrote %s (%d gates)\n", a.out_path.c_str(), nl.num_cells());
    }
    return 0;
  }
  const CellLibrary lib = load_library(a);
  if (!is_known_benchmark(name)) {
    std::fprintf(stderr, "unknown benchmark '%s' (or scale<N>); known:",
                 name.c_str());
    for (const auto& n : table1_suite())
      std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }
  MapperOptions mopt;
  mopt.pi_probs = a.probs;
  const Netlist nl = map_aig(make_benchmark(name), lib, mopt);
  const std::string text = write_blif(nl);
  if (a.out_path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    write_file_atomic(a.out_path, text);
    progress("wrote %s (%d gates)\n", a.out_path.c_str(), nl.num_cells());
  }
  return 0;
}

int cmd_check(const Args& a) {
  const CellLibrary lib = load_library(a);
  const Netlist n1 = read_blif(read_file(a.positional.at(0)), lib);
  const Netlist n2 = read_blif(read_file(a.positional.at(1)), lib);
  if (n1.num_inputs() != n2.num_inputs() ||
      n1.num_outputs() != n2.num_outputs()) {
    std::printf("NOT EQUIVALENT (interface mismatch)\n");
    return 1;
  }
  const bool eq = functionally_equivalent(n1, n2);
  std::printf("%s\n", eq ? "EQUIVALENT" : "NOT EQUIVALENT");
  return eq ? 0 : 1;
}

int cmd_cleanup(const Args& a) {
  check_writable(a.out_path, "-o");
  const CellLibrary lib = load_library(a);
  Netlist nl = read_blif(read_file(a.positional.at(0)), lib);
  const Netlist original = nl;
  const RedundancyRemovalReport rr = remove_redundancies(&nl);
  std::printf("redundancy removal: %d pins tied, %d gates removed, "
              "area -%.0f\n",
              rr.pins_tied, rr.gates_removed, rr.area_removed);
  if (!functionally_equivalent(original, nl)) {
    std::fprintf(stderr, "INTERNAL ERROR: equivalence check failed\n");
    return 2;
  }
  if (!a.out_path.empty()) {
    write_file_atomic(a.out_path, write_blif(nl));
    progress("wrote %s\n", a.out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Everything — including argument parsing, whose std::stod calls throw on
  // malformed numbers — runs under the top-level handler: any failure exits
  // nonzero with a one-line message instead of std::terminate.
  try {
    const auto args = parse_args(argc, argv);
    if (!args) {
      usage();
      return 1;
    }
    g_quiet = args->quiet;
    const auto need = [&](std::size_t n) {
      if (args->positional.size() < n) {
        usage();
        std::exit(1);
      }
    };
    if (args->command == "optimize") {
      need(1);
      return cmd_optimize(*args);
    }
    if (args->command == "stats") {
      need(1);
      return cmd_stats(*args);
    }
    if (args->command == "gen") {
      need(1);
      return cmd_gen(*args);
    }
    if (args->command == "check") {
      need(2);
      return cmd_check(*args);
    }
    if (args->command == "cleanup") {
      need(1);
      return cmd_cleanup(*args);
    }
    if (args->command == "diff") {
      need(2);
      return cmd_diff(*args);
    }
    if (args->command == "trajectory") {
      return cmd_trajectory(*args);
    }
    usage();
    return 1;
  } catch (const Error& e) {
    // Typed failures map to distinct exit codes so scripts can react
    // without parsing stderr: 3 = bad input, 4 = resource exhaustion,
    // 5 = proof engine, 6 = I/O. what() already carries the category.
    std::fprintf(stderr, "%s\n", e.what());
    switch (e.category()) {
      case ErrorCategory::kInput: return 3;
      case ErrorCategory::kResource: return 4;
      case ErrorCategory::kProofEngine: return 5;
      case ErrorCategory::kIo: return 6;
    }
    return 2;
  } catch (const CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
