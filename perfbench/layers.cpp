// perfbench_layers — times the optimizer's public calls one layer at a
// time, for the benchmark runner (run.py). It prints one JSON object on
// stdout.
//
//   perfbench_layers setup [--reps N] [--threads N] [--timed]
//                          [--glitch-pairs N] <in.blif>...
//     Makes the calls `powder optimize` makes before its first harvest
//     (PowderOptimizer::run() up to finder->find()), in the same order and
//     with the same options, N times over all inputs. Prints each
//     repetition's total and the median of each step.
//
//   perfbench_layers layers [--reps N] [--threads N] [--glitch-pairs N]
//                           <in.blif> <out.blif> [<in.blif> <out.blif>]...
//     Times the first CandidateFinder::find(), compute_pg_c under the
//     zero-delay and the timed model, and the delay check's public steps
//     (Netlist copy, seeded IncrementalTiming + apply_substitution +
//     circuit_delay) on the top candidates by PG_A+PG_B, and write_blif of
//     each optimized output.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/blif.hpp"
#include "library/cell_library.hpp"
#include "netlist/netlist.hpp"
#include "opt/candidates.hpp"
#include "opt/powder.hpp"
#include "opt/power_gain.hpp"
#include "opt/substitution.hpp"
#include "power/model.hpp"
#include "power/power.hpp"
#include "sim/simulator.hpp"
#include "timing/incremental_timing.hpp"
#include "util/thread_pool.hpp"

using namespace powder;

namespace {

using Clock = std::chrono::steady_clock;

/// Seconds since the previous call (or construction).
class Lap {
 public:
  double operator()() {
    const auto now = Clock::now();
    const double s = std::chrono::duration<double>(now - t_).count();
    t_ = now;
    return s;
  }

 private:
  Clock::time_point t_ = Clock::now();
};

struct Config {
  std::string mode;
  int reps = 5;
  int threads = 1;
  bool timed = false;
  int glitch_pairs = 64;
  std::vector<std::string> files;

  /// The options `powder optimize` builds from the same flags.
  PowderOptions options(bool timed_model) const {
    auto b = PowderOptions::builder().threads(threads).glitch_vector_pairs(
        glitch_pairs);
    if (timed_model) b.power_model(PowerModelKind::kTimed);
    return b.build();
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The glitch options PowderOptimizer::run() hands to TimedPowerModel.
GlitchOptions glitch_options(const PowderOptions& opt,
                             const std::vector<double>& probs) {
  GlitchOptions g = opt.glitch;
  if (g.stimulus.prob.empty() && !probs.empty()) g.stimulus.prob = probs;
  return g;
}

/// One pre-harvest set-up of `path`; adds each step's seconds to `steps`.
void setup_once(const std::string& path, const Config& cfg,
                std::map<std::string, double>& steps) {
  const PowderOptions opt = cfg.options(cfg.timed);
  Lap lap;
  const CellLibrary lib = CellLibrary::standard();
  steps["library"] += lap();
  Netlist nl = read_blif(read_file(path), lib);
  steps["read_blif"] += lap();
  ThreadPool pool(opt.threads - 1);
  const std::vector<double> probs = expand_pi_probs(nl, opt.pi_probs);
  Simulator sim(nl, opt.num_patterns, probs, opt.seed);
  sim.set_thread_pool(&pool);
  steps["simulate"] += lap();
  PowerEstimator est(&sim);  // the constructor runs estimate_all()
  steps["estimate_all"] += lap();
  std::optional<TimedPowerModel> timed;
  if (cfg.timed) timed.emplace(&est, glitch_options(opt, probs));
  steps["timed_init"] += lap();
  const PowerModel& model =
      timed ? static_cast<const PowerModel&>(*timed) : est;
  // The optimizer's independent pattern set (same seed perturbation).
  Simulator verify_sim(nl, opt.num_patterns, probs,
                       opt.seed ^ 0x5EC0DD5EEDull);
  verify_sim.set_thread_pool(&pool);
  steps["verify_sim"] += lap();
  IncrementalTiming timing(nl);
  (void)timing.circuit_delay();
  steps["timing"] += lap();
  CandidateFinder finder(nl, model, opt.candidates, opt.seed, &pool);
  steps["finder"] += lap();
}

void run_setup(const Config& cfg) {
  std::vector<double> totals;
  std::map<std::string, std::vector<double>> per_step;
  for (int r = 0; r < cfg.reps; ++r) {
    std::map<std::string, double> steps;
    for (const std::string& f : cfg.files) setup_once(f, cfg, steps);
    double total = 0.0;
    for (const auto& [name, s] : steps) {
      per_step[name].push_back(s);
      total += s;
    }
    totals.push_back(total);
  }
  std::printf("{\"setup_s\": [");
  for (std::size_t i = 0; i < totals.size(); ++i)
    std::printf("%s%.9f", i ? ", " : "", totals[i]);
  std::printf("], \"steps_ms\": {");
  bool first = true;
  for (const auto& [name, v] : per_step) {
    std::printf("%s\"%s\": %.6f", first ? "" : ", ", name.c_str(),
                1e3 * median(v));
    first = false;
  }
  std::printf("}}\n");
}

/// Median seconds of `reps` calls of `f`.
template <class F>
double median_time(int reps, F&& f) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    Lap lap;
    f();
    v.push_back(lap());
  }
  return median(v);
}

void run_layers(const Config& cfg) {
  if (cfg.files.empty() || cfg.files.size() % 2 != 0)
    throw std::runtime_error("layers needs <in.blif> <out.blif> pairs");
  double find_s = 0.0, timed_init_s = 0.0, write_s = 0.0;
  std::vector<double> pgc_zd, pgc_timed, copy, trial_sta;
  long candidates = 0;
  const CellLibrary lib = CellLibrary::standard();
  for (std::size_t i = 0; i < cfg.files.size(); i += 2) {
    const Netlist out = read_blif(read_file(cfg.files[i + 1]), lib);
    write_s += median_time(cfg.reps, [&] { (void)write_blif(out); });

    const PowderOptions opt = cfg.options(false);
    Netlist nl = read_blif(read_file(cfg.files[i]), lib);
    ThreadPool pool(opt.threads - 1);
    const std::vector<double> probs = expand_pi_probs(nl, opt.pi_probs);
    Simulator sim(nl, opt.num_patterns, probs, opt.seed);
    sim.set_thread_pool(&pool);
    PowerEstimator est(&sim);
    CandidateFinder finder(nl, est, opt.candidates, opt.seed, &pool);
    finder.reseed(opt.seed);  // the first outer iteration's seed
    Lap lap;
    std::vector<CandidateSub> cands = finder.find();
    find_s += lap();
    // find() returns candidates sorted by decreasing PG_A+PG_B; the
    // optimizer re-estimates PG_C for this many of them.
    cands.resize(std::min<std::size_t>(
        cands.size(), static_cast<std::size_t>(opt.shortlist)));
    candidates += static_cast<long>(cands.size());

    for (const CandidateSub& c : cands)
      for (int r = 0; r < cfg.reps; ++r) {
        lap();
        (void)compute_pg_c(nl, est, c);
        pgc_zd.push_back(lap());
      }

    IncrementalTiming timing(nl);
    (void)timing.circuit_delay();
    for (const CandidateSub& c : cands)
      for (int r = 0; r < cfg.reps; ++r) {
        lap();
        Netlist scratch = nl;
        copy.push_back(lap());
        {
          IncrementalTiming scratch_ta(scratch, timing);
          (void)apply_substitution(scratch, c);
          (void)scratch_ta.circuit_delay();
        }
        trial_sta.push_back(lap());
      }

    lap();
    TimedPowerModel timed(&est, glitch_options(opt, probs));
    timed_init_s += lap();
    for (CandidateSub c : cands) {
      // Timed PG_C is defined against PG_A/PG_B booked in the same model.
      c.pg_a = compute_pg_a(nl, timed, c);
      c.pg_b = compute_pg_b(nl, timed, c);
      lap();
      (void)compute_pg_c(nl, timed, c);
      pgc_timed.push_back(lap());
    }
  }
  std::printf(
      "{\"find_ms\": %.6f, \"pgc_zd_us\": %.4f, \"pgc_timed_us\": %.4f, "
      "\"timed_init_ms\": %.6f, \"copy_us\": %.4f, \"trial_sta_us\": %.4f, "
      "\"write_blif_ms\": %.6f, "
      "\"candidates\": %ld}\n",
      1e3 * find_s, 1e6 * median(pgc_zd), 1e6 * median(pgc_timed),
      1e3 * timed_init_s, 1e6 * median(copy), 1e6 * median(trial_sta),
      1e3 * write_s, candidates);
}

Config parse(int argc, char** argv) {
  Config cfg;
  if (argc < 2) throw std::runtime_error("usage: perfbench_layers "
                                         "setup|layers [options] files...");
  cfg.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> int {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return std::stoi(argv[++i]);
    };
    if (a == "--reps") {
      cfg.reps = value();
    } else if (a == "--threads") {
      cfg.threads = value();
    } else if (a == "--glitch-pairs") {
      cfg.glitch_pairs = value();
    } else if (a == "--timed") {
      cfg.timed = true;
    } else if (!a.empty() && a[0] == '-') {
      throw std::runtime_error("unknown option " + a);
    } else {
      cfg.files.push_back(a);
    }
  }
  if (cfg.reps < 1 || cfg.threads < 1 || cfg.glitch_pairs < 1)
    throw std::runtime_error("--reps, --threads, --glitch-pairs must be >= 1");
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config cfg = parse(argc, argv);
    if (cfg.mode == "setup") {
      run_setup(cfg);
    } else if (cfg.mode == "layers") {
      run_layers(cfg);
    } else {
      throw std::runtime_error("unknown mode " + cfg.mode);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
    return 1;
  }
}
