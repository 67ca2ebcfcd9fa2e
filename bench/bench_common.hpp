#pragma once
// Shared helpers for the experiment harness binaries.
//
// Environment knobs (all optional):
//   POWDER_SUITE=quick|fig6|full   circuit set (each bench has a default)
//   POWDER_PATTERNS=<n>            simulation patterns (default 1024)
//   POWDER_REPEAT=<n>              inner-loop applications per harvest
//   POWDER_OUTER=<n>               max outer iterations
//   POWDER_THREADS=<n>             worker threads (default 1; 0 = all cores)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "mapper/mapper.hpp"
#include "powder.hpp"

namespace powder::bench {

/// This build's CMake build type, recorded in every BENCH_*.json as
/// "powder_build_type" (the Google Benchmark context's `library_build_type`
/// describes the benchmark library, not this code).
inline const char* build_type() {
#ifdef POWDER_BUILD_TYPE
  return POWDER_BUILD_TYPE;
#else
  return "unknown";
#endif
}

inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

inline std::vector<std::string> env_suite(const char* fallback) {
  const char* v = std::getenv("POWDER_SUITE");
  const std::string s = v != nullptr ? v : fallback;
  if (s == "quick") return quick_suite();
  if (s == "fig6") return fig6_suite();
  return table1_suite();
}

inline std::vector<double> input_probs(int num_inputs);

inline PowderOptions bench_options(int num_inputs) {
  return PowderOptions::builder()
      .patterns(env_int("POWDER_PATTERNS", 1024))
      .repeat(env_int("POWDER_REPEAT", 25))
      .max_outer_iterations(env_int("POWDER_OUTER", 16))
      .threads(env_int("POWDER_THREADS", 1))
      .pi_probs(input_probs(num_inputs))
      .build();
}

/// Deterministic non-uniform primary-input probabilities. The paper's
/// experiments use externally supplied signal probabilities (from the POSE
/// setup); those exact values are not published, so the harness uses a
/// fixed, reproducible profile with a realistic spread. The same profile
/// is used for mapping and for POWDER ("the same signal probabilities ...
/// were assumed during synthesis ... and optimization").
inline std::vector<double> input_probs(int num_inputs) {
  std::vector<double> p(static_cast<std::size_t>(num_inputs));
  for (int i = 0; i < num_inputs; ++i)
    p[static_cast<std::size_t>(i)] =
        0.15 + 0.07 * static_cast<double>((i * 7) % 11);
  return p;
}

/// Builds the low-power initial circuit for `name` (the POSE substitute):
/// exact/synthetic function, power-driven mapping under the harness input
/// probabilities.
inline Netlist initial_circuit(const std::string& name,
                               const CellLibrary& lib) {
  const Aig aig = make_benchmark(name);
  MapperOptions opt;
  opt.mode = MapMode::kPower;
  opt.pi_probs = input_probs(aig.num_inputs());
  return map_aig(aig, lib, opt);
}

}  // namespace powder::bench
