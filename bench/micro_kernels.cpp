// Google-benchmark micro-kernels for the library's hot paths: bit-parallel
// simulation, observability extraction, power estimation, candidate
// harvesting, ATPG proofs, and technology mapping. Not a paper experiment;
// engineering hygiene for the optimizer's inner loops.

#include <benchmark/benchmark.h>

#include "atpg/atpg.hpp"
#include "benchgen/benchmarks.hpp"
#include "mapper/mapper.hpp"
#include "opt/candidates.hpp"
#include "power/power.hpp"

namespace powder {
namespace {

const CellLibrary& lib() {
  static const CellLibrary* kLib = new CellLibrary(CellLibrary::standard());
  return *kLib;
}

const Netlist& mapped(const char* name) {
  static auto* cache = new std::map<std::string, Netlist>();
  auto it = cache->find(name);
  if (it == cache->end())
    it = cache->emplace(name, map_aig(make_benchmark(name), lib())).first;
  return it->second;
}

void BM_Simulation(benchmark::State& state) {
  const Netlist& nl = mapped("C880");
  Simulator sim(nl, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    sim.resimulate_all();
    benchmark::DoNotOptimize(sim.signal_prob(nl.outputs()[0]));
  }
  state.SetItemsProcessed(state.iterations() * nl.num_cells() *
                          state.range(0));
}
BENCHMARK(BM_Simulation)->Arg(256)->Arg(1024)->Arg(4096);

void BM_StemObservability(benchmark::State& state) {
  const Netlist& nl = mapped("C880");
  Simulator sim(nl, 1024);
  std::vector<GateId> cells;
  for (GateId g = 0; g < nl.num_slots(); ++g)
    if (nl.alive(g) && nl.kind(g) == GateKind::kCell) cells.push_back(g);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.stem_observability(cells[i % cells.size()]));
    ++i;
  }
}
BENCHMARK(BM_StemObservability);

void BM_PowerEstimate(benchmark::State& state) {
  const Netlist& nl = mapped("pair");
  Simulator sim(nl, 1024);
  for (auto _ : state) {
    PowerEstimator est(&sim);
    benchmark::DoNotOptimize(est.total_power());
  }
}
BENCHMARK(BM_PowerEstimate);

void BM_CandidateHarvest(benchmark::State& state) {
  const Netlist& nl = mapped("duke2");
  Simulator sim(nl, 1024);
  PowerEstimator est(&sim);
  for (auto _ : state) {
    CandidateFinder finder(nl, est);
    benchmark::DoNotOptimize(finder.find().size());
  }
}
BENCHMARK(BM_CandidateHarvest);

void BM_AtpgProof(benchmark::State& state) {
  const Netlist& nl = mapped("misex3");
  AtpgChecker atpg(nl);
  // Exercise stuck-at checks across the circuit (mix of testable and
  // redundant).
  std::vector<GateId> cells;
  for (GateId g = 0; g < nl.num_slots(); ++g)
    if (nl.alive(g) && nl.kind(g) == GateKind::kCell) cells.push_back(g);
  std::size_t i = 0;
  for (auto _ : state) {
    const GateId g = cells[i % cells.size()];
    benchmark::DoNotOptimize(
        atpg.check_stuck_at(ReplacementSite{g, std::nullopt}, i & 1));
    ++i;
  }
}
BENCHMARK(BM_AtpgProof);

void BM_TechnologyMapping(benchmark::State& state) {
  const Aig aig = make_benchmark("C432");
  for (auto _ : state) {
    benchmark::DoNotOptimize(map_aig(aig, lib()).num_cells());
  }
}
BENCHMARK(BM_TechnologyMapping);

void BM_BenchmarkGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_benchmark("duke2").num_ands());
  }
}
BENCHMARK(BM_BenchmarkGeneration);

// ---- layout kernels (BENCH_layout.json) ------------------------------------
// Micro-benchmarks for the cache-compact data plane (DESIGN.md §7): pure
// traversal, full resimulation, and signature hashing. These are the
// memory-bound loops the SoA/pin-arena layout exists for; the bench_layout
// ctest emits them as BENCH_layout.json for before/after comparison.

void BM_LayoutFaninWalk(benchmark::State& state) {
  const Netlist& nl = mapped("C880");
  const std::vector<GateId> order = nl.topo_order();
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (const GateId g : order) {
      for (const GateId fi : nl.fanins(g)) acc += fi;
      for (const FanoutRef& br : nl.fanouts(g))
        acc += br.gate + static_cast<std::uint64_t>(br.pin);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(order.size()));
}
BENCHMARK(BM_LayoutFaninWalk);

void BM_LayoutFullResim(benchmark::State& state) {
  const Netlist& nl = mapped("pair");
  Simulator sim(nl, 1024);
  for (auto _ : state) {
    sim.resimulate_all();
    benchmark::DoNotOptimize(sim.signal_prob(nl.outputs()[0]));
  }
  state.SetItemsProcessed(state.iterations() * nl.num_cells() * 1024);
}
BENCHMARK(BM_LayoutFullResim);

void BM_LayoutSignatureRehash(benchmark::State& state) {
  const Netlist& nl = mapped("C880");
  Simulator sim(nl, 1024);
  sim.resimulate_all();
  const std::vector<GateId> order = nl.topo_order();
  for (auto _ : state) {
    std::uint64_t mix = 0;
    for (const GateId g : order) {
      std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the signature
      for (const std::uint64_t w : sim.value(g)) {
        h ^= w;
        h *= 1099511628211ull;
      }
      mix ^= h;
    }
    benchmark::DoNotOptimize(mix);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(order.size()));
}
BENCHMARK(BM_LayoutSignatureRehash);

}  // namespace
}  // namespace powder

int main(int argc, char** argv) {
  // The context's library_build_type describes the Google Benchmark
  // library; record this code's own build type next to it.
  benchmark::AddCustomContext("powder_build_type", POWDER_BUILD_TYPE);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
