// Tests for the parallel infrastructure: ThreadPool sharding semantics,
// word-sharded simulation parity, pooled candidate harvesting parity, and
// the headline guarantee that a multi-threaded optimize() run produces a
// bit-identical netlist to the single-threaded one.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "io/blif.hpp"
#include "mapper/mapper.hpp"
#include "opt/candidates.hpp"
#include "powder.hpp"
#include "util/thread_pool.hpp"

namespace powder {
namespace {

TEST(ThreadPool, RunsEveryShardExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.parallelism(), 4);
  std::vector<std::atomic<int>> hits(64);
  pool.for_shards(64, [&](int shard, int num_shards) {
    EXPECT_EQ(num_shards, 64);
    hits[static_cast<std::size_t>(shard)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.parallelism(), 1);
  int count = 0;
  pool.for_shards(5, [&](int, int) { ++count; });  // no races possible
  EXPECT_EQ(count, 5);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, MinGrainLimitsShardCount) {
  ThreadPool pool(7);
  std::atomic<int> calls{0};
  pool.parallel_for(10, 8, [&](std::size_t lo, std::size_t hi) {
    EXPECT_GE(hi - lo, 1u);
    calls.fetch_add(1);
  });
  // 10 items at grain 8 -> at most 2 chunks, never 8.
  EXPECT_LE(calls.load(), 2);
}

TEST(ThreadPool, RethrowsShardException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.for_shards(8,
                               [&](int shard, int) {
                                 if (shard == 3)
                                   throw std::runtime_error("boom");
                               }),
               std::runtime_error);
  // The pool must stay usable after an exceptional region.
  std::atomic<int> count{0};
  pool.for_shards(8, [&](int, int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, NestedRegionRunsInlineOnWorker) {
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.for_shards(3, [&](int, int) {
    // A worker calling back into the pool must not deadlock.
    pool.for_shards(4, [&](int, int) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 12);
}

TEST(ThreadPool, BackToBackRegions) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.for_shards(7, [&](int, int) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 7) << "round " << round;
  }
}

TEST(ParallelParity, ShardedSimulationMatchesSerial) {
  const CellLibrary lib = CellLibrary::standard();
  const Netlist nl = map_aig(make_benchmark("duke2"), lib);

  Simulator serial(nl, 4096);
  ThreadPool pool(7);
  Simulator sharded(nl, 4096);
  sharded.set_thread_pool(&pool);

  for (GateId g : nl.outputs()) {
    const auto& a = serial.value(g);
    const auto& b = sharded.value(g);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t w = 0; w < a.size(); ++w)
      ASSERT_EQ(a[w], b[w]) << "gate " << g << " word " << w;
  }
}

TEST(ParallelParity, PooledHarvestMatchesSerial) {
  const CellLibrary lib = CellLibrary::standard();
  const Netlist nl = map_aig(make_benchmark("duke2"), lib);

  Simulator sim1(nl, 2048);
  PowerEstimator est1(&sim1);
  CandidateFinder serial(nl, est1, {}, 1, nullptr);
  const auto want = serial.find();

  ThreadPool pool(7);
  Simulator sim2(nl, 2048);
  sim2.set_thread_pool(&pool);
  PowerEstimator est2(&sim2);
  CandidateFinder pooled(nl, est2, {}, 1, &pool);
  const auto got = pooled.find();

  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const CandidateSub& a = want[i];
    const CandidateSub& b = got[i];
    EXPECT_EQ(a.cls, b.cls) << i;
    EXPECT_EQ(a.target, b.target) << i;
    EXPECT_EQ(a.branch.has_value(), b.branch.has_value()) << i;
    if (a.branch && b.branch) {
      EXPECT_EQ(a.branch->gate, b.branch->gate) << i;
      EXPECT_EQ(a.branch->pin, b.branch->pin) << i;
    }
    EXPECT_EQ(static_cast<int>(a.rep.kind), static_cast<int>(b.rep.kind))
        << i;
    EXPECT_EQ(a.rep.b, b.rep.b) << i;
    EXPECT_EQ(a.rep.invert_b, b.rep.invert_b) << i;
    EXPECT_EQ(a.rep.c, b.rep.c) << i;
    EXPECT_EQ(a.rep.invert_c, b.rep.invert_c) << i;
    EXPECT_EQ(a.new_cell, b.new_cell) << i;
    EXPECT_DOUBLE_EQ(a.pg_a, b.pg_a) << i;
    EXPECT_DOUBLE_EQ(a.pg_b, b.pg_b) << i;
  }
}

PowderReport run_with_threads(Netlist* nl, int threads) {
  return optimize(*nl, PowderOptions::builder()
                           .patterns(1024)
                           .repeat(10)
                           .max_outer_iterations(4)
                           .seed(7)
                           .threads(threads)
                           .build());
}

TEST(ParallelParity, MultithreadedOptimizeIsBitIdenticalToSerial) {
  const CellLibrary lib = CellLibrary::standard();
  const Netlist initial = map_aig(make_benchmark("duke2"), lib);

  Netlist nl1 = initial;
  const PowderReport r1 = run_with_threads(&nl1, 1);
  EXPECT_EQ(r1.diagnostics.threads_used, 1);

  Netlist nl8 = initial;
  const PowderReport r8 = run_with_threads(&nl8, 8);
  EXPECT_EQ(r8.diagnostics.threads_used, 8);

  EXPECT_EQ(write_blif(nl1), write_blif(nl8));
  EXPECT_EQ(r1.substitutions_applied, r8.substitutions_applied);
  EXPECT_EQ(r1.outer_iterations, r8.outer_iterations);
  EXPECT_DOUBLE_EQ(r1.final_power, r8.final_power);
  EXPECT_DOUBLE_EQ(r1.final_area, r8.final_area);
  EXPECT_DOUBLE_EQ(r1.final_delay, r8.final_delay);
}

// Threads shard the harvest and the simulation only: every proof runs
// inline on the commit thread, so the proof work itself must not depend on
// the thread count — neither the proof counters nor the decisions audited.
TEST(ParallelParity, ProofWorkIsThreadCountInvariant) {
  const CellLibrary lib = CellLibrary::standard();
  const Netlist initial = map_aig(make_benchmark("duke2"), lib);
  struct ProofWork {
    long inline_proofs;
    int rejected_by_atpg;
    long long podem_checks;
    long long sat_checks;
    long long audit_lines;
  };
  auto run = [&](int threads) {
    Netlist nl = initial;
    MetricsRegistry metrics;
    std::ostringstream audit_os;
    AuditLog audit(&audit_os);
    const PowderReport r = optimize(nl, PowderOptions::builder()
                                            .patterns(1024)
                                            .repeat(10)
                                            .max_outer_iterations(4)
                                            .seed(7)
                                            .threads(threads)
                                            .metrics(&metrics)
                                            .audit(&audit)
                                            .build());
    auto count = [&](const char* name) {
      return metrics.counter(name)->value();
    };
    return ProofWork{r.diagnostics.inline_proofs, r.rejected_by_atpg,
                     count("powder_proof_podem_checks_total"),
                     count("powder_proof_sat_checks_total"), audit.records()};
  };
  const ProofWork serial = run(1);
  const ProofWork threaded = run(4);
  EXPECT_GT(serial.podem_checks, 0);
  EXPECT_EQ(threaded.inline_proofs, serial.inline_proofs);
  EXPECT_EQ(threaded.rejected_by_atpg, serial.rejected_by_atpg);
  EXPECT_EQ(threaded.podem_checks, serial.podem_checks);
  EXPECT_EQ(threaded.sat_checks, serial.sat_checks);
  EXPECT_EQ(threaded.audit_lines, serial.audit_lines);
}

// The bound-pruned harvest fixes each batch's threshold before matching
// it, so which sites are matched — and every harvest counter, down to the
// OS3/IS3 pair filter's — must not depend on the thread count either. scale500's harvests hit the cap, so
// the bound prunes there.
TEST(ParallelParity, HarvestWorkIsThreadCountInvariant) {
  const Netlist initial = make_scale_netlist(500);
  struct HarvestWork {
    std::string blif;
    long sites, matched, truncated, pairs, pairs_passed;
    long long sites_counter, matched_counter;
  };
  auto run = [&](int threads) {
    Netlist nl = initial;
    MetricsRegistry metrics;
    const PowderReport r = optimize(
        nl,
        PowderOptions::builder().seed(7).threads(threads).metrics(&metrics)
            .build());
    const PowderReport::Diagnostics::Resub& d = r.diagnostics.resub;
    return HarvestWork{
        write_blif(nl), d.harvest_sites, d.harvest_sites_matched,
        d.harvest_truncated, d.three_sub_pairs, d.three_sub_pairs_passed,
        metrics.counter("powder_harvest_sites_total")->value(),
        metrics.counter("powder_harvest_sites_matched_total")->value()};
  };
  const HarvestWork serial = run(1);
  const HarvestWork threaded = run(4);
  EXPECT_GT(serial.matched, 0);
  EXPECT_LT(serial.matched, serial.sites);
  EXPECT_EQ(serial.sites_counter, serial.sites);
  EXPECT_EQ(serial.matched_counter, serial.matched);
  EXPECT_EQ(threaded.blif, serial.blif);
  EXPECT_EQ(threaded.sites, serial.sites);
  EXPECT_EQ(threaded.matched, serial.matched);
  EXPECT_EQ(threaded.truncated, serial.truncated);
  EXPECT_GT(serial.pairs_passed, 0);
  EXPECT_LT(serial.pairs_passed, serial.pairs);
  EXPECT_EQ(threaded.pairs, serial.pairs);
  EXPECT_EQ(threaded.pairs_passed, serial.pairs_passed);
  EXPECT_EQ(threaded.sites_counter, serial.sites_counter);
  EXPECT_EQ(threaded.matched_counter, serial.matched_counter);
}

TEST(ParallelParity, ThreadsZeroMeansAllCoresAndStaysDeterministic) {
  const CellLibrary lib = CellLibrary::standard();
  const Netlist initial = map_aig(make_benchmark("bw"), lib);

  Netlist nl1 = initial;
  (void)run_with_threads(&nl1, 1);
  Netlist nl0 = initial;
  const PowderReport r0 = run_with_threads(&nl0, 0);
  EXPECT_GE(r0.diagnostics.threads_used, 1);
  EXPECT_EQ(write_blif(nl1), write_blif(nl0));
}

TEST(ParallelParity, ReportJsonContainsDiagnostics) {
  const CellLibrary lib = CellLibrary::standard();
  Netlist nl = map_aig(make_benchmark("bw"), lib);
  const PowderReport r = run_with_threads(&nl, 2);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"diagnostics\""), std::string::npos);
  EXPECT_NE(json.find("\"threads_used\":2"), std::string::npos);
  EXPECT_NE(json.find("\"final_power\""), std::string::npos);
  EXPECT_NE(json.find("\"by_class\""), std::string::npos);
}

}  // namespace
}  // namespace powder
