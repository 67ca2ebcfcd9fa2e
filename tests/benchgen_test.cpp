// Tests for the benchmark generators: determinism, functional sanity of
// the exact generators, suite integrity, and the synthetic scale netlist.

#include <gtest/gtest.h>

#include <set>

#include "benchgen/benchmarks.hpp"
#include "io/blif.hpp"
#include "powder.hpp"
#include "util/check.hpp"

namespace powder {
namespace {

TEST(Benchgen, SuitesAreRegistered) {
  for (const std::string& name : table1_suite())
    EXPECT_TRUE(is_known_benchmark(name)) << name;
  for (const std::string& name : fig6_suite())
    EXPECT_TRUE(is_known_benchmark(name)) << name;
  for (const std::string& name : quick_suite())
    EXPECT_TRUE(is_known_benchmark(name)) << name;
  EXPECT_EQ(table1_suite().size(), 47u);  // same circuit count as Table 1
  EXPECT_EQ(fig6_suite().size(), 18u);    // paper: "a set of 18 circuits"
}

TEST(Benchgen, GeneratorsAreDeterministic) {
  for (const char* name : {"comp", "duke2", "C432", "t481"}) {
    const Aig a1 = make_benchmark(name);
    const Aig a2 = make_benchmark(name);
    EXPECT_EQ(a1.num_inputs(), a2.num_inputs());
    EXPECT_EQ(a1.num_ands(), a2.num_ands());
    if (a1.num_inputs() <= 14)
      EXPECT_EQ(a1.output_truth_tables()[0].to_hex(),
                a2.output_truth_tables()[0].to_hex());
  }
}

TEST(Benchgen, ComparatorSemantics) {
  const Aig aig = make_comparator(4);
  const auto tts = aig.output_truth_tables();  // gt, eq, lt over a0..a3 b0..b3
  for (std::uint64_t m = 0; m < 256; ++m) {
    const std::uint64_t a = m & 0xF, b = (m >> 4) & 0xF;
    EXPECT_EQ(tts[0].bit(m), a > b);
    EXPECT_EQ(tts[1].bit(m), a == b);
    EXPECT_EQ(tts[2].bit(m), a < b);
  }
}

TEST(Benchgen, AdderSemantics) {
  const Aig aig = make_adder(4);
  const auto tts = aig.output_truth_tables();
  for (std::uint64_t m = 0; m < 512; ++m) {
    const std::uint64_t a = m & 0xF, b = (m >> 4) & 0xF, cin = (m >> 8) & 1;
    const std::uint64_t sum = a + b + cin;
    for (int i = 0; i < 5; ++i)
      EXPECT_EQ(tts[static_cast<std::size_t>(i)].bit(m), ((sum >> i) & 1) != 0);
  }
}

TEST(Benchgen, MultiplierSemantics) {
  const Aig aig = make_multiplier(3);
  const auto tts = aig.output_truth_tables();
  for (std::uint64_t m = 0; m < 64; ++m) {
    const std::uint64_t a = m & 7, b = (m >> 3) & 7;
    const std::uint64_t p = a * b;
    for (int i = 0; i < 6; ++i)
      EXPECT_EQ(tts[static_cast<std::size_t>(i)].bit(m), ((p >> i) & 1) != 0);
  }
}

TEST(Benchgen, RdCountsOnes) {
  const Aig aig = make_rd(8);
  const auto tts = aig.output_truth_tables();
  ASSERT_EQ(tts.size(), 4u);  // rd84: 8 inputs -> 4 count bits
  for (std::uint64_t m = 0; m < 256; ++m) {
    const int ones = __builtin_popcountll(m);
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(tts[static_cast<std::size_t>(i)].bit(m),
                ((ones >> i) & 1) != 0);
  }
}

TEST(Benchgen, SymmetricThreshold) {
  const Aig aig = make_symmetric(9, 3, 6);
  const auto tts = aig.output_truth_tables();
  for (std::uint64_t m = 0; m < 512; ++m) {
    const int ones = __builtin_popcountll(m);
    EXPECT_EQ(tts[0].bit(m), ones >= 3 && ones <= 6);
  }
}

TEST(Benchgen, AluOps) {
  const Aig aig = make_alu(3);
  const auto tts = aig.output_truth_tables();
  // inputs: a0..2, b0..2, op0, op1
  for (std::uint64_t m = 0; m < 256; ++m) {
    const std::uint64_t a = m & 7, b = (m >> 3) & 7;
    const bool op0 = (m >> 6) & 1, op1 = (m >> 7) & 1;
    std::uint64_t y;
    if (!op1)
      y = op0 ? (a - b) & 7 : (a + b) & 7;
    else
      y = op0 ? a ^ b : a & b;
    for (int i = 0; i < 3; ++i)
      EXPECT_EQ(tts[static_cast<std::size_t>(i)].bit(m), ((y >> i) & 1) != 0)
          << "m=" << m << " bit " << i;
  }
}

TEST(Benchgen, PriorityInterruptSemantics) {
  const Aig aig = make_priority_interrupt(4);  // 4 req + 4 mask + en = 9 in
  const auto tts = aig.output_truth_tables();
  // Outputs: v0, v1 (encoded index), valid, parity.
  for (std::uint64_t m = 0; m < 512; ++m) {
    const std::uint64_t req = m & 0xF, mask = (m >> 4) & 0xF;
    const bool en = (m >> 8) & 1;
    const std::uint64_t active = en ? (req & ~mask & 0xF) : 0;
    int best = -1;
    for (int i = 3; i >= 0; --i)
      if ((active >> i) & 1) {
        best = i;
        break;
      }
    EXPECT_EQ(tts[2].bit(m), best >= 0) << m;  // valid
    if (best >= 0) {
      EXPECT_EQ(tts[0].bit(m), (best & 1) != 0) << m;
      EXPECT_EQ(tts[1].bit(m), (best & 2) != 0) << m;
    }
    EXPECT_EQ(tts[3].bit(m), (__builtin_popcountll(req) & 1) != 0) << m;
  }
}

TEST(Benchgen, BarrelRotatorSemantics) {
  const Aig aig = make_barrel_rotator(8);  // 8 data + 3 amount
  const auto tts = aig.output_truth_tables();
  for (std::uint64_t m = 0; m < 2048; ++m) {
    const std::uint64_t d = m & 0xFF;
    const int s = static_cast<int>((m >> 8) & 7);
    const std::uint64_t rot = ((d << s) | (d >> (8 - s))) & 0xFF;
    for (int b = 0; b < 8; ++b)
      EXPECT_EQ(tts[static_cast<std::size_t>(b)].bit(m),
                ((rot >> b) & 1) != 0)
          << "m=" << m << " bit " << b;
  }
}

TEST(Benchgen, FeistelIsInvertibleInData) {
  // A Feistel network is a bijection on (L, R) for every fixed key: check
  // on a small instance that distinct data inputs give distinct outputs.
  const Aig aig = make_feistel(4, 2, 99);  // 8 data + 8 key inputs
  const auto tts = aig.output_truth_tables();
  ASSERT_EQ(tts.size(), 8u);
  for (std::uint64_t key = 0; key < 4; ++key) {
    std::set<std::uint64_t> images;
    for (std::uint64_t data = 0; data < 256; ++data) {
      const std::uint64_t input = data | (key << 8);
      std::uint64_t out = 0;
      for (int b = 0; b < 8; ++b)
        if (tts[static_cast<std::size_t>(b)].bit(input)) out |= 1ull << b;
      images.insert(out);
    }
    EXPECT_EQ(images.size(), 256u) << "not a bijection for key " << key;
  }
}

TEST(Benchgen, RedundantTwinOutputsAreEqual) {
  const Aig aig = make_redundant_twin(8, 7);
  const auto tts = aig.output_truth_tables();
  ASSERT_EQ(tts.size(), 2u);
  EXPECT_TRUE(tts[0] == tts[1]);  // f & g both equal f1
  EXPECT_FALSE(tts[0].is_constant(false));
  EXPECT_FALSE(tts[0].is_constant(true));
}

TEST(Benchgen, RandomPlaShapesMatchRequest) {
  const SopNetwork sop = make_random_pla("x", 12, 7, 40, 99);
  EXPECT_EQ(sop.num_inputs(), 12);
  EXPECT_EQ(sop.num_outputs(), 7);
  for (const Cover& c : sop.outputs) EXPECT_FALSE(c.empty());
}

TEST(Benchgen, RandomLogicRespectsSize) {
  const Aig aig = make_random_logic("x", 20, 10, 150, 42);
  EXPECT_EQ(aig.num_inputs(), 20);
  EXPECT_EQ(aig.num_outputs(), 10);
  EXPECT_GE(aig.num_ands(), 150);
  EXPECT_LE(aig.num_ands(), 200);  // small overshoot from composite makers
}

TEST(Benchgen, UnknownNameThrows) {
  EXPECT_THROW(make_benchmark("no_such_circuit"), CheckError);
}

TEST(ScaleNetlist, DeterministicAndSound) {
  const Netlist a = make_scale_netlist(1000);
  a.check_consistency();
  EXPECT_EQ(a.num_cells(), 1000);
  EXPECT_GT(a.num_inputs(), 0);
  EXPECT_EQ(a.num_outputs(), 2 * (1000 / 10));
  const Netlist b = make_scale_netlist(1000);
  EXPECT_EQ(write_blif(a), write_blif(b));
  // The planted per-tile redundancy is harvestable: a short run must find
  // commits.
  Netlist nl = a;
  const PowderReport r = optimize(nl, PowderOptions::builder()
                                          .patterns(256)
                                          .repeat(2)
                                          .max_outer_iterations(3)
                                          .seed(7)
                                          .build());
  EXPECT_GT(r.substitutions_applied, 0);
  EXPECT_FALSE(r.diagnostics.guard_failed);
}

}  // namespace
}  // namespace powder
