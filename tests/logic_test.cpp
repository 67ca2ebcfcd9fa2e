// Unit and property tests for the logic module: truth tables, cubes,
// covers (espresso-lite), factoring, and the genlib expression parser.

#include <gtest/gtest.h>

#include "logic/cube.hpp"
#include "logic/expr.hpp"
#include "logic/factor.hpp"
#include "logic/truth_table.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace powder {
namespace {

TEST(TruthTable, ConstantsAndVariables) {
  const TruthTable zero = TruthTable::constant(3, false);
  const TruthTable one = TruthTable::constant(3, true);
  EXPECT_TRUE(zero.is_constant(false));
  EXPECT_TRUE(one.is_constant(true));
  EXPECT_EQ(zero.count_ones(), 0u);
  EXPECT_EQ(one.count_ones(), 8u);

  for (int v = 0; v < 3; ++v) {
    const TruthTable x = TruthTable::variable(3, v);
    EXPECT_EQ(x.count_ones(), 4u);
    for (std::uint64_t m = 0; m < 8; ++m)
      EXPECT_EQ(x.bit(m), ((m >> v) & 1) != 0);
  }
}

TEST(TruthTable, WideVariables) {
  // Variables above index 5 select whole words.
  const TruthTable x7 = TruthTable::variable(8, 7);
  EXPECT_EQ(x7.count_ones(), 128u);
  for (std::uint64_t m = 0; m < 256; ++m)
    EXPECT_EQ(x7.bit(m), ((m >> 7) & 1) != 0);
}

TEST(TruthTable, BooleanOps) {
  const TruthTable a = TruthTable::variable(2, 0);
  const TruthTable b = TruthTable::variable(2, 1);
  EXPECT_EQ((a & b).count_ones(), 1u);
  EXPECT_EQ((a | b).count_ones(), 3u);
  EXPECT_EQ((a ^ b).count_ones(), 2u);
  EXPECT_EQ((~a).count_ones(), 2u);
  EXPECT_TRUE(((a ^ b) ^ b) == a);
}

TEST(TruthTable, CofactorAndDependence) {
  const TruthTable a = TruthTable::variable(3, 0);
  const TruthTable c = TruthTable::variable(3, 2);
  const TruthTable f = a & c;
  EXPECT_TRUE(f.depends_on(0));
  EXPECT_FALSE(f.depends_on(1));
  EXPECT_TRUE(f.depends_on(2));
  EXPECT_TRUE(f.cofactor(2, true) == a);
  EXPECT_TRUE(f.cofactor(2, false).is_constant(false));
}

// is_constant and depends_on read the words in place; they must agree with
// their definitions: equality with a constant table, and two cofactors
// that differ.
void expect_predicates_match_definitions(const TruthTable& f) {
  for (const bool value : {false, true})
    EXPECT_EQ(f.is_constant(value),
              f == TruthTable::constant(f.num_vars(), value))
        << f.to_hex() << " constant " << value;
  for (int v = 0; v < f.num_vars(); ++v)
    EXPECT_EQ(f.depends_on(v), f.cofactor(v, false) != f.cofactor(v, true))
        << f.to_hex() << " var " << v;
}

TEST(TruthTable, PredicatesMatchCofactorDefinitionsExhaustively) {
  for (int n = 0; n <= 4; ++n) {
    const std::uint64_t minterms = std::uint64_t{1} << n;
    for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << minterms);
         ++bits) {
      TruthTable f(n);
      for (std::uint64_t m = 0; m < minterms; ++m)
        f.set_bit(m, ((bits >> m) & 1) != 0);
      expect_predicates_match_definitions(f);
    }
  }
}

TEST(TruthTable, PredicatesMatchCofactorDefinitionsOnWideTables) {
  Rng rng(23);
  for (int n = 5; n <= 10; ++n) {
    for (int trial = 0; trial < 30; ++trial) {
      TruthTable f(n);
      // Random tables depend on every variable; a table built from a few
      // variables (the others unread) and the constants exercise the
      // "no" answers, above variable 5 too.
      if (trial % 3 == 0) {
        for (std::uint64_t m = 0; m < f.num_minterms_capacity(); ++m)
          f.set_bit(m, rng.flip(0.5));
      } else if (trial % 3 == 1) {
        const int a = static_cast<int>(rng.below(n));
        const int b = static_cast<int>(rng.below(n));
        f = TruthTable::variable(n, a) ^ (TruthTable::variable(n, b) &
                                          TruthTable::variable(n, n - 1));
      } else {
        // Constants, and a single minterm (zero but for one word).
        f = TruthTable::constant(n, trial % 2 == 0);
        if (trial % 4 == 1)
          f.set_bit(rng.below(f.num_minterms_capacity()), true);
      }
      expect_predicates_match_definitions(f);
    }
  }
}

TEST(TruthTable, PermuteRoundTrip) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    TruthTable f(4);
    for (std::uint64_t m = 0; m < 16; ++m) f.set_bit(m, rng.flip(0.5));
    const std::vector<int> perm{2, 0, 3, 1};
    std::vector<int> inv(4);
    for (int i = 0; i < 4; ++i) inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = i;
    EXPECT_TRUE(f.permute(perm).permute(inv) == f);
  }
}

TEST(TruthTable, FlipVar) {
  const TruthTable a = TruthTable::variable(2, 0);
  const TruthTable b = TruthTable::variable(2, 1);
  const TruthTable f = a & ~b;
  EXPECT_TRUE(f.flip_var(0) == (~a & ~b));
  EXPECT_TRUE(f.flip_var(1) == (a & b));
  EXPECT_TRUE(f.flip_var(0).flip_var(0) == f);
}

TEST(TruthTable, NpnCanonicalKeyInvariance) {
  // AND(a, b) and NOR(a', b') style variants share an NPN class.
  const TruthTable a = TruthTable::variable(2, 0);
  const TruthTable b = TruthTable::variable(2, 1);
  const TruthTable f1 = a & b;
  const TruthTable f2 = ~(~a | ~b);  // same function
  const TruthTable f3 = ~a & b;      // input negation
  const TruthTable f4 = ~(a & b);    // output negation
  EXPECT_EQ(f1.npn_canonical_key(), f2.npn_canonical_key());
  EXPECT_EQ(f1.npn_canonical_key(), f3.npn_canonical_key());
  EXPECT_EQ(f1.npn_canonical_key(), f4.npn_canonical_key());
  EXPECT_NE(f1.npn_canonical_key(), (a ^ b).npn_canonical_key());
}

TEST(Cube, ParseAndContainment) {
  const Cube c1 = Cube::parse("1-0");
  const Cube c2 = Cube::parse("110");
  EXPECT_EQ(c1.num_literals(), 2);
  EXPECT_TRUE(c1.contains(c2));
  EXPECT_FALSE(c2.contains(c1));
  EXPECT_EQ(c1.to_pla(), "1-0");
}

TEST(Cube, DistanceAndConsensus) {
  const Cube c1 = Cube::parse("10-");
  const Cube c2 = Cube::parse("11-");
  EXPECT_EQ(c1.distance(c2), 1);
  const Cube cons = c1.consensus(c2);
  EXPECT_EQ(cons.to_pla(), "1--");
}

TEST(Cube, CoversMinterm) {
  const Cube c = Cube::parse("1-0");
  EXPECT_TRUE(c.covers_minterm(0b001));   // x0=1, x2=0
  EXPECT_TRUE(c.covers_minterm(0b011));
  EXPECT_FALSE(c.covers_minterm(0b101));  // x2=1
  EXPECT_FALSE(c.covers_minterm(0b000));  // x0=0
}

TEST(Cover, TruthTableRoundTrip) {
  Rng rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    TruthTable f(4);
    for (std::uint64_t m = 0; m < 16; ++m) f.set_bit(m, rng.flip(0.4));
    const Cover c = Cover::from_truth_table(f);
    EXPECT_TRUE(c.to_truth_table() == f);
  }
}

TEST(Cover, MinimizePreservesFunction) {
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    Cover c(5);
    const int ncubes = 3 + static_cast<int>(rng.below(8));
    for (int i = 0; i < ncubes; ++i) {
      Cube cube(5);
      for (int v = 0; v < 5; ++v) {
        const double r = rng.uniform();
        if (r < 0.3)
          cube.set_lit(v, Lit::kOne);
        else if (r < 0.6)
          cube.set_lit(v, Lit::kZero);
      }
      c.add(cube);
    }
    const TruthTable before = c.to_truth_table();
    Cover m = c;
    m.minimize();
    EXPECT_TRUE(m.to_truth_table() == before);
    EXPECT_LE(m.num_cubes(), c.num_cubes());
  }
}

TEST(Cover, TautologyDetection) {
  Cover taut(2);
  taut.add(Cube::parse("1-"));
  taut.add(Cube::parse("0-"));
  EXPECT_TRUE(taut.is_tautology());

  Cover not_taut(2);
  not_taut.add(Cube::parse("1-"));
  not_taut.add(Cube::parse("01"));
  EXPECT_FALSE(not_taut.is_tautology());
}

TEST(Cover, MergeAdjacentCubes) {
  Cover c(3);
  c.add(Cube::parse("110"));
  c.add(Cube::parse("111"));
  c.minimize();
  EXPECT_EQ(c.num_cubes(), 1);
  EXPECT_EQ(c.cubes()[0].to_pla(), "11-");
}

TEST(Factor, QuickFactorPreservesFunction) {
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    Cover c(6);
    const int ncubes = 2 + static_cast<int>(rng.below(10));
    for (int i = 0; i < ncubes; ++i) {
      Cube cube(6);
      for (int v = 0; v < 6; ++v) {
        const double r = rng.uniform();
        if (r < 0.25)
          cube.set_lit(v, Lit::kOne);
        else if (r < 0.5)
          cube.set_lit(v, Lit::kZero);
      }
      c.add(cube);
    }
    const auto tree = quick_factor(c);
    EXPECT_TRUE(tree->to_truth_table(6) == c.to_truth_table());
    // Factoring should never use more literals than the flat SOP.
    EXPECT_LE(tree->num_literals(), c.num_literals());
  }
}

TEST(Factor, ConstantCovers) {
  Cover empty(3);
  EXPECT_TRUE(quick_factor(empty)->to_truth_table(3).is_constant(false));
  Cover full(3);
  full.add(Cube(3));  // all-dash
  EXPECT_TRUE(quick_factor(full)->to_truth_table(3).is_constant(true));
}

TEST(Expr, BasicOperators) {
  const ParsedExpr e = parse_boolean_expr("!((a*b)+c)");
  ASSERT_EQ(e.input_names.size(), 3u);
  const TruthTable a = TruthTable::variable(3, 0);
  const TruthTable b = TruthTable::variable(3, 1);
  const TruthTable c = TruthTable::variable(3, 2);
  EXPECT_TRUE(e.function == ~((a & b) | c));
}

TEST(Expr, JuxtapositionAndPostfixNot) {
  const ParsedExpr e = parse_boolean_expr("a b' + c");
  const TruthTable a = TruthTable::variable(3, 0);
  const TruthTable b = TruthTable::variable(3, 1);
  const TruthTable c = TruthTable::variable(3, 2);
  EXPECT_TRUE(e.function == ((a & ~b) | c));
}

TEST(Expr, XorAndConstants) {
  const ParsedExpr e = parse_boolean_expr("a ^ b");
  EXPECT_EQ(e.function.count_ones(), 2u);
  const ParsedExpr z = parse_boolean_expr("CONST0");
  EXPECT_TRUE(z.function.is_constant(false));
  const ParsedExpr o = parse_boolean_expr("CONST1");
  EXPECT_TRUE(o.function.is_constant(true));
}

TEST(Expr, MalformedThrows) {
  EXPECT_THROW(parse_boolean_expr("(a + b"), CheckError);
  EXPECT_THROW(parse_boolean_expr("a +"), CheckError);
}


TEST(Cover, MinimizeWithDcUsesDontCares) {
  // ON = {11}, DC = {10, 01}: the minimizer may expand to a single literal
  // (or even tautology is NOT allowed since 00 is in the off-set).
  Cover on(2);
  on.add(Cube::parse("11"));
  Cover dc(2);
  dc.add(Cube::parse("10"));
  dc.add(Cube::parse("01"));
  on.minimize_with_dc(dc);
  // Result must cover minterm 11, must not cover 00.
  const TruthTable t = on.to_truth_table();
  EXPECT_TRUE(t.bit(3));
  EXPECT_FALSE(t.bit(0));
  EXPECT_LE(on.num_literals(), 1);  // a single literal suffices
}

TEST(Cover, MinimizeWithDcSandwichProperty) {
  // Random ON/DC pairs: ON <= result <= ON | DC.
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    Cover on(5), dc(5);
    for (int i = 0; i < 6; ++i) {
      Cube c(5);
      for (int v = 0; v < 5; ++v) {
        const double r = rng.uniform();
        if (r < 0.35)
          c.set_lit(v, Lit::kOne);
        else if (r < 0.7)
          c.set_lit(v, Lit::kZero);
      }
      (i % 2 ? dc : on).add(c);
    }
    const TruthTable on_t = on.to_truth_table();
    const TruthTable up_t = on_t | dc.to_truth_table();
    Cover result = on;
    result.minimize_with_dc(dc);
    const TruthTable r_t = result.to_truth_table();
    EXPECT_TRUE((on_t & ~r_t).is_constant(false)) << "ON not covered";
    EXPECT_TRUE((r_t & ~up_t).is_constant(false)) << "exceeded ON|DC";
  }
}

TEST(Cover, MinimizeWithEmptyDcEqualsPlainSemantics) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    Cover on(4);
    for (int i = 0; i < 5; ++i) {
      Cube c(4);
      for (int v = 0; v < 4; ++v) {
        const double r = rng.uniform();
        if (r < 0.4)
          c.set_lit(v, Lit::kOne);
        else if (r < 0.7)
          c.set_lit(v, Lit::kZero);
      }
      on.add(c);
    }
    const TruthTable before = on.to_truth_table();
    Cover result = on;
    result.minimize_with_dc(Cover(4));
    EXPECT_TRUE(result.to_truth_table() == before);
  }
}

// Property: espresso-lite result is irredundant — removing any cube changes
// the function.
class CoverIrredundancy : public ::testing::TestWithParam<int> {};

TEST_P(CoverIrredundancy, NoRemovableCube) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Cover c(5);
  const int ncubes = 4 + static_cast<int>(rng.below(8));
  for (int i = 0; i < ncubes; ++i) {
    Cube cube(5);
    for (int v = 0; v < 5; ++v) {
      const double r = rng.uniform();
      if (r < 0.35)
        cube.set_lit(v, Lit::kOne);
      else if (r < 0.7)
        cube.set_lit(v, Lit::kZero);
    }
    c.add(cube);
  }
  c.minimize();
  const TruthTable full = c.to_truth_table();
  for (int skip = 0; skip < c.num_cubes(); ++skip) {
    Cover without(5);
    for (int i = 0; i < c.num_cubes(); ++i)
      if (i != skip) without.add(c.cubes()[static_cast<std::size_t>(i)]);
    EXPECT_FALSE(without.to_truth_table() == full)
        << "cube " << skip << " is redundant";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverIrredundancy, ::testing::Range(0, 12));

}  // namespace
}  // namespace powder
