#include "benchgen/benchmarks.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <map>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace powder {

namespace {

std::vector<AigLit> add_bus(Aig& aig, const std::string& prefix, int n) {
  std::vector<AigLit> bus;
  bus.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    bus.push_back(aig.add_input(prefix + std::to_string(i)));
  return bus;
}

/// Full adder on literals; returns (sum, carry).
std::pair<AigLit, AigLit> full_adder(Aig& aig, AigLit a, AigLit b, AigLit c) {
  const AigLit ab = aig.lxor(a, b);
  const AigLit sum = aig.lxor(ab, c);
  const AigLit carry = aig.lor(aig.land(a, b), aig.land(ab, c));
  return {sum, carry};
}

/// Ripple addition of two equal-width buses; returns n+1 bits.
std::vector<AigLit> add_buses(Aig& aig, const std::vector<AigLit>& a,
                              const std::vector<AigLit>& b, AigLit cin) {
  POWDER_CHECK(a.size() == b.size());
  std::vector<AigLit> out;
  AigLit carry = cin;
  for (std::size_t i = 0; i < a.size(); ++i) {
    auto [s, c] = full_adder(aig, a[i], b[i], carry);
    out.push_back(s);
    carry = c;
  }
  out.push_back(carry);
  return out;
}

}  // namespace

Aig make_comparator(int nbits) {
  Aig aig("comp" + std::to_string(nbits));
  const auto a = add_bus(aig, "a", nbits);
  const auto b = add_bus(aig, "b", nbits);
  // MSB-first iterative compare.
  AigLit gt = kAigFalse, lt = kAigFalse, eq = kAigTrue;
  for (int i = nbits - 1; i >= 0; --i) {
    const AigLit ai = a[static_cast<std::size_t>(i)];
    const AigLit bi = b[static_cast<std::size_t>(i)];
    const AigLit ai_gt = aig.land(ai, aig_not(bi));
    const AigLit ai_lt = aig.land(aig_not(ai), bi);
    gt = aig.lor(gt, aig.land(eq, ai_gt));
    lt = aig.lor(lt, aig.land(eq, ai_lt));
    eq = aig.land(eq, aig_not(aig.lxor(ai, bi)));
  }
  aig.add_output(gt, "gt");
  aig.add_output(eq, "eq");
  aig.add_output(lt, "lt");
  return aig;
}

Aig make_adder(int nbits) {
  Aig aig("add" + std::to_string(nbits));
  const auto a = add_bus(aig, "a", nbits);
  const auto b = add_bus(aig, "b", nbits);
  const AigLit cin = aig.add_input("cin");
  const auto sum = add_buses(aig, a, b, cin);
  for (int i = 0; i < nbits; ++i)
    aig.add_output(sum[static_cast<std::size_t>(i)],
                   "s" + std::to_string(i));
  aig.add_output(sum.back(), "cout");
  return aig;
}

Aig make_multiplier(int nbits) {
  Aig aig("mult" + std::to_string(nbits));
  const auto a = add_bus(aig, "a", nbits);
  const auto b = add_bus(aig, "b", nbits);
  // Partial-product accumulation, 2n product bits.
  std::vector<AigLit> acc(static_cast<std::size_t>(2 * nbits), kAigFalse);
  for (int i = 0; i < nbits; ++i) {
    std::vector<AigLit> pp(static_cast<std::size_t>(2 * nbits), kAigFalse);
    for (int j = 0; j < nbits; ++j)
      pp[static_cast<std::size_t>(i + j)] =
          aig.land(a[static_cast<std::size_t>(j)],
                   b[static_cast<std::size_t>(i)]);
    AigLit carry = kAigFalse;
    for (std::size_t k = 0; k < acc.size(); ++k) {
      auto [s, c] = full_adder(aig, acc[k], pp[k], carry);
      acc[k] = s;
      carry = c;
    }
  }
  for (int k = 0; k < 2 * nbits; ++k)
    aig.add_output(acc[static_cast<std::size_t>(k)],
                   "p" + std::to_string(k));
  return aig;
}

Aig make_rd(int ninputs) {
  Aig aig("rd" + std::to_string(ninputs));
  const auto x = add_bus(aig, "x", ninputs);
  int width = 0;
  while ((1 << width) <= ninputs) ++width;
  std::vector<AigLit> count(static_cast<std::size_t>(width), kAigFalse);
  for (AigLit xi : x) {
    // count += xi (increment by one conditional).
    AigLit carry = xi;
    for (auto& bit : count) {
      const AigLit s = aig.lxor(bit, carry);
      carry = aig.land(bit, carry);
      bit = s;
    }
  }
  for (int i = 0; i < width; ++i)
    aig.add_output(count[static_cast<std::size_t>(i)],
                   "c" + std::to_string(i));
  return aig;
}

Aig make_symmetric(int ninputs, int lo, int hi) {
  Aig aig("sym" + std::to_string(ninputs));
  const auto x = add_bus(aig, "x", ninputs);
  int width = 0;
  while ((1 << width) <= ninputs) ++width;
  std::vector<AigLit> count(static_cast<std::size_t>(width), kAigFalse);
  for (AigLit xi : x) {
    AigLit carry = xi;
    for (auto& bit : count) {
      const AigLit s = aig.lxor(bit, carry);
      carry = aig.land(bit, carry);
      bit = s;
    }
  }
  // lo <= count <= hi via per-value decode (counts are small).
  AigLit in_range = kAigFalse;
  for (int v = lo; v <= hi; ++v) {
    AigLit is_v = kAigTrue;
    for (int bitpos = 0; bitpos < width; ++bitpos) {
      const AigLit bit = count[static_cast<std::size_t>(bitpos)];
      is_v = aig.land(is_v, ((v >> bitpos) & 1) ? bit : aig_not(bit));
    }
    in_range = aig.lor(in_range, is_v);
  }
  aig.add_output(in_range, "f");
  return aig;
}

Aig make_parity(int ninputs) {
  Aig aig("parity" + std::to_string(ninputs));
  const auto x = add_bus(aig, "x", ninputs);
  AigLit p = kAigFalse;
  for (AigLit xi : x) p = aig.lxor(p, xi);
  aig.add_output(p, "par");
  return aig;
}

Aig make_alu(int nbits) {
  Aig aig("alu" + std::to_string(nbits));
  const auto a = add_bus(aig, "a", nbits);
  const auto b = add_bus(aig, "b", nbits);
  const AigLit op0 = aig.add_input("op0");
  const AigLit op1 = aig.add_input("op1");
  // 00: a+b   01: a-b   10: a&b   11: a^b
  std::vector<AigLit> nb;
  for (AigLit bi : b) nb.push_back(aig_not(bi));
  const auto sum = add_buses(aig, a, b, kAigFalse);
  const auto dif = add_buses(aig, a, nb, kAigTrue);
  for (int i = 0; i < nbits; ++i) {
    const AigLit ai = a[static_cast<std::size_t>(i)];
    const AigLit bi = b[static_cast<std::size_t>(i)];
    const AigLit arith =
        aig.lmux(op0, dif[static_cast<std::size_t>(i)],
                 sum[static_cast<std::size_t>(i)]);
    const AigLit logic = aig.lmux(op0, aig.lxor(ai, bi), aig.land(ai, bi));
    aig.add_output(aig.lmux(op1, logic, arith), "y" + std::to_string(i));
  }
  // Carry/zero flags.
  aig.add_output(aig.lmux(op0, dif.back(), sum.back()), "carry");
  AigLit zero = kAigTrue;
  for (int i = 0; i < nbits; ++i) {
    const AigLit arith = aig.lmux(op0, dif[static_cast<std::size_t>(i)],
                                  sum[static_cast<std::size_t>(i)]);
    zero = aig.land(zero, aig_not(arith));
  }
  aig.add_output(zero, "zero");
  return aig;
}

Aig make_clip(int ninputs, int noutputs) {
  Aig aig("clip");
  const auto x = add_bus(aig, "x", ninputs);
  // y = saturate(|X - 2^(n-1)|, noutputs bits): subtract the midpoint,
  // absolute value, then clamp.
  const int n = ninputs;
  std::vector<AigLit> mid(static_cast<std::size_t>(n), kAigFalse);
  mid[static_cast<std::size_t>(n - 1)] = kAigTrue;
  std::vector<AigLit> nmid;
  for (AigLit m : mid) nmid.push_back(aig_not(m));
  const auto diff = add_buses(aig, x, nmid, kAigTrue);  // x - mid (two's c.)
  const AigLit neg = aig_not(diff.back());              // borrow => x < mid
  // Conditional negate for |diff|.
  std::vector<AigLit> mag;
  AigLit carry = neg;
  for (int i = 0; i < n; ++i) {
    const AigLit d = aig.lxor(diff[static_cast<std::size_t>(i)], neg);
    auto [s, c] = full_adder(aig, d, kAigFalse, carry);
    mag.push_back(s);
    carry = c;
  }
  // Saturate: if any bit above the output width is set, all outputs 1.
  AigLit overflow = kAigFalse;
  for (int i = noutputs; i < n; ++i)
    overflow = aig.lor(overflow, mag[static_cast<std::size_t>(i)]);
  for (int i = 0; i < noutputs; ++i)
    aig.add_output(aig.lor(mag[static_cast<std::size_t>(i)], overflow),
                   "y" + std::to_string(i));
  return aig;
}

Aig make_xor_ecc(int ninputs, int noutputs, std::uint64_t seed) {
  // Error-correction-style network: data bits XORed with decode terms
  // built from shared "syndrome" signals. A fraction of the decode logic
  // is rebuilt with a different structure (reversed XOR chains compute the
  // same parity), matching the redundancy real SEC circuits exhibit after
  // synthesis.
  Aig aig("xor_ecc");
  const auto x = add_bus(aig, "x", ninputs);
  Rng rng(seed);

  // Shared syndrome layer.
  std::vector<AigLit> syndrome;
  const int nsyn = std::max(3, ninputs / 6);
  std::vector<std::vector<std::size_t>> syn_taps;
  for (int s = 0; s < nsyn; ++s) {
    std::vector<std::size_t> taps;
    const int k = 3 + static_cast<int>(rng.below(3));
    for (int t = 0; t < k; ++t) taps.push_back(rng.below(x.size()));
    AigLit acc = kAigFalse;
    for (std::size_t t : taps) acc = aig.lxor(acc, x[t]);
    syndrome.push_back(acc);
    syn_taps.push_back(std::move(taps));
  }

  for (int o = 0; o < noutputs; ++o) {
    AigLit acc = x[rng.below(x.size())];
    // Decode term: AND of two syndrome bits (possibly complemented).
    const std::size_t s1 = rng.below(syndrome.size());
    const std::size_t s2 = rng.below(syndrome.size());
    AigLit d1 = syndrome[s1];
    AigLit d2 = syndrome[s2];
    if (rng.flip(0.5)) d1 = aig_not(d1);
    // Structurally different recomputation of syndrome s2 (reversed
    // chain) in a third of the outputs: same function, different nodes.
    if (rng.flip(0.33)) {
      AigLit redo = kAigFalse;
      const auto& taps = syn_taps[s2];
      for (auto it = taps.rbegin(); it != taps.rend(); ++it)
        redo = aig.lxor(redo, x[*it]);
      d2 = redo;
    }
    if (rng.flip(0.5)) d2 = aig_not(d2);
    acc = aig.lxor(acc, aig.land(d1, d2));
    aig.add_output(acc, "y" + std::to_string(o));
  }
  return aig;
}

Aig make_redundant_twin(int ninputs, std::uint64_t seed) {
  // The same random function built twice with different association orders
  // and polarities; the two copies are combined so both drive outputs.
  // Structural hashing cannot merge them, but OS2 substitutions can — this
  // reproduces t481's "drastic collapse" behaviour.
  Aig aig("twin");
  const auto x = add_bus(aig, "x", ninputs);
  Rng rng(seed);

  struct Term {
    std::vector<std::pair<int, bool>> lits;  // (var, complemented)
  };
  std::vector<Term> terms;
  const int nterms = 2 * ninputs;
  for (int t = 0; t < nterms; ++t) {
    Term term;
    const int width = 2 + static_cast<int>(rng.below(3));
    for (int l = 0; l < width; ++l)
      term.lits.emplace_back(static_cast<int>(rng.below(
                                 static_cast<std::uint64_t>(ninputs))),
                             rng.flip(0.5));
    terms.push_back(std::move(term));
  }

  auto build = [&](bool reversed, bool demorgan) -> AigLit {
    std::vector<AigLit> ands;
    for (const Term& term : terms) {
      std::vector<AigLit> lits;
      for (auto [v, c] : term.lits) {
        AigLit l = x[static_cast<std::size_t>(v)];
        if (c) l = aig_not(l);
        lits.push_back(l);
      }
      if (reversed) std::reverse(lits.begin(), lits.end());
      ands.push_back(aig.land_many(lits));
    }
    if (reversed) std::reverse(ands.begin(), ands.end());
    if (!demorgan) return aig.lor_many(std::move(ands));
    // OR via linear (not balanced) chain — different structure, same
    // function.
    AigLit acc = kAigFalse;
    for (AigLit a : ands) acc = aig.lor(acc, a);
    return acc;
  };

  const AigLit f1 = build(false, false);
  const AigLit f2 = build(true, true);
  // Both outputs equal f1, but each structurally uses both copies, so the
  // initial mapping keeps the whole doubled cone alive.
  aig.add_output(aig.land(f1, f2), "f");
  aig.add_output(aig.lor(f1, f2), "g");
  return aig;
}

Aig make_priority_interrupt(int channels) {
  Aig aig("pic" + std::to_string(channels));
  const auto req = add_bus(aig, "r", channels);
  const auto mask = add_bus(aig, "m", channels);
  const AigLit master_en = aig.add_input("en");
  int width = 0;
  while ((1 << width) < channels) ++width;

  // active[i] = r[i] & !m[i] & en; highest index wins.
  std::vector<AigLit> active;
  for (int i = 0; i < channels; ++i)
    active.push_back(aig.land(
        aig.land(req[static_cast<std::size_t>(i)],
                 aig_not(mask[static_cast<std::size_t>(i)])),
        master_en));

  // grant[i] = active[i] & none of the higher channels active.
  AigLit higher = kAigFalse;
  std::vector<AigLit> grant(static_cast<std::size_t>(channels), kAigFalse);
  for (int i = channels - 1; i >= 0; --i) {
    grant[static_cast<std::size_t>(i)] =
        aig.land(active[static_cast<std::size_t>(i)], aig_not(higher));
    higher = aig.lor(higher, active[static_cast<std::size_t>(i)]);
  }

  // Encoded index of the granted channel.
  for (int b = 0; b < width; ++b) {
    std::vector<AigLit> ors;
    for (int i = 0; i < channels; ++i)
      if ((i >> b) & 1) ors.push_back(grant[static_cast<std::size_t>(i)]);
    aig.add_output(aig.lor_many(std::move(ors)), "v" + std::to_string(b));
  }
  aig.add_output(higher, "valid");
  // Parity of raw requests (interrupt-bus check bit).
  AigLit par = kAigFalse;
  for (AigLit r : req) par = aig.lxor(par, r);
  aig.add_output(par, "par");
  return aig;
}

Aig make_feistel(int half_width, int rounds, std::uint64_t seed) {
  POWDER_CHECK(half_width % 4 == 0);
  Aig aig("feistel");
  auto left = add_bus(aig, "l", half_width);
  auto right = add_bus(aig, "r", half_width);
  const auto key = add_bus(aig, "k", half_width * rounds);

  // Fixed 4-bit S-box derived from the seed (a permutation of 0..15).
  Rng rng(seed);
  std::array<int, 16> sbox;
  for (int i = 0; i < 16; ++i) sbox[static_cast<std::size_t>(i)] = i;
  for (int i = 15; i > 0; --i)
    std::swap(sbox[static_cast<std::size_t>(i)],
              sbox[rng.below(static_cast<std::uint64_t>(i + 1))]);

  auto sbox_bit = [&](const std::vector<AigLit>& in, int out_bit) {
    // Sum-of-minterms over the 4 inputs.
    std::vector<AigLit> terms;
    for (int m = 0; m < 16; ++m) {
      if (!((sbox[static_cast<std::size_t>(m)] >> out_bit) & 1)) continue;
      std::vector<AigLit> lits;
      for (int b = 0; b < 4; ++b)
        lits.push_back((m >> b) & 1 ? in[static_cast<std::size_t>(b)]
                                    : aig_not(in[static_cast<std::size_t>(b)]));
      terms.push_back(aig.land_many(lits));
    }
    return aig.lor_many(std::move(terms));
  };

  for (int round = 0; round < rounds; ++round) {
    // f(right, k) = P(S(right ^ k)) with a bit-rotation as P.
    std::vector<AigLit> mixed;
    for (int b = 0; b < half_width; ++b)
      mixed.push_back(aig.lxor(
          right[static_cast<std::size_t>(b)],
          key[static_cast<std::size_t>(round * half_width + b)]));
    std::vector<AigLit> substituted(static_cast<std::size_t>(half_width));
    for (int nib = 0; nib < half_width / 4; ++nib) {
      std::vector<AigLit> in(mixed.begin() + 4 * nib,
                             mixed.begin() + 4 * nib + 4);
      for (int b = 0; b < 4; ++b)
        substituted[static_cast<std::size_t>(4 * nib + b)] = sbox_bit(in, b);
    }
    std::vector<AigLit> f(static_cast<std::size_t>(half_width));
    for (int b = 0; b < half_width; ++b)
      f[static_cast<std::size_t>(b)] =
          substituted[static_cast<std::size_t>((b + 5) % half_width)];
    // (L, R) <- (R, L ^ f(R, k)).
    std::vector<AigLit> new_right(static_cast<std::size_t>(half_width));
    for (int b = 0; b < half_width; ++b)
      new_right[static_cast<std::size_t>(b)] =
          aig.lxor(left[static_cast<std::size_t>(b)],
                   f[static_cast<std::size_t>(b)]);
    left = right;
    right = std::move(new_right);
  }
  for (int b = 0; b < half_width; ++b)
    aig.add_output(left[static_cast<std::size_t>(b)],
                   "ol" + std::to_string(b));
  for (int b = 0; b < half_width; ++b)
    aig.add_output(right[static_cast<std::size_t>(b)],
                   "or" + std::to_string(b));
  return aig;
}

Aig make_barrel_rotator(int width) {
  Aig aig("rot" + std::to_string(width));
  const auto data = add_bus(aig, "d", width);
  int stages = 0;
  while ((1 << stages) < width) ++stages;
  const auto amount = add_bus(aig, "s", stages);

  std::vector<AigLit> bus = data;
  for (int st = 0; st < stages; ++st) {
    const int shift = 1 << st;
    std::vector<AigLit> next(static_cast<std::size_t>(width));
    for (int b = 0; b < width; ++b)
      next[static_cast<std::size_t>(b)] =
          aig.lmux(amount[static_cast<std::size_t>(st)],
                   bus[static_cast<std::size_t>((b + width - shift) % width)],
                   bus[static_cast<std::size_t>(b)]);
    bus = std::move(next);
  }
  for (int b = 0; b < width; ++b)
    aig.add_output(bus[static_cast<std::size_t>(b)],
                   "q" + std::to_string(b));
  return aig;
}

SopNetwork make_random_pla(const std::string& name, int ninputs, int noutputs,
                           int ncubes, std::uint64_t seed) {
  Rng rng(seed);
  SopNetwork sop;
  sop.name = name;
  for (int i = 0; i < ninputs; ++i)
    sop.input_names.push_back("x" + std::to_string(i));
  for (int o = 0; o < noutputs; ++o) {
    sop.output_names.push_back("y" + std::to_string(o));
    sop.outputs.emplace_back(ninputs);
  }
  // Controller-class structure: every output has a small *support window*
  // of inputs; neighbouring outputs use overlapping windows. Cubes are
  // dense within the window, so they overlap and contain one another —
  // that is the observability-don't-care-rich character of the MCNC
  // controller PLAs this generator stands in for.
  const int support =
      std::min(ninputs, 9 + static_cast<int>(rng.below(6)));  // 9..14 vars
  auto window_var = [&](int o, int k) {
    // Window of `support` inputs starting at a per-output offset; stride
    // smaller than the window so adjacent outputs share most of it.
    const int stride = std::max(1, support / 3);
    return ((o * stride) % std::max(1, ninputs - support + 1)) + k;
  };
  std::vector<Cube> pool;
  const int cubes_per_output =
      std::clamp(ncubes / std::max(1, noutputs), 2, 7);
  for (int o = 0; o < noutputs; ++o) {
    Cover& cover = sop.outputs[static_cast<std::size_t>(o)];
    for (int c = 0; c < cubes_per_output; ++c) {
      Cube cube(ninputs);
      const int width = 2 + static_cast<int>(rng.below(4));  // 2..5 literals
      for (int l = 0; l < width; ++l) {
        const int v = window_var(
            o, static_cast<int>(rng.below(static_cast<std::uint64_t>(support))));
        cube.set_lit(v, rng.flip(0.5) ? Lit::kOne : Lit::kZero);
      }
      cover.add(cube);
      pool.push_back(cube);
      // Specialization (extra literal) of the same cube on another output:
      // contained wherever both are observed, i.e. a planted ODC.
      if (rng.flip(0.55) && noutputs > 1) {
        Cube narrow = cube;
        const int v = window_var(
            o, static_cast<int>(rng.below(static_cast<std::uint64_t>(support))));
        if (narrow.lit(v) == Lit::kDash)
          narrow.set_lit(v, rng.flip(0.5) ? Lit::kOne : Lit::kZero);
        const int other = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(noutputs)));
        sop.outputs[static_cast<std::size_t>(other)].add(std::move(narrow));
      }
    }
  }
  // Correlated outputs: some outputs are near-copies of a neighbour (cube
  // list with a few drops/additions), the way decoded controller outputs
  // overlap. This feeds OS2/IS2 resubstitution across output cones.
  for (int o = 1; o < noutputs; ++o) {
    if (!rng.flip(0.45)) continue;
    const int src = o - 1;
    Cover derived(ninputs);
    for (const Cube& c : sop.outputs[static_cast<std::size_t>(src)].cubes())
      if (!rng.flip(0.25)) derived.add(c);
    const int extra = static_cast<int>(rng.below(3));
    for (int e = 0; e < extra && !pool.empty(); ++e)
      derived.add(pool[rng.below(pool.size())]);
    if (!derived.empty())
      sop.outputs[static_cast<std::size_t>(o)] = std::move(derived);
  }
  // Guarantee every output is non-trivial.
  for (int o = 0; o < noutputs; ++o) {
    if (!sop.outputs[static_cast<std::size_t>(o)].empty()) continue;
    Cube cube(ninputs);
    cube.set_lit(static_cast<int>(rng.below(
                     static_cast<std::uint64_t>(ninputs))),
                 Lit::kOne);
    cube.set_lit(static_cast<int>(rng.below(
                     static_cast<std::uint64_t>(ninputs))),
                 Lit::kZero);
    sop.outputs[static_cast<std::size_t>(o)].add(cube);
  }
  return sop;
}

Aig make_random_logic(const std::string& name, int ninputs, int noutputs,
                      int nands, std::uint64_t seed) {
  Aig aig(name);
  Rng rng(seed);
  std::vector<AigLit> pool = add_bus(aig, "x", ninputs);
  const std::size_t base = pool.size();
  auto pick = [&]() {
    // Bias toward recent nodes for a layered, deep structure.
    const std::size_t n = pool.size();
    std::size_t idx;
    if (n > base && rng.flip(0.7))
      idx = n - 1 - rng.below(std::min<std::uint64_t>(n - base, 24));
    else
      idx = rng.below(n);
    AigLit l = pool[idx];
    if (rng.flip(0.45)) l = aig_not(l);
    return l;
  };
  while (aig.num_ands() < nands) {
    const double roll = rng.uniform();
    AigLit made;
    if (roll < 0.58) {
      made = aig.land(pick(), pick());
    } else if (roll < 0.70) {
      made = aig.lxor(pick(), pick());
    } else if (roll < 0.78) {
      made = aig.lmux(pick(), pick(), pick());
    } else if (roll < 0.88) {
      // Locally reducible idiom: f = a & (a | b) (== a) or
      // f = a ^ (a & b) (== a & !b). Structural hashing does not simplify
      // these; they are exactly the observability-don't-care food POWDER
      // lives on.
      const AigLit a = pick();
      const AigLit b = pick();
      made = rng.flip(0.5) ? aig.land(a, aig.lor(a, b))
                           : aig.lxor(a, aig.land(a, b));
    } else {
      // Structural twin wider than the mapper's cut size: the same
      // 5-input function built in two different shapes, both kept live.
      // The mapper cannot merge them (different structure, too wide for
      // one cut); only a resubstitution pass like POWDER can — real
      // netlists are full of such cross-module duplication.
      const AigLit a = pick(), b = pick(), c = pick(), d = pick(),
                   e = pick();
      const AigLit p = aig.land(a, b);
      const AigLit q = aig.land(c, d);
      // Two association orders of p | q | e: structural hashing cannot
      // merge them because the intermediate OR nodes differ.
      const AigLit t1 = aig.lor(aig.lor(p, q), e);
      const AigLit t2 = aig.lor(aig.lor(p, e), q);
      if (t1 > kAigTrue && t1 != t2) pool.push_back(t1);
      made = t2;
    }
    if (made > kAigTrue) pool.push_back(made);
  }
  // Outputs from the deep end of the pool, ensuring variety.
  for (int o = 0; o < noutputs; ++o) {
    const std::size_t span = std::max<std::size_t>(pool.size() - base, 1);
    const std::size_t idx =
        base + (span - 1) - rng.below(std::min<std::uint64_t>(span, 64));
    AigLit l = pool[std::min(idx, pool.size() - 1)];
    if (rng.flip(0.3)) l = aig_not(l);
    aig.add_output(l, "y" + std::to_string(o));
  }
  return aig;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {

std::uint64_t name_seed(const std::string& name) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (char c : name) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001B3ull;
  }
  return h;
}

Aig from_pla(const std::string& name, int in, int out, int cubes) {
  FlowOptions opt;
  return synthesize(make_random_pla(name, in, out, cubes, name_seed(name)),
                    opt);
}

using MakeFn = std::function<Aig()>;

const std::map<std::string, MakeFn>& registry() {
  static const auto* kMap = new std::map<std::string, MakeFn>{
      // --- exact functional generators --------------------------------
      {"comp", [] { return make_comparator(8); }},
      {"Z5xp1", [] { return make_multiplier(3); }},
      {"clip", [] { return make_clip(9, 5); }},
      {"f51m", [] { return make_multiplier(4); }},
      {"rd84", [] { return make_rd(8); }},
      {"9sym", [] { return make_symmetric(9, 3, 6); }},
      {"9symml", [] { return make_symmetric(9, 3, 6); }},
      {"Z9sym", [] { return make_symmetric(9, 2, 5); }},
      {"alu2", [] { return make_alu(2); }},
      {"alu4", [] { return make_alu(4); }},
      {"alu4tl", [] { return make_alu(3); }},
      {"t481", [] { return make_redundant_twin(16, name_seed("t481")); }},
      {"C1355",
       [] { return make_xor_ecc(41, 32, name_seed("C1355")); }},
      {"C1908",
       [] { return make_xor_ecc(33, 25, name_seed("C1908")); }},
      {"dalu", [] { return make_alu(6); }},
      // --- PLA-class (seeded synthetic) --------------------------------
      {"frg1", [] { return from_pla("frg1", 28, 3, 60); }},
      {"term1", [] { return from_pla("term1", 34, 10, 90); }},
      {"bw", [] { return from_pla("bw", 5, 28, 40); }},
      {"ttt2", [] { return from_pla("ttt2", 24, 21, 140); }},
      {"i2", [] { return from_pla("i2", 100, 1, 70); }},
      {"x1", [] { return from_pla("x1", 51, 35, 240); }},
      {"example2", [] { return from_pla("example2", 85, 66, 330); }},
      {"ex5", [] { return from_pla("ex5", 8, 63, 250); }},
      {"x4", [] { return from_pla("x4", 94, 71, 380); }},
      {"duke2", [] { return from_pla("duke2", 22, 29, 180); }},
      {"pdc", [] { return from_pla("pdc", 16, 40, 220); }},
      {"ex4", [] { return from_pla("ex4", 94, 28, 200); }},
      {"spla", [] { return from_pla("spla", 16, 46, 280); }},
      {"vda", [] { return from_pla("vda", 17, 39, 260); }},
      {"misex3", [] { return from_pla("misex3", 14, 14, 160); }},
      {"frg2", [] { return from_pla("frg2", 80, 70, 420); }},
      {"apex5", [] { return from_pla("apex5", 90, 70, 450); }},
      {"i8", [] { return from_pla("i8", 100, 60, 480); }},
      {"table5", [] { return from_pla("table5", 17, 15, 180); }},
      {"cps", [] { return from_pla("cps", 24, 80, 500); }},
      {"k2", [] { return from_pla("k2", 45, 45, 520); }},
      {"apex1", [] { return from_pla("apex1", 45, 45, 560); }},
      {"des", [] { return make_feistel(32, 3, name_seed("des")); }},
      // --- ISCAS-class (seeded synthetic netlists) ---------------------
      {"c8",
       [] { return make_random_logic("c8", 28, 18, 140, name_seed("c8")); }},
      {"C432", [] { return make_priority_interrupt(16); }},
      {"apex7",
       [] {
         return make_random_logic("apex7", 49, 37, 230, name_seed("apex7"));
       }},
      {"C880",
       [] {
         return make_random_logic("C880", 60, 26, 300, name_seed("C880"));
       }},
      {"rot", [] { return make_barrel_rotator(48); }},
      {"apex6",
       [] {
         return make_random_logic("apex6", 120, 90, 430, name_seed("apex6"));
       }},
      {"x3",
       [] { return make_random_logic("x3", 120, 90, 400, name_seed("x3")); }},
      {"C5315",
       [] {
         return make_random_logic("C5315", 140, 100, 650,
                                  name_seed("C5315"));
       }},
      {"pair",
       [] {
         return make_random_logic("pair", 130, 110, 600, name_seed("pair"));
       }},
  };
  return *kMap;
}

}  // namespace

std::vector<std::string> table1_suite() {
  // Paper order (Table 1, sorted by initial area).
  return {
      "comp",   "Z5xp1",    "clip", "frg1",  "c8",     "term1", "f51m",
      "rd84",   "bw",       "ttt2", "C432",  "i2",     "Z9sym", "apex7",
      "alu4tl", "9sym",     "9symml", "x1",  "example2", "ex5", "alu2",
      "x4",     "C880",     "C1355", "duke2", "pdc",   "C1908", "ex4",
      "t481",   "rot",      "spla", "vda",   "misex3", "frg2",  "alu4",
      "apex6",  "x3",       "apex5", "dalu", "i8",     "table5", "cps",
      "k2",     "C5315",    "apex1", "pair", "des",
  };
}

std::vector<std::string> fig6_suite() {
  return {"comp", "Z5xp1", "clip", "f51m", "rd84", "9sym",
          "ttt2", "duke2", "misex3", "alu2", "t481", "bw",
          "spla", "vda",  "table5", "pdc",  "ex5",  "apex1"};
}

std::vector<std::string> quick_suite() {
  return {"comp", "Z5xp1", "rd84", "misex3", "duke2", "t481"};
}

bool is_known_benchmark(const std::string& name) {
  return registry().count(name) > 0;
}

Aig make_benchmark(const std::string& name) {
  const auto it = registry().find(name);
  POWDER_CHECK_MSG(it != registry().end(), "unknown benchmark " << name);
  Aig aig = it->second();
  aig.set_name(name);
  return aig;
}

Netlist make_scale_netlist(int num_gates, std::uint64_t seed) {
  POWDER_CHECK_MSG(num_gates >= 10,
                   "make_scale_netlist needs at least one 10-gate tile, got "
                       << num_gates);
  const std::shared_ptr<const CellLibrary> lib = CellLibrary::standard_shared();
  Netlist nl(lib, "scale" + std::to_string(num_gates));
  const std::vector<CellId>& two_in = lib->two_input_cells();
  POWDER_CHECK(!two_in.empty());
  Rng rng(seed);

  const int tiles = num_gates / 10;
  // Shared PI pool, stride 4: neighbouring tiles overlap on half their
  // inputs, so their signals are correlated.
  const int pool = std::min(4096, std::max(16, num_gates / 50));
  std::vector<GateId> pis;
  pis.reserve(static_cast<std::size_t>(pool));
  for (int i = 0; i < pool; ++i)
    pis.push_back(nl.add_input("pi" + std::to_string(i)));

  const CellId and2 = lib->find("and2");
  for (int t = 0; t < tiles; ++t) {
    const auto pi = [&](int j) { return pis[(4 * t + j) % pool]; };
    const CellId g = two_in[rng.below(two_in.size())];
    const std::string p = "t" + std::to_string(t) + "_";
    // Ten gates per tile with two planted, provable gains: r1 computes
    // exactly a1, so r2's input is OS2-substitutable by a1 and r1 becomes
    // sweepable (a pair-class win); k2 = and2(and2(pi4,pi5), pi6) computes
    // exactly and3(pi4,pi5,pi6) with a single-fanout intermediate, a cone
    // only a k-input resubstitution (OSK, k=3) can collapse — no pair
    // class can express a 3-input function of primary inputs.
    const GateId a1 = nl.add_gate(g, {pi(0), pi(1)}, p + "a1");
    const GateId a2 = nl.add_gate(g, {pi(2), pi(3)}, p + "a2");
    const GateId a3 = nl.add_gate(g, {pi(6), pi(7)}, p + "a3");
    const GateId b1 = nl.add_gate(g, {a1, a2}, p + "b1");
    const GateId k1 = nl.add_gate(and2, {pi(4), pi(5)}, p + "k1");
    const GateId k2 = nl.add_gate(and2, {k1, pi(6)}, p + "k2");
    const GateId c1 = nl.add_gate(g, {b1, k2}, p + "c1");
    const GateId r1 = nl.add_gate(g, {pi(0), pi(1)}, p + "r1");
    const GateId r2 = nl.add_gate(g, {r1, pi(2)}, p + "r2");
    const GateId c2 = nl.add_gate(g, {r2, a3}, p + "c2");
    nl.add_output(p + "o1", c1);
    nl.add_output(p + "o2", c2);
  }
  return nl;
}

}  // namespace powder
