#pragma once
// Deterministic benchmark-circuit generators.
//
// The paper evaluates on MCNC'91 / ISCAS'85 circuits that are not
// redistributable here, so this module builds *synthetic stand-ins* with
// the same names, matched input/output counts, and the same structural
// character (see DESIGN.md §4):
//  * arithmetic/symmetric circuits (comp, rd84, 9sym, f51m, alu*, clip,
//    Z5xp1, t481, C1355-like) are generated exactly from their defining
//    functions;
//  * PLA-class circuits (duke2, misex3, apex*, spla, ...) are seeded
//    random multi-output PLAs with shared cubes;
//  * ISCAS-class netlists (C432 ... C5315, rot, pair, des) are seeded
//    random AIGs with locally reducible (ODC-rich) idioms mixed in.
// Every generator is pure: same name -> same circuit, on every platform.

#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "flow/flow.hpp"
#include "netlist/netlist.hpp"

namespace powder {

/// All Table-1 circuit names in the paper's order (sorted by initial area).
std::vector<std::string> table1_suite();

/// The 18-circuit subset used for the Figure-6 power-delay trade-off.
std::vector<std::string> fig6_suite();

/// A small suite for quick smoke runs (seconds, not minutes).
std::vector<std::string> quick_suite();

/// Builds the named benchmark as an AIG. Throws CheckError for unknown
/// names.
Aig make_benchmark(const std::string& name);

/// True if `name` is in the registry.
bool is_known_benchmark(const std::string& name);

// ---- reusable circuit constructors (also handy for tests/examples) ------

/// n-bit magnitude comparator: outputs (a>b, a==b, a<b).
Aig make_comparator(int nbits);
/// Ripple-carry adder: a[n] + b[n] + cin -> sum[n], cout.
Aig make_adder(int nbits);
/// Array multiplier: a[n] * b[n] -> p[2n].
Aig make_multiplier(int nbits);
/// Count-of-ones (rd-class): n inputs -> ceil(log2(n+1)) sum bits.
Aig make_rd(int ninputs);
/// Symmetric threshold: 1 iff popcount(x) in [lo, hi].
Aig make_symmetric(int ninputs, int lo, int hi);
/// Odd parity of n inputs.
Aig make_parity(int ninputs);
/// Small ALU: op(2 bits) selects a+b / a-b / a&b / a^b over n-bit operands.
Aig make_alu(int nbits);
/// Saturating |x - bias| >> shift clipper (clip-like).
Aig make_clip(int ninputs, int noutputs);
/// XOR-dominated ECC-style network (C1355-like).
Aig make_xor_ecc(int ninputs, int noutputs, std::uint64_t seed);
/// Function built twice with different structure and ANDed — massively
/// redundant on purpose (t481-like; POWDER should collapse one copy).
Aig make_redundant_twin(int ninputs, std::uint64_t seed);
/// Priority interrupt controller (C432-like): masked requests, encoded
/// index of the highest-priority active channel, valid + parity flags.
Aig make_priority_interrupt(int channels);
/// Feistel block-cipher round network (des-like): 4-bit S-boxes from a
/// seeded fixed table, XOR key mixing, `rounds` rounds over 2x`half` bits.
Aig make_feistel(int half_width, int rounds, std::uint64_t seed);
/// Barrel rotator (rot-like): log-stage left-rotate of `width` bits by a
/// binary-encoded amount.
Aig make_barrel_rotator(int width);
/// Seeded random multi-output PLA, synthesized through the standard flow
/// front end (two-level minimization off for wide covers).
SopNetwork make_random_pla(const std::string& name, int ninputs, int noutputs,
                           int ncubes, std::uint64_t seed);
/// Seeded random AIG with injected locally-reducible idioms.
Aig make_random_logic(const std::string& name, int ninputs, int noutputs,
                      int nands, std::uint64_t seed);

/// Large already-mapped netlist for scaling experiments (10^5-10^6 gates):
/// `num_gates/10` independent 10-gate tiles over a shared primary-input
/// pool, each containing a duplicated cone (an OS2 opportunity the
/// optimizer can collapse). The fanout-bounded tile structure keeps proof
/// cones shallow, so runtime scales with per-candidate work, not depth.
/// Built directly against CellLibrary::standard_shared() — no mapping pass,
/// so even a 10^6-gate instance constructs in well under a second.
Netlist make_scale_netlist(int num_gates, std::uint64_t seed = 1);

}  // namespace powder
