#pragma once
// SAT-based permissibility checking — an independent decision procedure
// for the same question the PODEM checker answers.
//
// The original and modified circuits are encoded into CNF over the
// relevant cone (Tseitin with onset/offset cube covers per library cell)
// together with a miter that asserts "some observable primary output
// differs". The substitution is permissible iff the formula is
// unsatisfiable. A conflict budget plays the role of PODEM's backtrack
// limit: exceeding it is reported as kAborted and the optimizer treats
// the candidate as not permissible, exactly like the paper does with
// aborted ATPG runs.

#include "atpg/atpg.hpp"

namespace powder {

struct SatCheckerOptions {
  long conflict_budget = 20000;
  /// Optional shared run budget. Each check's conflict limit is clamped to
  /// what is left in the global pool, actual use is charged back, and a dry
  /// pool or an expired deadline aborts the check immediately.
  ResourceBudget* budget = nullptr;
  /// Optional observability sinks (borrowed); see AtpgOptions.
  TraceSession* trace = nullptr;
  MetricsRegistry* metrics = nullptr;
};

class SatChecker {
 public:
  explicit SatChecker(const Netlist& netlist, SatCheckerOptions options = {});

  AtpgResult check_replacement(const ReplacementSite& site,
                               const ReplacementFunction& rep,
                               TestVector* test = nullptr);

  struct Stats {
    long checks = 0;
    long tests_found = 0;
    long proved_untestable = 0;
    long aborted = 0;
    long total_conflicts = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  AtpgResult check_replacement_impl(const ReplacementSite& site,
                                    const ReplacementFunction& rep,
                                    TestVector* test);

  const Netlist* netlist_;
  SatCheckerOptions options_;
  Stats stats_;

  // Observability handles, resolved once at construction (null = disabled).
  class Counter* m_checks_ = nullptr;
  class Counter* m_conflicts_ = nullptr;
  class Histogram* h_check_ns_ = nullptr;
};

/// The engine used by PowderOptions to prove candidates.
///  kPodem  — the paper's choice (plain PODEM; aborts reject candidates).
///  kSat    — CNF miter, usually stronger on reconvergent/XOR-heavy logic.
///  kHybrid — PODEM first; a PODEM abort escalates to SAT. This matches
///            the effective power of the paper's TOS engine (whose clause-
///            based learning [5] goes well beyond plain PODEM) and is the
///            default.
enum class ProofEngine { kPodem, kSat, kHybrid };

/// The one permissibility proof every optimizer path runs: `engine` settles
/// the replacement (kHybrid escalates an aborted PODEM run to SAT). An
/// engine that throws a CheckError yields kAborted — a sound rejection; the
/// engines are deterministic, so retrying the same input would throw again.
/// Fault-injection site kProofTransient makes the engine throw here.
AtpgResult prove_replacement(AtpgChecker& atpg, SatChecker& sat,
                             ProofEngine engine, const ReplacementSite& site,
                             const ReplacementFunction& rep);

}  // namespace powder
