// Generalized-resubstitution tests (DESIGN.md §12): the functional-
// reduction pre-pass preserves circuit function, converges (a second pass
// has nothing left to merge), and its commits round-trip through the WAL's
// kPrepass frames; k-input resubstitution stays bit-identical across thread
// counts and its commits roll back exactly through the journal.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bdd/netlist_bdd.hpp"
#include "benchgen/benchmarks.hpp"
#include "io/blif.hpp"
#include "mapper/mapper.hpp"
#include "opt/candidates.hpp"
#include "opt/funcred.hpp"
#include "opt/journal.hpp"
#include "powder.hpp"
#include "session/wal.hpp"

namespace powder {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const char* stem) {
  return (fs::temp_directory_path() /
          (std::string(stem) + "." + std::to_string(::getpid()) + ".wal"))
      .string();
}

Netlist make_input(const char* bench = "duke2") {
  const auto lib = CellLibrary::standard_shared();
  Netlist nl = map_aig(make_benchmark(bench), *lib);
  nl.adopt_library(lib);
  return nl;
}

/// A netlist with planted signature classes: a duplicated AND cone and a
/// complementary AND/NAND pair. Funcred must find both deterministically,
/// which makes it the fixture for prepass-frame round-trip tests.
Netlist make_planted() {
  const auto lib = CellLibrary::standard_shared();
  Netlist nl(lib, "planted");
  const auto cell = [&](const char* name) { return lib->find(name); };
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c = nl.add_input("c");
  const GateId d = nl.add_input("d");
  const GateId g1 = nl.add_gate(cell("and2"), {a, b});
  const GateId g2 = nl.add_gate(cell("and2"), {a, b});  // duplicate of g1
  const GateId n1 = nl.add_gate(cell("nand2"), {c, d});
  const GateId p1 = nl.add_gate(cell("and2"), {c, d});  // complement of n1
  const GateId h1 = nl.add_gate(cell("or2"), {g1, c});
  const GateId h2 = nl.add_gate(cell("or2"), {g2, d});
  const GateId h3 = nl.add_gate(cell("xor2"), {n1, a});
  const GateId h4 = nl.add_gate(cell("and2"), {p1, b});
  nl.add_output("o1", h1);
  nl.add_output("o2", h2);
  nl.add_output("o3", h3);
  nl.add_output("o4", h4);
  return nl;
}

PowderOptions::Builder base_options() {
  return PowderOptions::builder()
      .patterns(1024)
      .repeat(10)
      .max_outer_iterations(3)
      .seed(7);
}

struct RunResult {
  std::string blif;
  PowderReport report;
  long long audit_lines = 0;
};

RunResult run(const Netlist& input, PowderOptions::Builder builder) {
  Netlist nl = input;
  std::ostringstream audit_os;
  AuditLog audit(&audit_os);
  RunResult rr;
  rr.report = optimize(nl, builder.audit(&audit).build());
  rr.blif = write_blif(nl);
  rr.audit_lines = audit.records();
  return rr;
}

void expect_same_outcome(const RunResult& got, const RunResult& want) {
  EXPECT_EQ(got.blif, want.blif);
  EXPECT_DOUBLE_EQ(got.report.final_power, want.report.final_power);
  EXPECT_DOUBLE_EQ(got.report.final_area, want.report.final_area);
  EXPECT_EQ(got.report.substitutions_applied,
            want.report.substitutions_applied);
  EXPECT_EQ(got.audit_lines, want.audit_lines);
}

// --- functional reduction -------------------------------------------------

TEST(Funcred, MergesPlantedEquivalencesAndPreservesFunction) {
  const Netlist input = make_planted();
  Netlist nl = input;
  const PowderReport report =
      optimize(nl, base_options().funcred(true).build());
  nl.check_consistency();
  // Both planted classes (duplicate cone, complementary pair) merge.
  EXPECT_GE(report.diagnostics.resub.funcred_merges, 2);
  EXPECT_TRUE(functionally_equivalent(input, nl));
  // The merges are visible as their own class in the per-class breakdown.
  const auto& fr =
      report.by_class[static_cast<std::size_t>(ResubClass::kFuncRed)];
  EXPECT_EQ(fr.applied, report.diagnostics.resub.funcred_merges);
}

TEST(Funcred, SecondPassIsIdempotent) {
  const Netlist pristine = make_planted();
  Netlist nl = pristine;
  Simulator sim(nl, 512);
  SubstJournal journal(&nl);
  FuncredHooks hooks;
  // Planted classes are exact duplicates; the 512-pattern word compare is
  // the arbiter and the proof hook just accepts. The equivalence check at
  // the end would catch any unsound merge this lets through.
  hooks.prove = [](const CandidateSub&) { return true; };

  const FuncredStats first = functional_reduction(nl, sim, journal, hooks);
  EXPECT_GE(first.merged, 2);
  nl.check_consistency();
  EXPECT_TRUE(functionally_equivalent(pristine, nl));

  // A reduced netlist has no signature classes left: the fixpoint holds.
  const FuncredStats second = functional_reduction(nl, sim, journal, hooks);
  EXPECT_EQ(second.merged, 0);
  EXPECT_EQ(second.rounds, 1);
}

TEST(Funcred, BenchmarkRunStaysEquivalent) {
  const Netlist input = make_input("Z5xp1");
  Netlist nl = input;
  const PowderReport report =
      optimize(nl, base_options().funcred(true).build());
  nl.check_consistency();
  EXPECT_TRUE(functionally_equivalent(input, nl));
  EXPECT_GE(report.diagnostics.resub.funcred_merges, 0);
}

// --- k-input resubstitution ----------------------------------------------

TEST(KResub, HarvestsKCellCandidates) {
  Netlist nl = make_input("comp");
  Simulator sim(nl, 512);
  PowerEstimator est(&sim);
  CandidateOptions opts;
  opts.resub.max_divisors = 3;
  CandidateFinder finder(nl, est, opts, /*seed=*/1);
  const std::vector<CandidateSub> cands = finder.find();

  int k_cands = 0;
  for (const CandidateSub& c : cands) {
    if (c.cls != ResubClass::kOSK && c.cls != ResubClass::kISK) continue;
    ++k_cands;
    ASSERT_EQ(c.rep.kind, ReplacementFunction::Kind::kCell);
    EXPECT_EQ(c.rep.num_sources(), 3);
  }
  EXPECT_GT(k_cands, 0) << "comp should yield OSK/ISK candidates at k=3";
}

TEST(KResub, JournalRollbackRestoresNetlistExactly) {
  Netlist nl = make_input("comp");
  Simulator sim(nl, 512);
  PowerEstimator est(&sim);
  CandidateOptions opts;
  opts.resub.max_divisors = 3;
  CandidateFinder finder(nl, est, opts, /*seed=*/1);
  const std::vector<CandidateSub> cands = finder.find();

  const CandidateSub* k_cand = nullptr;
  for (const CandidateSub& c : cands) {
    if (c.cls == ResubClass::kOSK || c.cls == ResubClass::kISK) {
      k_cand = &c;
      break;
    }
  }
  ASSERT_NE(k_cand, nullptr);

  const std::string before = write_blif(nl);
  SubstJournal journal(&nl);
  const AppliedSub& applied = journal.apply(*k_cand);
  nl.check_consistency();
  EXPECT_NE(applied.new_gate, kNullGate) << "kCell commits insert a gate";
  EXPECT_NE(write_blif(nl), before);

  journal.rollback_last();
  nl.check_consistency();
  EXPECT_EQ(write_blif(nl), before);
}

// --- determinism across thread counts ------------------------------------

TEST(ResubDeterminism, GlobalThreadsOneAndEightBitIdentical) {
  const Netlist input = make_input();
  const auto opts = [] {
    return base_options().funcred(true).max_divisors(3);
  };
  const RunResult serial = run(input, opts().threads(1));
  const RunResult parallel = run(input, opts().threads(8));
  expect_same_outcome(parallel, serial);
  ASSERT_GT(serial.report.substitutions_applied, 0);
}

// --- WAL round-trip with prepass frames -----------------------------------

TEST(ResubRecovery, PrepassFramesRoundTripThroughWal) {
  const Netlist input = make_planted();
  const RunResult ref = run(input, base_options().funcred(true));
  ASSERT_GT(ref.report.diagnostics.resub.funcred_merges, 0);

  const std::string wal = temp_path("prepass_roundtrip");
  const RunResult chk =
      run(input, base_options().funcred(true).checkpoint_out(wal));
  expect_same_outcome(chk, ref);

  const WalContents contents = read_wal(wal);
  EXPECT_EQ(contents.status, WalReadStatus::kClean);
  EXPECT_TRUE(contents.has_header);
  EXPECT_TRUE(contents.ended);
  EXPECT_EQ(static_cast<long long>(contents.prepass.size()),
            chk.report.diagnostics.resub.funcred_merges);

  // Resuming the complete log replays prepass merges in lockstep and the
  // greedy commits after them; nothing may change.
  const RunResult res =
      run(input, base_options().funcred(true).resume_from(wal));
  expect_same_outcome(res, ref);
  fs::remove(wal);
}

// A crash can land between any two frames; the fsynced prefix must resume
// bit-identically whether it ends mid-prepass or mid-greedy-loop.
TEST(ResubRecovery, ResumeFromEveryPrepassBoundaryIsBitIdentical) {
  const Netlist input = make_planted();
  const RunResult ref = run(input, base_options().funcred(true));

  const std::string wal = temp_path("prepass_boundaries");
  (void)run(input, base_options().funcred(true).checkpoint_out(wal));
  const WalContents full = read_wal(wal);
  ASSERT_GE(full.prepass.size(), 2u);

  const std::string prefix_path = temp_path("prepass_prefix");
  // Prefixes ending inside the prepass region, then inside the commits.
  const std::size_t total = full.prepass.size() + full.commits.size();
  for (std::size_t k = 0; k <= total; ++k) {
    std::string image =
        encode_frame(WalFrameType::kHeader, encode_header(full.header));
    for (std::size_t i = 0; i < k && i < full.prepass.size(); ++i)
      image += encode_frame(WalFrameType::kPrepass,
                            encode_commit(full.prepass[i]));
    for (std::size_t i = full.prepass.size(); i < k; ++i)
      image += encode_frame(
          WalFrameType::kCommit,
          encode_commit(full.commits[i - full.prepass.size()]));
    {
      std::ofstream out(prefix_path, std::ios::binary | std::ios::trunc);
      out << image;
    }
    const RunResult res =
        run(input, base_options().funcred(true).resume_from(prefix_path));
    EXPECT_EQ(res.blif, ref.blif) << "resume after " << k << " frames";
    EXPECT_DOUBLE_EQ(res.report.final_power, ref.report.final_power)
        << "resume after " << k << " frames";
  }
  fs::remove(wal);
  fs::remove(prefix_path);
}

// --- harvest truncation diagnostics ---------------------------------------

TEST(ResubDiagnostics, TruncatedHarvestIsCounted) {
  Netlist nl = make_input("comp");
  Simulator sim(nl, 512);
  PowerEstimator est(&sim);
  CandidateOptions opts;
  opts.max_candidates = 10;  // far below comp's natural harvest
  CandidateFinder finder(nl, est, opts, /*seed=*/1);
  const std::vector<CandidateSub> cands = finder.find();
  EXPECT_EQ(cands.size(), 10u);
  EXPECT_GT(finder.last_truncated(), 0u);

  // And the full-run report surfaces the same signal.
  CandidateOptions run_opts;
  run_opts.max_candidates = 10;
  const Netlist input = make_input("comp");
  const RunResult rr = run(input, base_options().candidates(run_opts));
  EXPECT_GT(rr.report.diagnostics.resub.harvest_truncated, 0);
}

}  // namespace
}  // namespace powder
