// Generalized-resubstitution tests (DESIGN.md §12): k-input
// resubstitution harvests kCell candidates, its commits roll back exactly
// through the journal, runs stay bit-identical across thread counts, and
// OSK/ISK commits round-trip through the WAL's kCommit frames: a resume
// from any frame boundary reproduces the uninterrupted run bit for bit.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchgen/benchmarks.hpp"
#include "io/blif.hpp"
#include "mapper/mapper.hpp"
#include "opt/candidates.hpp"
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
    return base_options().max_divisors(3);
  };
  const RunResult serial = run(input, opts().threads(1));
  const RunResult parallel = run(input, opts().threads(8));
  expect_same_outcome(parallel, serial);
  ASSERT_GT(serial.report.substitutions_applied, 0);
}

// --- WAL round-trip with kCell commit frames ------------------------------

/// Z5xp1 at max_divisors 3: under base_options() the loop commits OSK/ISK
/// transforms among its pair-class ones, so a resume replays kCell frames.
PowderOptions::Builder k_options() { return base_options().max_divisors(3); }

long k_commits(const WalContents& contents) {
  long n = 0;
  for (const WalCommit& c : contents.commits)
    if (c.cand.rep.kind == ReplacementFunction::Kind::kCell) ++n;
  return n;
}

TEST(ResubRecovery, KCellCommitsRoundTripThroughWal) {
  const Netlist input = make_input("Z5xp1");
  const RunResult ref = run(input, k_options());
  const auto& by_class = ref.report.by_class;
  ASSERT_GE(by_class[static_cast<std::size_t>(ResubClass::kOSK)].applied +
                by_class[static_cast<std::size_t>(ResubClass::kISK)].applied,
            1);

  const std::string wal = temp_path("kcell_roundtrip");
  const RunResult chk = run(input, k_options().checkpoint_out(wal));
  expect_same_outcome(chk, ref);

  const WalContents contents = read_wal(wal);
  EXPECT_EQ(contents.status, WalReadStatus::kClean);
  EXPECT_TRUE(contents.has_header);
  EXPECT_TRUE(contents.ended);
  EXPECT_EQ(static_cast<long>(contents.commits.size()),
            chk.report.diagnostics.checkpoint_frames);
  EXPECT_GE(k_commits(contents), 1);

  // Resuming the complete log replays every commit, kCell ones included;
  // nothing may change.
  const RunResult res = run(input, k_options().resume_from(wal));
  expect_same_outcome(res, ref);
  EXPECT_EQ(res.report.diagnostics.resume_replayed,
            static_cast<long>(contents.commits.size()));
  fs::remove(wal);
}

// A crash can land between any two frames; the fsynced prefix must resume
// bit-identically wherever it ends, before or after a kCell commit.
TEST(ResubRecovery, ResumeFromEveryFrameBoundaryIsBitIdentical) {
  const Netlist input = make_input("Z5xp1");
  const RunResult ref = run(input, k_options());

  const std::string wal = temp_path("kcell_boundaries");
  (void)run(input, k_options().checkpoint_out(wal));
  const WalContents full = read_wal(wal);
  ASSERT_GE(k_commits(full), 1);

  const std::string prefix_path = temp_path("kcell_prefix");
  for (std::size_t k = 0; k <= full.commits.size(); ++k) {
    std::string image =
        encode_frame(WalFrameType::kHeader, encode_header(full.header));
    for (std::size_t i = 0; i < k; ++i)
      image += encode_frame(WalFrameType::kCommit,
                            encode_commit(full.commits[i]));
    {
      std::ofstream out(prefix_path, std::ios::binary | std::ios::trunc);
      out << image;
    }
    const RunResult res = run(input, k_options().resume_from(prefix_path));
    EXPECT_EQ(res.blif, ref.blif) << "resume after " << k << " frames";
    EXPECT_DOUBLE_EQ(res.report.final_power, ref.report.final_power)
        << "resume after " << k << " frames";
    EXPECT_EQ(res.report.diagnostics.resume_replayed, static_cast<long>(k));
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
