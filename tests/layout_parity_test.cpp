// Representation-parity suite for the cache-compact data plane (DESIGN.md
// §7): the seed flow must produce bit-identical netlists, reports, and
// journal-replay results after the SoA/pin-arena/name-interning refactor.
//
// Golden outputs under tests/golden/ were recorded by this same test
// running against the pre-refactor AoS representation (rerun with
// POWDER_REGEN_GOLDEN=1 to re-record). Each circuit in the quick suite is
// optimized with a fixed configuration; the golden stores the full BLIF of
// the optimized netlist plus the deterministic report fields in hexfloat,
// so any drift — a reordered fanout list, a float summed in a different
// order, a changed substitution choice — fails loudly and diffably. The
// `*.timed.*` goldens pin the same flow under the timed power model (64
// vector pairs); they were recorded with the whole-copy timed PG_C that
// the cone-local replay replaced. All goldens were re-recorded once when
// the harvest's candidate order became total and its random pools became
// per-site streams (DESIGN.md §5b).
//
// The `*.full.report` / `*.full.prom` goldens pin everything else a run
// emits: every key of `to_json()` (diagnostics and the metrics snapshot
// included) and the Prometheus export, with only the time- and RSS-valued
// entries dropped, on four configurations that between them reach every
// commit-path outcome (guard and final rollbacks, WAL replay).

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "benchgen/benchmarks.hpp"
#include "io/blif.hpp"
#include "mapper/mapper.hpp"
#include "opt/candidates.hpp"
#include "opt/journal.hpp"
#include "opt/substitution.hpp"
#include "powder.hpp"
#include "power/attribution.hpp"
#include "session/wal.hpp"
#include "sim/simulator.hpp"
#include "trace/audit.hpp"
#include "trace/progress.hpp"
#include "util/check.hpp"
#include "util/fault_injection.hpp"
#include "util/json.hpp"

namespace powder {
namespace {

#ifndef POWDER_GOLDEN_DIR
#define POWDER_GOLDEN_DIR "tests/golden"
#endif

const CellLibrary& lib() {
  static const CellLibrary* kLib = new CellLibrary(CellLibrary::standard());
  return *kLib;
}

bool regen() { return std::getenv("POWDER_REGEN_GOLDEN") != nullptr; }

std::string golden_path(const std::string& file) {
  return std::string(POWDER_GOLDEN_DIR) + "/" + file;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return {};
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  ASSERT_TRUE(os.good()) << "cannot write golden " << path;
  os << text;
}

/// Deterministic PI probability profile (mirrors bench_common.hpp's spread
/// without depending on the bench tree).
std::vector<double> pi_profile(int n) {
  std::vector<double> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    p[static_cast<std::size_t>(i)] = 0.2 + 0.6 * ((i * 7919) % 101) / 100.0;
  return p;
}

PowderOptions parity_options(int num_inputs, int threads) {
  return PowderOptions::builder()
      .patterns(512)
      .repeat(8)
      .max_outer_iterations(4)
      .seed(42)
      .threads(threads)
      .delay_limit_factor(1.15)
      .pi_probs(pi_profile(num_inputs))
      .build();
}

std::string hexd(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// The deterministic slice of the report (cpu_seconds and threading
/// accounting excluded), rendered bit-exactly.
std::string report_fingerprint(const PowderReport& r) {
  std::ostringstream os;
  os << "power " << hexd(r.initial_power) << ' ' << hexd(r.final_power)
     << "\narea " << hexd(r.initial_area) << ' ' << hexd(r.final_area)
     << "\ndelay " << hexd(r.initial_delay) << ' ' << hexd(r.final_delay)
     << "\ncounts " << r.substitutions_applied << ' ' << r.candidates_harvested
     << ' ' << r.rejected_by_delay << ' ' << r.rejected_by_atpg << ' '
     << r.rejected_stale << ' ' << r.outer_iterations << '\n';
  for (std::size_t i = 0; i < r.by_class.size(); ++i)
    os << "class" << i << ' ' << r.by_class[i].applied << ' '
       << hexd(r.by_class[i].power_delta) << ' '
       << hexd(r.by_class[i].area_delta) << '\n';
  return os.str();
}

struct FlowResultText {
  std::string blif;
  std::string report;
};

FlowResultText run_flow(const std::string& name, int threads,
                        bool timed = false) {
  Netlist nl = map_aig(make_benchmark(name), lib());
  PowderOptions opt = parity_options(nl.num_inputs(), threads);
  if (timed) {
    // The glitch-inclusive model at the benchmark's sample size: pins the
    // event-driven PG_C path the zero-delay goldens never reach.
    opt.power_model = PowerModelKind::kTimed;
    opt.glitch.num_vector_pairs = 64;
  }
  const PowderReport rep = optimize(nl, opt);
  return FlowResultText{write_blif(nl), report_fingerprint(rep)};
}

/// Journal scenario: commit a deterministic batch of substitutions, roll
/// half of them back, commit a second batch — the rollback/replay machinery
/// must reconstruct bit-identical structure.
std::string run_journal_storm(const std::string& name) {
  Netlist nl = map_aig(make_benchmark(name), lib());
  Simulator sim(nl, 512, pi_profile(nl.num_inputs()), /*seed=*/7);
  PowerEstimator est(&sim);
  CandidateFinder finder(nl, est, {}, /*seed=*/7);
  SubstJournal journal(&nl);

  auto commit_batch = [&](int want) {
    int done = 0;
    est.refresh();
    const std::vector<CandidateSub> cands = finder.find();
    for (const CandidateSub& sub : cands) {
      if (done >= want) break;
      if (!substitution_still_valid(nl, sub)) continue;
      try {
        journal.apply(sub);
      } catch (const CheckError&) {
        continue;
      }
      est.refresh();
      ++done;
    }
    return done;
  };

  const int first = commit_batch(6);
  const std::size_t mark = journal.checkpoint();
  (void)mark;
  // Roll back half of the first batch, then land a second batch on the
  // partially rewound netlist.
  for (int i = 0; i < first / 2 && !journal.empty(); ++i)
    journal.rollback_last();
  est.refresh();
  commit_batch(4);
  est.refresh();
  return write_blif(nl);
}

class LayoutParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(LayoutParityTest, SerialFlowMatchesGolden) {
  const std::string name = GetParam();
  const FlowResultText got = run_flow(name, /*threads=*/1);
  if (regen()) {
    write_file(golden_path(name + ".blif"), got.blif);
    write_file(golden_path(name + ".report"), got.report);
    GTEST_SKIP() << "golden regenerated";
  }
  const std::string want_blif = read_file(golden_path(name + ".blif"));
  const std::string want_report = read_file(golden_path(name + ".report"));
  ASSERT_FALSE(want_blif.empty()) << "missing golden for " << name
                                  << " (run with POWDER_REGEN_GOLDEN=1)";
  EXPECT_EQ(got.blif, want_blif) << "optimized netlist drifted for " << name;
  EXPECT_EQ(got.report, want_report) << "report drifted for " << name;
}

TEST_P(LayoutParityTest, ThreadedFlowMatchesGolden) {
  const std::string name = GetParam();
  if (regen()) GTEST_SKIP() << "golden regenerated by the serial case";
  const FlowResultText got = run_flow(name, /*threads=*/8);
  const std::string want_blif = read_file(golden_path(name + ".blif"));
  ASSERT_FALSE(want_blif.empty()) << "missing golden for " << name;
  EXPECT_EQ(got.blif, want_blif)
      << "threaded optimized netlist drifted for " << name;
  EXPECT_EQ(got.report, read_file(golden_path(name + ".report")));
}

TEST_P(LayoutParityTest, SerialTimedFlowMatchesGolden) {
  const std::string name = GetParam();
  const FlowResultText got = run_flow(name, /*threads=*/1, /*timed=*/true);
  if (regen()) {
    write_file(golden_path(name + ".timed.blif"), got.blif);
    write_file(golden_path(name + ".timed.report"), got.report);
    GTEST_SKIP() << "golden regenerated";
  }
  const std::string want_blif = read_file(golden_path(name + ".timed.blif"));
  ASSERT_FALSE(want_blif.empty()) << "missing timed golden for " << name
                                  << " (run with POWDER_REGEN_GOLDEN=1)";
  EXPECT_EQ(got.blif, want_blif) << "timed netlist drifted for " << name;
  EXPECT_EQ(got.report, read_file(golden_path(name + ".timed.report")))
      << "timed report drifted for " << name;
}

TEST_P(LayoutParityTest, ThreadedTimedFlowMatchesGolden) {
  const std::string name = GetParam();
  if (regen()) GTEST_SKIP() << "golden regenerated by the serial case";
  const FlowResultText got = run_flow(name, /*threads=*/8, /*timed=*/true);
  const std::string want_blif = read_file(golden_path(name + ".timed.blif"));
  ASSERT_FALSE(want_blif.empty()) << "missing timed golden for " << name;
  EXPECT_EQ(got.blif, want_blif)
      << "threaded timed netlist drifted for " << name;
  EXPECT_EQ(got.report, read_file(golden_path(name + ".timed.report")));
}

TEST_P(LayoutParityTest, JournalStormMatchesGolden) {
  const std::string name = GetParam();
  const std::string got = run_journal_storm(name);
  if (regen()) {
    write_file(golden_path(name + ".storm.blif"), got);
    GTEST_SKIP() << "golden regenerated";
  }
  const std::string want = read_file(golden_path(name + ".storm.blif"));
  ASSERT_FALSE(want.empty()) << "missing storm golden for " << name;
  EXPECT_EQ(got, want) << "journal commit/rollback drifted for " << name;
}

INSTANTIATE_TEST_SUITE_P(QuickSuite, LayoutParityTest,
                         ::testing::ValuesIn(quick_suite()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// The whole report and metrics export

/// One line per JSON leaf, "path value", in document order. Time- and
/// RSS-valued keys and the metrics histograms (latency buckets) are dropped;
/// numbers print with 17 significant digits, which round-trips the
/// report's own precision-17 rendering exactly.
void flatten_json(const JsonValue& v, const std::string& path,
                  std::ostringstream& os) {
  if (v.is_object()) {
    for (const auto& [key, child] : v.members()) {
      if (key == "cpu_seconds" || key == "peak_rss_bytes") continue;
      if (path == "metrics" && child.is_object()) continue;  // histogram
      flatten_json(child, path.empty() ? key : path + "." + key, os);
    }
    return;
  }
  os << path << ' ';
  if (v.is_number()) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v.as_number());
    os << buf;
  } else if (v.is_string()) {
    os << v.as_string();
  } else if (v.is_bool()) {
    os << (v.as_bool() ? "true" : "false");
  } else {
    os << "null";
  }
  os << '\n';
}

std::string full_report_text(const PowderReport& r) {
  std::string error;
  const auto doc = json_parse(r.to_json(), &error);
  if (doc == nullptr) return "PARSE_ERROR " + error + "\n";
  std::ostringstream os;
  flatten_json(*doc, "", os);
  return os.str();
}

/// The Prometheus export without the latency histograms' series.
std::string prometheus_text_without_durations(const MetricsRegistry& m) {
  std::istringstream lines(m.prometheus_text());
  std::ostringstream os;
  std::string line;
  while (std::getline(lines, line))
    if (line.find("_duration_ns") == std::string::npos) os << line << '\n';
  return os.str();
}

void expect_full_golden(const std::string& stem, const PowderReport& r,
                        const MetricsRegistry& m) {
  const std::string report = full_report_text(r);
  const std::string prom = prometheus_text_without_durations(m);
  if (regen()) {
    write_file(golden_path(stem + ".full.report"), report);
    write_file(golden_path(stem + ".full.prom"), prom);
    GTEST_SKIP() << "golden regenerated";
  }
  const std::string want = read_file(golden_path(stem + ".full.report"));
  ASSERT_FALSE(want.empty()) << "missing golden " << stem
                             << ".full.report (run with POWDER_REGEN_GOLDEN=1)";
  EXPECT_EQ(report, want) << "full report drifted for " << stem;
  EXPECT_EQ(prom, read_file(golden_path(stem + ".full.prom")))
      << "metrics export drifted for " << stem;
}

TEST(FullReport, CompZeroDelayWithEverySink) {
  Netlist nl = map_aig(make_benchmark("comp"), lib());
  TraceSession trace;
  MetricsRegistry metrics;
  std::ostringstream audit_os, progress_os;
  AuditLog audit(&audit_os);
  ProgressStream progress(&progress_os);
  PowerAttribution attribution;
  PowderOptions opt = parity_options(nl.num_inputs(), /*threads=*/1);
  opt.trace.trace = &trace;
  opt.trace.metrics = &metrics;
  opt.trace.audit = &audit;
  opt.trace.progress = &progress;
  opt.trace.attribution = &attribution;
  const PowderReport r = optimize(nl, opt);
  EXPECT_GT(r.substitutions_applied, 0);
  expect_full_golden("comp.sinks", r, metrics);
}

TEST(FullReport, T481Timed) {
  Netlist nl = map_aig(make_benchmark("t481"), lib());
  MetricsRegistry metrics;
  PowderOptions opt = parity_options(nl.num_inputs(), /*threads=*/1);
  opt.power_model = PowerModelKind::kTimed;
  opt.glitch.num_vector_pairs = 64;
  opt.trace.metrics = &metrics;
  const PowderReport r = optimize(nl, opt);
  EXPECT_GT(r.substitutions_applied, 0);
  expect_full_golden("t481.timed", r, metrics);
}

TEST(FullReport, CompForcedAcceptsRolledBackAtTheEnd) {
  // Every pick skips presim and proof; with the signature guard off, the
  // end-of-run equivalence check must walk the bad commits back.
  Netlist nl = map_aig(make_benchmark("comp"), lib());
  MetricsRegistry metrics;
  PowderOptions opt = parity_options(nl.num_inputs(), /*threads=*/1);
  opt.guard.signature_check = false;
  opt.guard.final_equivalence_check = true;
  opt.trace.metrics = &metrics;
  PowderReport r;
  {
    ScopedFaultInjector inj;
    inj->arm(FaultInjector::Site::kAcceptProof);
    r = optimize(nl, opt);
  }
  EXPECT_GT(r.diagnostics.final_check_rollbacks, 0);
  EXPECT_FALSE(r.diagnostics.guard_failed);
  expect_full_golden("comp.forced", r, metrics);
}

TEST(FullReport, CompResumedFromAWalCutMidRun) {
  const Netlist input = map_aig(make_benchmark("comp"), lib());
  const std::string wal =
      (std::filesystem::temp_directory_path() /
       ("full_report." + std::to_string(::getpid()) + ".wal"))
          .string();
  const std::string cut = wal + ".cut";
  PowderOptions opt = parity_options(input.num_inputs(), /*threads=*/1);
  {
    Netlist nl = input;
    PowderOptions first = opt;
    first.session.checkpoint_out = wal;
    (void)optimize(nl, first);
  }
  const WalContents full = read_wal(wal);
  ASSERT_GE(full.commits.size(), 2u);
  {
    std::string image =
        encode_frame(WalFrameType::kHeader, encode_header(full.header));
    for (std::size_t i = 0; i < full.commits.size() / 2; ++i)
      image += encode_frame(WalFrameType::kCommit,
                            encode_commit(full.commits[i]));
    write_file(cut, image);
  }
  Netlist nl = input;
  MetricsRegistry metrics;
  opt.session.resume_from = cut;
  opt.trace.metrics = &metrics;
  const PowderReport r = optimize(nl, opt);
  std::filesystem::remove(wal);
  std::filesystem::remove(cut);
  EXPECT_GT(r.diagnostics.resume_replayed, 0);
  expect_full_golden("comp.resumed", r, metrics);
}

}  // namespace
}  // namespace powder
