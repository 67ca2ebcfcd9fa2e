// Tests for the introspection plane (DESIGN.md §14): power attribution's
// exact reconciliation invariants, the live progress stream's wire
// contract and deterministic event skeleton, the `powder diff` verdict
// engine, the BENCH trajectory fold, the audit log's window/epoch fields,
// the retired fields every document still carries, and the purity
// guarantee — attaching every sink must not change one bit
// of the optimization result.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "io/blif.hpp"
#include "mapper/mapper.hpp"
#include "opt/report_diff.hpp"
#include "powder.hpp"
#include "power/attribution.hpp"
#include "trace/audit.hpp"
#include "trace/progress.hpp"
#include "util/json.hpp"

namespace powder {
namespace {

#ifndef POWDER_GOLDEN_DIR
#define POWDER_GOLDEN_DIR "tests/golden"
#endif

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

// The Netlist keeps a pointer to its library: helpers returning a Netlist
// by value must hand it shared ownership.
Netlist make_input(const char* bench = "comp") {
  const auto lib = CellLibrary::standard_shared();
  Netlist nl = map_aig(make_benchmark(bench), *lib);
  nl.adopt_library(lib);
  return nl;
}

PowderOptions::Builder base_options() {
  return PowderOptions::builder()
      .patterns(512)
      .repeat(8)
      .max_outer_iterations(4)
      .seed(42);
}

struct RunResult {
  std::string blif;
  PowderReport report;
};

RunResult run(const Netlist& input, PowderOptions::Builder builder) {
  Netlist nl = input;
  RunResult rr;
  rr.report = optimize(nl, builder.build());
  rr.blif = write_blif(nl);
  return rr;
}

// ---------------------------------------------------------------------------
// PowerAttribution: exact reconciliation

/// The hard invariant from the header: both snapshot sums equal
/// total_power() bitwise, the endpoints equal the report's power numbers
/// bitwise, and the per-class ledger equals the report's per-class
/// economics bitwise.
void expect_reconciled(const PowerAttribution& attr, const PowderReport& r) {
  ASSERT_TRUE(attr.before().taken);
  ASSERT_TRUE(attr.after().taken);
  EXPECT_EQ(attr.before().sum, attr.before().total_power);
  EXPECT_EQ(attr.after().sum, attr.after().total_power);
  EXPECT_EQ(attr.before().total_power, r.initial_power);
  EXPECT_EQ(attr.after().total_power, r.final_power);
  for (std::size_t i = 0; i < r.by_class.size(); ++i) {
    EXPECT_EQ(attr.class_gain(static_cast<int>(i)),
              r.by_class[i].power_delta)
        << "class " << i;
    EXPECT_EQ(attr.class_applied(static_cast<int>(i)), r.by_class[i].applied)
        << "class " << i;
  }
  std::string error;
  EXPECT_TRUE(validate_attribution_json(attr.to_json(), &error)) << error;
}

TEST(Attribution, ReconcilesBitwiseZeroDelaySerialAndThreaded) {
  const Netlist input = make_input();
  PowerAttribution serial;
  const RunResult a =
      run(input, base_options().attribution(&serial).threads(1));
  EXPECT_GT(a.report.substitutions_applied, 0);
  expect_reconciled(serial, a.report);
  EXPECT_GT(serial.deltas_observed(), 0);

  // Threaded runs are bit-identical to serial ones, and the attribution
  // document — fed from the same commits over the same netlist — must be
  // byte-identical too.
  PowerAttribution threaded;
  const RunResult b =
      run(input, base_options().attribution(&threaded).threads(8));
  EXPECT_EQ(a.blif, b.blif);
  expect_reconciled(threaded, b.report);
  EXPECT_EQ(serial.to_json(), threaded.to_json());
}

TEST(Attribution, ReconcilesBitwiseTimedModel) {
  const Netlist input = make_input();
  PowerAttribution serial;
  const RunResult a = run(input, base_options()
                                     .power_model(PowerModelKind::kTimed)
                                     .glitch_vector_pairs(64)
                                     .attribution(&serial)
                                     .threads(1));
  expect_reconciled(serial, a.report);
  EXPECT_NE(serial.to_json().find("\"model\":\"timed\""), std::string::npos);

  PowerAttribution threaded;
  const RunResult b = run(input, base_options()
                                     .power_model(PowerModelKind::kTimed)
                                     .glitch_vector_pairs(64)
                                     .attribution(&threaded)
                                     .threads(8));
  EXPECT_EQ(a.blif, b.blif);
  expect_reconciled(threaded, b.report);
  EXPECT_EQ(serial.to_json(), threaded.to_json());
}

TEST(Attribution, ValidatorRejectsTamperedDocument) {
  const Netlist input = make_input();
  PowerAttribution attr;
  run(input, base_options().attribution(&attr));
  const std::string good = attr.to_json();
  std::string error;
  ASSERT_TRUE(validate_attribution_json(good, &error)) << error;

  // Corrupting one contribution sum must break the exact reconciliation.
  std::string bad = good;
  const std::string key = "\"contribution_sum_before\":";
  const std::size_t pos = bad.find(key);
  ASSERT_NE(pos, std::string::npos);
  bad.insert(pos + key.size(), "9");
  EXPECT_FALSE(validate_attribution_json(bad, &error));

  // And a wrong schema version must be rejected outright.
  std::string wrong_version = good;
  const std::size_t vpos = wrong_version.find("\"schema_version\":1");
  ASSERT_NE(vpos, std::string::npos);
  wrong_version.replace(vpos, 18, "\"schema_version\":9");
  EXPECT_FALSE(validate_attribution_json(wrong_version, &error));
}

// ---------------------------------------------------------------------------
// ProgressStream: wire contract

TEST(Progress, StreamSatisfiesContractAndCoversPhases) {
  const Netlist input = make_input();
  std::ostringstream os;
  ProgressStream prog(&os);
  const RunResult rr = run(input, base_options().progress(&prog));
  EXPECT_GT(rr.report.substitutions_applied, 0);

  const std::string text = os.str();
  const ProgressValidation v = validate_progress_stream(text);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_GE(v.heartbeats, 1);
  EXPECT_EQ(v.lines, prog.events_written());
  for (const char* needle :
       {"\"phase\":\"harvest\"", "\"phase\":\"proof\"",
        "\"phase\":\"commit\"", "\"event\":\"run_start\"",
        "\"event\":\"commit\"", "\"event\":\"run_end\""})
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
}

/// Strips the stream down to its deterministic skeleton: heartbeats out
/// (wall-clock gated), seq/t_ms out (timing), floats out (pinned
/// elsewhere by the layout-parity goldens) — what remains is the exact
/// ordered event/argument sequence of the run.
std::string canonical_progress(const std::string& text) {
  std::ostringstream out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::string error;
    const auto doc = json_parse(line, &error);
    if (doc == nullptr) { out << "PARSE_ERROR " << error << "\n"; continue; }
    const std::string event = doc->find_string("event")->as_string();
    if (event == "heartbeat") continue;
    out << event;
    for (const auto& [key, value] : doc->members()) {
      if (key == "v" || key == "seq" || key == "t_ms" || key == "event")
        continue;
      if (value.is_number()) {
        const double d = value.as_number();
        if (d != static_cast<long long>(d)) continue;  // float: drop
        out << ' ' << key << '=' << static_cast<long long>(d);
      } else if (value.is_string()) {
        out << ' ' << key << '=' << value.as_string();
      } else if (value.is_bool()) {
        out << ' ' << key << '=' << (value.as_bool() ? "true" : "false");
      }
    }
    out << '\n';
  }
  return out.str();
}

TEST(Progress, GoldenEventSequence) {
  const Netlist input = make_input();
  std::ostringstream os;
  ProgressStream prog(&os);
  run(input, base_options().progress(&prog));
  const std::string got = canonical_progress(os.str());
  if (regen()) {
    std::ofstream w(golden_path("comp_progress.golden"), std::ios::binary);
    ASSERT_TRUE(w.good());
    w << got;
    GTEST_SKIP() << "golden regenerated";
  }
  const std::string want = read_file(golden_path("comp_progress.golden"));
  ASSERT_FALSE(want.empty()) << "missing golden comp_progress.golden "
                                "(run with POWDER_REGEN_GOLDEN=1)";
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// powder diff

TEST(Diff, SelfCompareOfARealReportIsClean) {
  const Netlist input = make_input();
  const RunResult rr = run(input, base_options());
  const std::string report = rr.report.to_json();
  const DiffResult d = diff_reports(report, report, DiffThresholds{});
  ASSERT_TRUE(d.ok) << d.error;
  EXPECT_FALSE(d.regressed);
  EXPECT_NE(d.verdict_json.find("\"verdict\":\"ok\""), std::string::npos);
  // Real reports carry per-class sections; the verdict must fold them in.
  EXPECT_NE(d.verdict_json.find("\"by_class\":{\"OS2\""), std::string::npos);
}

TEST(Diff, VerdictGoldenOnInjectedPowerRegression) {
  const std::string base =
      "{\"schema_version\":5,\"final_power\":10,\"final_area\":100,"
      "\"cpu_seconds\":2,\"substitutions_applied\":4,"
      "\"by_class\":{\"OS2\":{\"applied\":3,\"power_delta\":1.5}}}";
  const std::string cand =
      "{\"schema_version\":5,\"final_power\":12,\"final_area\":100,"
      "\"cpu_seconds\":3,\"substitutions_applied\":4,"
      "\"by_class\":{\"OS2\":{\"applied\":3,\"power_delta\":1.5}}}";
  const DiffResult d = diff_reports(base, cand, DiffThresholds{});
  ASSERT_TRUE(d.ok) << d.error;
  EXPECT_TRUE(d.regressed);
  EXPECT_EQ(
      d.verdict_json,
      "{\"schema_version\":1,\"base_report_version\":5,"
      "\"candidate_report_version\":5,"
      "\"power\":{\"base\":10,\"candidate\":12,\"delta_percent\":20,"
      "\"threshold_percent\":0.5,\"checked\":true,\"regressed\":true},"
      "\"area\":{\"base\":100,\"candidate\":100,\"delta_percent\":0,"
      "\"threshold_percent\":2,\"checked\":true,\"regressed\":false},"
      "\"runtime\":{\"base\":2,\"candidate\":3,\"delta_percent\":50,"
      "\"threshold_percent\":50,\"checked\":false,\"regressed\":false},"
      "\"substitutions\":{\"base\":4,\"candidate\":4,\"delta\":0},"
      "\"by_class\":{\"OS2\":{\"applied_base\":3,\"applied_candidate\":3,"
      "\"gain_base\":1.5,\"gain_candidate\":1.5,\"gain_delta\":0}},"
      "\"regressed\":true,\"verdict\":\"regression\"}");
}

TEST(Diff, RuntimeOnlyGatesWhenEnabled) {
  const std::string base =
      "{\"schema_version\":5,\"final_power\":10,\"final_area\":100,"
      "\"cpu_seconds\":1,\"substitutions_applied\":4}";
  const std::string cand =
      "{\"schema_version\":5,\"final_power\":10,\"final_area\":100,"
      "\"cpu_seconds\":10,\"substitutions_applied\":4}";
  // 10x slower, but runtime checking is off by default.
  DiffThresholds thresholds;
  const DiffResult off = diff_reports(base, cand, thresholds);
  ASSERT_TRUE(off.ok) << off.error;
  EXPECT_FALSE(off.regressed);
  thresholds.check_runtime = true;
  const DiffResult on = diff_reports(base, cand, thresholds);
  ASSERT_TRUE(on.ok) << on.error;
  EXPECT_TRUE(on.regressed);
}

TEST(Diff, FoldsAuditAndAttributionSections) {
  const Netlist input = make_input();
  std::ostringstream audit_os;
  AuditLog audit(&audit_os);
  PowerAttribution attr;
  const RunResult rr =
      run(input, base_options().audit(&audit).attribution(&attr));
  const std::string report = rr.report.to_json();
  const std::string audit_text = audit_os.str();
  const std::string attr_text = attr.to_json();
  const DiffResult d =
      diff_reports(report, report, DiffThresholds{}, audit_text, audit_text,
                   attr_text, attr_text);
  ASSERT_TRUE(d.ok) << d.error;
  EXPECT_FALSE(d.regressed);
  EXPECT_NE(d.verdict_json.find("\"audit\":{\"decisions\":{\"accepted\""),
            std::string::npos);
  EXPECT_NE(d.verdict_json.find("\"attribution\":{\"by_class\""),
            std::string::npos);
  EXPECT_NE(d.verdict_json.find("\"unparseable_lines\":{\"base\":0"),
            std::string::npos);
}

TEST(Diff, RejectsUnparseableInput) {
  const DiffResult d = diff_reports("not json", "{}", DiffThresholds{});
  EXPECT_FALSE(d.ok);
  EXPECT_NE(d.error.find("base report"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trajectory fold

TEST(Trajectory, FoldsLeavesAndIsolatesBrokenFiles) {
  const std::vector<std::pair<std::string, std::string>> files = {
      {"BENCH_alpha.json",
       "{\"suite\":\"quick\",\"overhead\":{\"percent\":1.25},"
       "\"ok\":true,\"runs\":[3,4]}"},
      {"BENCH_broken.json", "not json"},
  };
  EXPECT_EQ(fold_bench_trajectory(files),
            "{\"schema_version\":1,\"benches\":{"
            "\"BENCH_alpha.json\":{\"suite\":\"quick\","
            "\"overhead.percent\":1.25,\"ok\":true,"
            "\"runs[0]\":3,\"runs[1]\":4}},"
            "\"errors\":[{\"file\":\"BENCH_broken.json\","
            "\"error\":\"bad literal at byte 0\"}]}");
}

// ---------------------------------------------------------------------------
// Audit log: window / epoch fields

TEST(Audit, EveryLineCarriesWindowAndEpoch) {
  const Netlist input = make_input("duke2");
  std::ostringstream os;
  AuditLog audit(&os);
  const RunResult rr = run(input, base_options().audit(&audit));
  EXPECT_GT(rr.report.substitutions_applied, 0);

  std::istringstream lines(os.str());
  std::string line;
  long long records = 0;
  unsigned long long last_epoch = 0;
  while (std::getline(lines, line)) {
    std::string error;
    const auto doc = json_parse(line, &error);
    ASSERT_NE(doc, nullptr) << error << "\nline: " << line;
    // Typed events (degradation etc.) have their own shape; decision
    // records must all carry the retired window id (-1) and the journal
    // epoch.
    if (doc->find_string("decision") == nullptr) continue;
    ++records;
    const JsonValue* window = doc->find_number("window");
    const JsonValue* epoch = doc->find_number("epoch");
    ASSERT_NE(window, nullptr) << line;
    ASSERT_NE(epoch, nullptr) << line;
    EXPECT_EQ(window->as_number(), -1.0) << line;
    // The log is chronological and the netlist epoch only ever advances.
    const auto e = static_cast<unsigned long long>(epoch->as_number());
    EXPECT_GE(e, last_epoch);
    last_epoch = e;
  }
  EXPECT_GT(records, 0);
  EXPECT_EQ(records, audit.records());
}

// ---------------------------------------------------------------------------
// Retired fields: still written, with their global values

// Report schema 5 retired ten diagnostics keys (the speculative proof
// pipeline's five and diagnostics.windowing's five), then the
// functional-reduction pre-pass's diagnostics.resub.funcred_merges. They
// stay in the document as literal 0 until the next schema bump (DESIGN.md
// §11.4). The pre-pass's FUNCRED class slot has no producer left: every
// document that lists classes still carries it, all zero.
TEST(RetiredFields, ReportCarriesTheTenRetiredKeysAsLiteralZero) {
  PowerAttribution attr;
  const RunResult rr =
      run(make_input("duke2"), base_options().attribution(&attr));
  ASSERT_GT(rr.report.substitutions_applied, 0);
  const std::string text = rr.report.to_json();
  std::string error;
  const auto doc = json_parse(text, &error);
  ASSERT_NE(doc, nullptr) << error;
  ASSERT_EQ(doc->find_number("schema_version")->as_number(), 5.0);
  const JsonValue* diag = doc->find_object("diagnostics");
  ASSERT_NE(diag, nullptr);
  const JsonValue* windowing = diag->find_object("windowing");
  ASSERT_NE(windowing, nullptr);
  auto expect_literal_zero = [&](const JsonValue* obj, const char* key) {
    const JsonValue* v = obj->find_number(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_EQ(v->as_number(), 0.0) << key;
    const std::string literal = "\"" + std::string(key) + "\":0";
    const std::size_t at = text.find(literal);
    ASSERT_NE(at, std::string::npos) << key;
    const char next = text[at + literal.size()];
    EXPECT_TRUE(next == ',' || next == '}') << key;
  };
  for (const char* key : {"retries", "watchdog_requeues", "proof_jobs_enqueued",
                          "speculative_proof_hits", "stale_proofs_dropped"})
    expect_literal_zero(diag, key);
  for (const char* key : {"windows_built", "window_commits",
                          "boundary_conflicts", "window_reruns",
                          "window_gates_total"})
    expect_literal_zero(windowing, key);
  const JsonValue* resub = diag->find_object("resub");
  ASSERT_NE(resub, nullptr);
  expect_literal_zero(resub, "funcred_merges");

  auto expect_zero_class = [](const JsonValue* by_class,
                              std::initializer_list<const char*> keys) {
    ASSERT_NE(by_class, nullptr);
    const JsonValue* cls = by_class->find_object("FUNCRED");
    ASSERT_NE(cls, nullptr);
    for (const char* key : keys) {
      const JsonValue* v = cls->find_number(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_EQ(v->as_number(), 0.0) << key;
    }
  };
  expect_zero_class(doc->find_object("by_class"),
                    {"applied", "power_delta", "area_delta"});
  expect_zero_class(resub->find_object("by_class"),
                    {"harvested", "proved", "applied", "gain"});
  const auto attr_doc = json_parse(attr.to_json(), &error);
  ASSERT_NE(attr_doc, nullptr) << error;
  expect_zero_class(attr_doc->find_object("by_class"), {"applied", "gain"});
  const int retired = static_cast<int>(ResubClass::kFuncRed);
  EXPECT_EQ(attr.class_applied(retired), 0);
  EXPECT_EQ(attr.class_gain(retired), 0.0);
}

// The progress stream's `windowed`/`window` and attribution's `by_window`
// keep their keys, with the values of the one global loop.
TEST(RetiredFields, ProgressAndAttributionWriteTheGlobalValues) {
  std::ostringstream os;
  ProgressStream prog(&os);
  PowerAttribution attr;
  const RunResult rr = run(make_input("duke2"),
                           base_options().progress(&prog).attribution(&attr));
  ASSERT_GT(rr.report.substitutions_applied, 0);

  std::istringstream lines(os.str());
  std::string line;
  long long commits = 0;
  while (std::getline(lines, line)) {
    std::string error;
    const auto doc = json_parse(line, &error);
    ASSERT_NE(doc, nullptr) << error;
    const std::string event = doc->find_string("event")->as_string();
    if (event == "run_start") {
      const JsonValue* windowed = doc->find("windowed");
      ASSERT_NE(windowed, nullptr);
      EXPECT_NE(line.find("\"windowed\":false"), std::string::npos);
    } else if (event == "commit") {
      ++commits;
      EXPECT_EQ(doc->find_number("window")->as_number(), -1.0) << line;
    }
  }
  EXPECT_EQ(commits, attr.commits_recorded());

  std::string error;
  const auto doc = json_parse(attr.to_json(), &error);
  ASSERT_NE(doc, nullptr) << error;
  const JsonValue* by_window = doc->find_array("by_window");
  ASSERT_NE(by_window, nullptr);
  ASSERT_EQ(by_window->items().size(), 1u);
  const JsonValue& global = by_window->items()[0];
  EXPECT_EQ(global.find_number("window")->as_number(), -1.0);
  EXPECT_EQ(static_cast<long>(global.find_number("commits")->as_number()),
            attr.commits_recorded() - attr.rollbacks_recorded());
}

// ---------------------------------------------------------------------------
// One registry shared across runs (DESIGN.md §8)

/// The report without what may differ between two runs of the same input:
/// wall time, RSS and the registry snapshot.
std::string report_without_metrics(PowderReport r) {
  r.cpu_seconds = 0.0;
  r.diagnostics.peak_rss_bytes = 0;
  r.metrics_json.clear();
  return r.to_json();
}

/// Every counter (`*_total`) of a registry's JSON export.
std::map<std::string, double> counters_of(const MetricsRegistry& m) {
  std::map<std::string, double> out;
  std::string error;
  const auto doc = json_parse(m.to_json(), &error);
  EXPECT_NE(doc, nullptr) << error;
  if (doc == nullptr) return out;
  for (const auto& [name, value] : doc->members()) {
    const std::string suffix = "_total";
    if (value.is_number() && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      out[name] = value.as_number();
  }
  return out;
}

TEST(SharedRegistry, RunsAddUpAndReportsStayTheirOwn) {
  const Netlist comp = make_input("comp");
  const Netlist rd84 = make_input("rd84");
  MetricsRegistry solo_comp, solo_rd84, shared;
  const RunResult a = run(comp, base_options().metrics(&solo_comp));
  const RunResult b = run(rd84, base_options().metrics(&solo_rd84));
  const RunResult a2 = run(comp, base_options().metrics(&shared));
  const RunResult b2 = run(rd84, base_options().metrics(&shared));

  EXPECT_EQ(a2.blif, a.blif);
  EXPECT_EQ(b2.blif, b.blif);
  EXPECT_EQ(report_without_metrics(a2.report),
            report_without_metrics(a.report));
  EXPECT_EQ(report_without_metrics(b2.report),
            report_without_metrics(b.report));

  const auto want_a = counters_of(solo_comp);
  const auto want_b = counters_of(solo_rd84);
  const auto got = counters_of(shared);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.size(), want_a.size());
  for (const auto& [name, value] : got) {
    ASSERT_TRUE(want_a.count(name) && want_b.count(name)) << name;
    EXPECT_EQ(value, want_a.at(name) + want_b.at(name)) << name;
  }
  EXPECT_GT(got.at("powder_substitutions_applied_total"),
            want_a.at("powder_substitutions_applied_total"));
}

// ---------------------------------------------------------------------------
// Purity: sinks change nothing

TEST(Purity, AttachingEverySinkLeavesTheResultBitIdentical) {
  const Netlist input = make_input();
  const RunResult plain = run(input, base_options());

  std::ostringstream prog_os, audit_os;
  ProgressStream prog(&prog_os);
  AuditLog audit(&audit_os);
  PowerAttribution attr;
  const RunResult observed = run(input, base_options()
                                            .progress(&prog)
                                            .audit(&audit)
                                            .attribution(&attr));

  EXPECT_EQ(plain.blif, observed.blif);
  EXPECT_EQ(plain.report.final_power, observed.report.final_power);
  EXPECT_EQ(plain.report.initial_power, observed.report.initial_power);
  EXPECT_EQ(plain.report.substitutions_applied,
            observed.report.substitutions_applied);
  for (std::size_t i = 0; i < plain.report.by_class.size(); ++i) {
    EXPECT_EQ(plain.report.by_class[i].applied,
              observed.report.by_class[i].applied);
    EXPECT_EQ(plain.report.by_class[i].power_delta,
              observed.report.by_class[i].power_delta);
  }
}

}  // namespace
}  // namespace powder
