// Tests for the observability plane: the SPSC ring under a concurrent
// producer, span nesting, histogram bucket edges, golden Chrome-JSON and
// Prometheus exports, and the audit log's headline invariant — one NDJSON
// line per candidate the optimizer considered, serial and threaded.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "mapper/mapper.hpp"
#include "powder.hpp"
#include "util/check.hpp"
#include "util/spsc_ring.hpp"
#include "util/trace_clock.hpp"

namespace powder {
namespace {

// ---------------------------------------------------------------------------
// SpscRing

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRing, RejectsWhenFullThenDrainsInOrder) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full: dropped, not overwritten
  std::vector<int> out;
  EXPECT_EQ(ring.pop_all(&out), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  // Drained ring accepts again and the indices keep wrapping.
  EXPECT_TRUE(ring.try_push(4));
  out.clear();
  EXPECT_EQ(ring.pop_all(&out), 1u);
  EXPECT_EQ(out, (std::vector<int>{4}));
}

TEST(SpscRing, ConcurrentProducerConsumerLosesNothingItAccepted) {
  // One producer racing one consumer across many wraps of a tiny ring:
  // every accepted item must come out exactly once, in order.
  SpscRing<int> ring(8);
  constexpr int kItems = 200000;
  std::vector<int> got;
  got.reserve(kItems);
  int accepted = 0;

  std::thread consumer([&] {
    while (static_cast<int>(got.size()) < kItems) {
      const std::size_t n = got.size();
      ring.pop_all(&got);
      if (got.size() == n) std::this_thread::yield();
      // The producer pushes the full sequence, so the consumer finishes
      // only once everything pushed has arrived; accepted == kItems below
      // proves nothing was dropped.
    }
  });
  for (int i = 0; i < kItems; ++i) {
    while (!ring.try_push(i)) std::this_thread::yield();
    ++accepted;
  }
  consumer.join();

  EXPECT_EQ(accepted, kItems);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

// ---------------------------------------------------------------------------
// TraceSession / TraceSpan

TEST(TraceSession, CountsRecordedAndDropped) {
  TraceSession session(/*events_per_thread=*/4);
  for (int i = 0; i < 6; ++i)
    session.record_span("ev", "test", trace_now_ns(), 1);
  EXPECT_EQ(session.events_recorded(), 4u);
  EXPECT_EQ(session.dropped(), 2u);
  session.drain();
  EXPECT_EQ(session.merged().size(), 4u);
  // Draining frees ring slots: recording works again.
  session.record_span("ev", "test", trace_now_ns(), 1);
  EXPECT_EQ(session.events_recorded(), 5u);
  // The exported document records the drops itself.
  EXPECT_NE(session.chrome_json().find(
                "\"otherData\":{\"events_recorded\":5,\"dropped\":2}"),
            std::string::npos);
}

TEST(TraceSession, SpanNestingIsContained) {
  TraceSession session;
  {
    TraceSpan outer(&session, "outer", "test");
    {
      TraceSpan inner(&session, "inner", "test");
      inner.arg("k", 7);
    }
  }
  session.drain();
  ASSERT_EQ(session.merged().size(), 2u);
  // Inner spans finish first, so they drain first.
  const TraceEvent& inner = session.merged()[0].event;
  const TraceEvent& outer = session.merged()[1].event;
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_GE(inner.ts_ns, outer.ts_ns);
  EXPECT_LE(inner.ts_ns + inner.dur_ns, outer.ts_ns + outer.dur_ns);
  EXPECT_STREQ(inner.arg1_name, "k");
  EXPECT_EQ(inner.arg1, 7);
}

TEST(TraceSession, NullSessionSpanIsANoOp) {
  TraceSpan span(nullptr, "never", "test");
  span.arg("k", 1);  // must not crash
}

TEST(TraceSession, ConcurrentWritersEachGetARing) {
  TraceSession session;
  constexpr int kThreads = 8;
  constexpr int kEach = 1000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&session] {
      for (int i = 0; i < kEach; ++i)
        session.record_span("w", "test", trace_now_ns(), 1, "i", i);
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(session.events_recorded(), kThreads * kEach);
  EXPECT_EQ(session.dropped(), 0u);
  EXPECT_EQ(session.threads_seen(), static_cast<std::size_t>(kThreads));
  session.drain();
  EXPECT_EQ(session.merged().size(), kThreads * kEach);
}

TEST(TraceSession, ChromeJsonGolden) {
  TraceSession session;
  const std::uint64_t t0 = session.start_ns();
  session.record_span("a", "phase", t0 + 1000, 2000, "x", 7, "y", -3);
  session.record_span("b", "phase", t0 + 1500, 500);
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"events_recorded\":2,"
      "\"dropped\":0},\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"powder\"}},\n"
      "{\"name\":\"a\",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
      "\"ts\":1.000,\"dur\":2.000,\"args\":{\"x\":7,\"y\":-3}},\n"
      "{\"name\":\"b\",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
      "\"ts\":1.500,\"dur\":0.500}\n"
      "]}\n";
  EXPECT_EQ(session.chrome_json(), expected);
}

TEST(TraceSession, ChromeJsonValidates) {
  TraceSession session;
  {
    TraceSpan span(&session, "work", "test");
    span.arg("n", 42);
  }
  session.record_instant("marker", "test", "v", 1);
  std::size_t num_events = 0;
  std::string error;
  ASSERT_TRUE(validate_chrome_json(session.chrome_json(), &num_events, &error))
      << error;
  EXPECT_EQ(num_events, 3u);  // metadata + span + instant
}

TEST(ValidateChromeJson, RejectsBrokenDocuments) {
  std::size_t n = 0;
  std::string err;
  EXPECT_FALSE(validate_chrome_json("[]", &n, &err));
  EXPECT_FALSE(validate_chrome_json("{}", &n, &err));  // no traceEvents
  EXPECT_FALSE(validate_chrome_json(
      "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0,"
      "\"dur\":1}]}",
      &n, &err));  // missing name
  EXPECT_FALSE(validate_chrome_json(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
      "\"ts\":0}]}",
      &n, &err));  // complete event without dur
  EXPECT_TRUE(validate_chrome_json("{\"traceEvents\":[]}", &n, &err)) << err;
  EXPECT_EQ(n, 0u);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(Metrics, HistogramBucketEdges) {
  // Bucket i holds values with bit_width i: [2^(i-1), 2^i). The edges —
  // 2^k - 1 stays in bucket k, 2^k moves to bucket k + 1.
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  for (int k = 1; k <= 38; ++k) {
    const std::uint64_t pow2 = std::uint64_t{1} << k;
    EXPECT_EQ(Histogram::bucket_index(pow2 - 1), k) << "below edge 2^" << k;
    EXPECT_EQ(Histogram::bucket_index(pow2),
              k + 1 < Histogram::kNumBuckets - 1 ? k + 1
                                                 : Histogram::kNumBuckets - 1)
        << "at edge 2^" << k;
  }
  // Everything huge lands in the +Inf catch-all.
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}),
            Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::bucket_upper_bound_ns(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_bound_ns(10), 1023u);
  EXPECT_EQ(Histogram::bucket_upper_bound_ns(Histogram::kNumBuckets - 1),
            ~std::uint64_t{0});
}

TEST(Metrics, HistogramObserveAccumulates) {
  Histogram h;
  h.observe(0);
  h.observe(1023);
  h.observe(1024);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.sum_ns(), 2047);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(10), 1);
  EXPECT_EQ(h.bucket(11), 1);
}

TEST(Metrics, RegistrationIsIdempotentAndTyped) {
  MetricsRegistry reg;
  Counter* c = reg.counter("c_total", "help");
  EXPECT_EQ(reg.counter("c_total"), c);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_THROW(reg.gauge("c_total"), CheckError);
}

TEST(Metrics, PrometheusGolden) {
  MetricsRegistry reg;
  reg.counter("powder_widgets_total", "Widgets processed")->inc(3);
  reg.gauge("powder_level")->set(2.5);
  Histogram* h = reg.histogram("powder_latency_ns", "Latency");
  h->observe(0);
  h->observe(1023);
  h->observe(1024);
  // _sum is sum_ns scaled to seconds with %.17g; format it the same way
  // instead of hand-picking a value whose decimal expansion is stable.
  char sum_buf[48];
  std::snprintf(sum_buf, sizeof(sum_buf), "%.17g", 2047 / 1e9);
  // Derived quantiles (ceil(q*count)'th observation's bucket upper bound):
  // p50 -> 2nd of 3 -> the 1023ns bucket; p90/p99 -> 3rd -> 2047ns.
  char p50_buf[48], p9x_buf[48];
  std::snprintf(p50_buf, sizeof(p50_buf), "%.17g", 1023 / 1e9);
  std::snprintf(p9x_buf, sizeof(p9x_buf), "%.17g", 2047 / 1e9);
  const std::string expected = std::string() +
      "# TYPE powder_latency_ns histogram\n"  // map order: latency first
      "powder_latency_ns_bucket{le=\"0\"} 1\n"
      "powder_latency_ns_bucket{le=\"1.023e-06\"} 2\n"
      "powder_latency_ns_bucket{le=\"2.047e-06\"} 3\n"
      "powder_latency_ns_bucket{le=\"+Inf\"} 3\n"
      "powder_latency_ns_sum " + sum_buf + "\n"
      "powder_latency_ns_count 3\n"
      "powder_latency_ns{quantile=\"0.5\"} " + p50_buf + "\n"
      "powder_latency_ns{quantile=\"0.9\"} " + p9x_buf + "\n"
      "powder_latency_ns{quantile=\"0.99\"} " + p9x_buf + "\n"
      "# TYPE powder_level gauge\n"
      "powder_level 2.5\n"
      "# HELP powder_widgets_total Widgets processed\n"
      "# TYPE powder_widgets_total counter\n"
      "powder_widgets_total 3\n";
  // The histogram registered with help "Latency" prints its HELP line too.
  const std::string expected_full =
      "# HELP powder_latency_ns Latency\n" + expected;
  EXPECT_EQ(reg.prometheus_text(), expected_full);
}

TEST(Metrics, JsonExportShape) {
  MetricsRegistry reg;
  reg.counter("a_total")->inc(2);
  reg.gauge("b")->set(1.5);
  reg.histogram("h_ns")->observe(5);
  EXPECT_EQ(reg.to_json(),
            "{\"a_total\":2,\"b\":1.5,"
            "\"h_ns\":{\"count\":1,\"sum_ns\":5,"
            "\"p50\":7,\"p90\":7,\"p99\":7,\"buckets\":[[7,1]]}}");
}

// ---------------------------------------------------------------------------
// AuditLog + end-to-end traced optimize

TEST(Audit, WritesOneLinePerRecord) {
  std::ostringstream os;
  AuditLog log(&os);
  AuditRecord rec;
  rec.seq = 0;
  rec.iteration = 1;
  rec.cls = "OS2";
  rec.target = 5;
  rec.target_name = "g_5";
  rec.rep_kind = "signal";
  rec.rep_b = 3;
  rec.decision = "accepted";
  log.write(rec);
  rec.seq = 1;
  rec.decision = "rejected_stale";
  log.write(rec);
  EXPECT_EQ(log.records(), 2);
  const std::string text = os.str();
  std::size_t lines = 0;
  for (char ch : text)
    if (ch == '\n') ++lines;
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(text.find("\"cls\":\"OS2\""), std::string::npos);
  EXPECT_NE(text.find("\"decision\":\"accepted\""), std::string::npos);
}

/// Lines in the audit log per the documented invariant: every considered
/// candidate writes exactly one record, and the end-of-run guard walk
/// (which rolls back without reconsidering candidates) writes none.
long long expected_audit_lines(const PowderReport& r) {
  return r.rejected_stale + r.rejected_by_delay + r.rejected_by_atpg +
         r.diagnostics.apply_failures + r.diagnostics.guard_rollbacks +
         r.substitutions_applied + r.diagnostics.final_check_rollbacks;
}

PowderReport run_traced(int threads, TraceSession* trace,
                        MetricsRegistry* metrics, AuditLog* audit) {
  CellLibrary lib = CellLibrary::standard();
  Netlist nl = map_aig(make_benchmark("comp"), lib);
  const PowderOptions opt = PowderOptions::builder()
                                .patterns(512)
                                .threads(threads)
                                .trace(trace)
                                .metrics(metrics)
                                .audit(audit)
                                .build();
  return optimize(nl, opt);
}

TEST(Audit, LineCountMatchesCandidatesConsideredSerial) {
  std::ostringstream os;
  AuditLog log(&os);
  const PowderReport r = run_traced(1, nullptr, nullptr, &log);
  EXPECT_GT(r.substitutions_applied, 0);
  EXPECT_EQ(log.records(), expected_audit_lines(r));
  std::size_t lines = 0;
  for (char ch : os.str())
    if (ch == '\n') ++lines;
  EXPECT_EQ(static_cast<long long>(lines), log.records());
}

TEST(Audit, LineCountMatchesCandidatesConsideredThreaded) {
  std::ostringstream os;
  AuditLog log(&os);
  TraceSession trace;
  MetricsRegistry metrics;
  const PowderReport r = run_traced(8, &trace, &metrics, &log);
  EXPECT_GT(r.substitutions_applied, 0);
  EXPECT_EQ(log.records(), expected_audit_lines(r));

  // The trace must validate and carry the run's span vocabulary.
  std::size_t num_events = 0;
  std::string error;
  const std::string json = trace.chrome_json();
  ASSERT_TRUE(validate_chrome_json(json, &num_events, &error)) << error;
  EXPECT_EQ(trace.dropped(), 0u);
  for (const char* span : {"\"optimize\"", "\"iteration\"", "\"harvest\"",
                           "\"harvest_shard\"", "\"journal_commit\"",
                           "\"sta_resync_arrival\"", "\"podem_check\""})
    EXPECT_NE(json.find(span), std::string::npos) << span;

  // The registry snapshot embedded in the report is the registry's JSON,
  // and the report document carries it under "metrics".
  EXPECT_EQ(r.metrics_json, metrics.to_json());
  EXPECT_NE(r.to_json().find("\"metrics\":" + r.metrics_json),
            std::string::npos);
}

TEST(TracedOptimize, ReportCountsTraceDrops) {
  TraceSession tiny(/*events_per_thread=*/4);
  const PowderReport r = run_traced(1, &tiny, nullptr, nullptr);
  EXPECT_GT(r.diagnostics.trace_dropped, 0);
  EXPECT_LE(r.diagnostics.trace_dropped,
            static_cast<long>(tiny.dropped()));
  EXPECT_NE(r.to_json().find("\"trace_dropped\":" +
                             std::to_string(r.diagnostics.trace_dropped)),
            std::string::npos);

  TraceSession roomy;
  EXPECT_EQ(run_traced(1, &roomy, nullptr, nullptr).diagnostics.trace_dropped,
            0);
}

TEST(TracedOptimize, SerialRunEmitsSpansAndMetrics) {
  TraceSession trace;
  MetricsRegistry metrics;
  const PowderReport r = run_traced(1, &trace, &metrics, nullptr);
  EXPECT_GT(r.substitutions_applied, 0);
  EXPECT_GT(trace.events_recorded(), 0u);
  std::size_t num_events = 0;
  std::string error;
  ASSERT_TRUE(validate_chrome_json(trace.chrome_json(), &num_events, &error))
      << error;
  EXPECT_GT(num_events, 1u);
  const std::string prom = metrics.prometheus_text();
  EXPECT_NE(prom.find("powder_substitutions_applied_total "),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE powder_proof_podem_check_duration_ns "
                      "histogram"),
            std::string::npos);
  EXPECT_EQ(r.metrics_json, metrics.to_json());
}

}  // namespace
}  // namespace powder
