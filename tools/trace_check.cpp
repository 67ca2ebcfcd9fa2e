// trace_check — validates observability artifacts produced by
// `powder optimize`.
//
//   trace_check <trace.json>             Chrome trace-event JSON
//                                        (--trace-out)
//   trace_check --progress <prog.ndjson> live progress stream
//                                        (--progress-out)
//   trace_check --attribution <attr.json> power-attribution dump
//                                        (--attribution-out)
//
// Exit 0 with an "ok: ..." summary when the document is structurally
// valid; exit 1 with the first structural error otherwise.
//
// Progress mode checks the NDJSON event-stream contract (schema_version,
// contiguous seq, monotone t_ms, run_start first / run_end last, at least
// one heartbeat). Attribution mode checks the schema and the exact
// contribution-sum and per-class-ledger reconciliation invariants.
// Backs the `check-trace` and `check-progress` CMake smoke targets.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "power/attribution.hpp"
#include "trace/progress.hpp"
#include "trace/trace.hpp"

namespace {

std::string slurp(const char* path, bool* ok) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "trace_check: cannot open %s\n", path);
    *ok = false;
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *ok = true;
  return ss.str();
}

int check_trace(const char* path) {
  bool ok = false;
  const std::string json = slurp(path, &ok);
  if (!ok) return 1;
  std::size_t num_events = 0;
  std::string error;
  if (!powder::validate_chrome_json(json, &num_events, &error)) {
    std::fprintf(stderr, "trace_check: %s: %s\n", path, error.c_str());
    return 1;
  }
  std::printf("ok: %zu events\n", num_events);
  return 0;
}

int check_progress(const char* path) {
  bool ok = false;
  const std::string text = slurp(path, &ok);
  if (!ok) return 1;
  const powder::ProgressValidation v =
      powder::validate_progress_stream(text);
  if (!v.ok) {
    std::fprintf(stderr, "trace_check: %s: %s\n", path, v.error.c_str());
    return 1;
  }
  std::printf("ok: %lld events, %lld heartbeats, %lld phases\n", v.lines,
              v.heartbeats, v.phases);
  return 0;
}

int check_attribution(const char* path) {
  bool ok = false;
  const std::string text = slurp(path, &ok);
  if (!ok) return 1;
  std::string error;
  if (!powder::validate_attribution_json(text, &error)) {
    std::fprintf(stderr, "trace_check: %s: %s\n", path, error.c_str());
    return 1;
  }
  std::printf("ok: attribution valid\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2) return check_trace(argv[1]);
  if (argc == 3 && std::strcmp(argv[1], "--progress") == 0)
    return check_progress(argv[2]);
  if (argc == 3 && std::strcmp(argv[1], "--attribution") == 0)
    return check_attribution(argv[2]);
  std::fprintf(stderr,
               "usage: trace_check <trace.json>\n"
               "       trace_check --progress <progress.ndjson>\n"
               "       trace_check --attribution <attribution.json>\n");
  return 1;
}
