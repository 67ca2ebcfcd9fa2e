// Live progress streaming: a versioned NDJSON event stream written while
// the optimizer runs, so a long run is watchable instead of a black box.
//
// This is the future daemon's client wire protocol (ROADMAP item 1), so it
// carries a `schema_version` on every line and follows the DESIGN.md §11.4
// stability rules: adding keys to an event does not bump the version;
// removing or redefining one does. Consumers must ignore unknown keys and
// unknown event types.
//
// Event vocabulary (schema version 1); every line also carries
// `{"v":1,"seq":N,"t_ms":T}` with `seq` strictly increasing and `t_ms`
// monotone (steady clock, milliseconds since stream creation):
//
//   run_start    circuit, gates, inputs, outputs, threads, windowed
//                (retired: always false), model
//   phase        iter + phase name (harvest/proof/commit/final_guard),
//                optional count
//   commit       iter, cls, window (retired: always -1), gain, power-after
//   heartbeat    iter, power, applied, harvested, proofs, rates, ETA
//   degradation  from, to, reason
//   checkpoint   frames persisted so far
//   run_end      final power, applied, iterations
//
// The stream is written directly (no atomic-rename staging): live tailing
// is the point, and a torn final line on crash is exactly what NDJSON
// consumers are built to tolerate.
#ifndef POWDER_TRACE_PROGRESS_HPP
#define POWDER_TRACE_PROGRESS_HPP

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

namespace powder {

/// Wire version of the progress stream. See header comment for the rules.
inline constexpr int kProgressSchemaVersion = 1;

class ProgressStream {
 public:
  /// Counter snapshot the optimizer hands to heartbeat ticks; rates are
  /// derived here from consecutive snapshots.
  struct Stats {
    int iteration = 0;
    int max_iterations = 0;
    double power = 0.0;
    long long applied = 0;
    long long harvested = 0;
    long long proofs = 0;
  };

  /// `os` must outlive the stream. `heartbeat_seconds` rate-limits
  /// heartbeat events; the first tick always emits so every run produces
  /// at least one heartbeat.
  explicit ProgressStream(std::ostream* os, double heartbeat_seconds = 1.0);

  ProgressStream(const ProgressStream&) = delete;
  ProgressStream& operator=(const ProgressStream&) = delete;

  void run_start(std::string_view circuit, long gates, int inputs,
                 int outputs, int threads, const char* power_model);

  /// Stage marker. `count` with its `count_key` is optional (pass -1 /
  /// nullptr to omit), e.g. phase(2, "proof", 91, "candidates").
  void phase(int iteration, const char* name, long long count = -1,
             const char* count_key = nullptr);

  /// One accepted substitution.
  void commit(int iteration, const char* cls, double gain,
              double power_after);

  /// Rate-limited heartbeat; no-op unless the interval elapsed (or it is
  /// the first heartbeat of the run).
  void heartbeat(const Stats& stats);

  /// Cheap pre-check so callers can skip building Stats when no heartbeat
  /// would be emitted.
  bool heartbeat_due() const;

  void degradation(const char* from, const char* to, const char* reason);
  void checkpoint(long long frames);
  void run_end(double power, long long applied, int iterations);

  long long events_written() const { return seq_; }
  long long heartbeats_written() const { return heartbeats_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Opens a line with the common prefix and returns the elapsed ms.
  void begin_line(std::string* line, const char* event);
  void end_line(std::string* line);

  std::ostream* os_;
  double heartbeat_seconds_;
  Clock::time_point start_;
  Clock::time_point last_heartbeat_;
  Stats last_stats_;
  long long seq_ = 0;
  long long heartbeats_ = 0;
  mutable std::mutex mu_;
};

/// Result of validating a progress stream (trace_check, tests).
struct ProgressValidation {
  bool ok = false;
  std::string error;
  long long lines = 0;
  long long heartbeats = 0;
  long long phases = 0;
};

/// Validates a captured stream: every line parses, carries v/seq/t_ms/
/// event, seq starts at 0 and increases by 1, t_ms is monotone
/// nondecreasing, the first event is run_start, exactly one run_end sits
/// last, and at least one heartbeat was emitted.
ProgressValidation validate_progress_stream(std::string_view text);

}  // namespace powder

#endif  // POWDER_TRACE_PROGRESS_HPP
