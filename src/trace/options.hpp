#pragma once
// Nullable observability sinks, threaded through an optimization run (and
// carried by PowderOptions as the public `trace` field).
//
// Every instrumentation site in the library is guarded by a single branch
// on one of these pointers: a null sink costs one compare-and-skip, no
// clock read, no allocation. That is the contract that lets the
// instrumentation stay compiled into release builds (measured <= 2%
// off-mode overhead by bench/trace_overhead.cpp).

namespace powder {

class TraceSession;
class MetricsRegistry;
class AuditLog;
class ProgressStream;
class PowerAttribution;

struct TraceOptions {
  /// Span/event collector exported as Chrome trace-event JSON (Perfetto).
  TraceSession* trace = nullptr;
  /// Counter/gauge/histogram registry exported as JSON + Prometheus text.
  /// The optimizer uses a private registry when this is null, so the
  /// metrics block of the report is always populated.
  MetricsRegistry* metrics = nullptr;
  /// NDJSON decision log: one record per candidate considered.
  AuditLog* audit = nullptr;
  /// Live NDJSON event stream (heartbeats, phases, commits).
  ProgressStream* progress = nullptr;
  /// Per-gate power heatmap + per-class applied-gain ledger.
  PowerAttribution* attribution = nullptr;

  bool any() const {
    return trace != nullptr || metrics != nullptr || audit != nullptr ||
           progress != nullptr || attribution != nullptr;
  }
};

}  // namespace powder
