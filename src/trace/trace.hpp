#pragma once
// TraceSession: low-overhead span/event collection for the optimizer
// pipeline, exported as Chrome trace-event JSON (load the file in
// ui.perfetto.dev or chrome://tracing).
//
// Threading model: every emitting thread lazily registers a private
// bounded SPSC ring with the session (one mutex acquisition per thread per
// session, ever) and then records events wait-free into its own ring. The
// session is the single consumer: drain() — serialized internally — pops
// every ring into the merged event list, and the exporters drain first. A
// full ring drops the event and counts it (`dropped()`); tracing never
// blocks the optimizer.
//
// Event names, categories, and argument names must be string literals (or
// otherwise outlive the session): events store the pointers, not copies,
// which is what keeps the hot path allocation-free.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "util/spsc_ring.hpp"
#include "util/trace_clock.hpp"

namespace powder {

struct TraceEvent {
  const char* name = nullptr;  ///< static literal
  const char* cat = nullptr;   ///< static literal
  std::uint64_t ts_ns = 0;     ///< steady-clock start time
  std::uint64_t dur_ns = 0;    ///< span duration; 0 for instants
  char ph = 'X';               ///< 'X' complete span, 'i' instant
  const char* arg1_name = nullptr;  ///< static literal; null = no arg
  long long arg1 = 0;
  const char* arg2_name = nullptr;
  long long arg2 = 0;
};

class TraceSession {
 public:
  /// `events_per_thread` bounds each thread's ring (rounded up to a power
  /// of two); overflow drops events, counted by dropped().
  explicit TraceSession(std::size_t events_per_thread = std::size_t{1} << 16);
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Session epoch: exported timestamps are relative to this.
  std::uint64_t start_ns() const { return t0_ns_; }

  /// Records one event from the calling thread (wait-free after the
  /// thread's first event).
  void record(const TraceEvent& event);

  /// Convenience wrappers; `ts_ns` from trace_now_ns().
  void record_span(const char* name, const char* cat, std::uint64_t ts_ns,
                   std::uint64_t dur_ns, const char* arg1_name = nullptr,
                   long long arg1 = 0, const char* arg2_name = nullptr,
                   long long arg2 = 0);
  void record_instant(const char* name, const char* cat,
                      const char* arg1_name = nullptr, long long arg1 = 0);

  /// Moves every ring's pending events into the merged list. Callable any
  /// time (internally serialized against other drains and registrations);
  /// the exporters call it implicitly.
  void drain();

  /// An event as merged at drain time: the per-thread ring it came from
  /// becomes the Chrome `tid`.
  struct TaggedEvent {
    TraceEvent event;
    std::uint32_t tid = 0;
  };
  /// Drained events so far (call drain() first for an up-to-date view).
  const std::vector<TaggedEvent>& merged() const { return drained_; }

  /// Drains and writes the full Chrome trace-event JSON document. Events
  /// are sorted (start time, longest-first on ties) so output is
  /// deterministic given deterministic timestamps. The top-level
  /// `otherData` object records `events_recorded` and `dropped`.
  void write_chrome_json(std::ostream& os);
  std::string chrome_json();

  std::uint64_t events_recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t threads_seen() const;

 private:
  struct ThreadBuf {
    explicit ThreadBuf(std::size_t cap) : ring(cap) {}
    SpscRing<TraceEvent> ring;
    std::uint32_t tid = 0;
  };

  ThreadBuf* thread_buf();

  const std::uint64_t id_;
  const std::uint64_t t0_ns_;
  const std::size_t events_per_thread_;

  mutable std::mutex mutex_;  ///< guards buffers_ and drained_
  std::vector<std::unique_ptr<ThreadBuf>> buffers_;
  std::vector<TaggedEvent> drained_;

  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII span: records a complete ('X') event over its lifetime. With a
/// null session the constructor and destructor are a single branch each —
/// the disabled cost the whole instrumentation layer is budgeted on.
class TraceSpan {
 public:
  TraceSpan(TraceSession* session, const char* name, const char* cat)
      : session_(session) {
    if (session_ == nullptr) return;
    name_ = name;
    cat_ = cat;
    t0_ = trace_now_ns();
  }
  ~TraceSpan() {
    if (session_ == nullptr) return;
    session_->record_span(name_, cat_, t0_, trace_now_ns() - t0_, arg1_name_,
                          arg1_, arg2_name_, arg2_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches up to two integer args (shown in Perfetto's span details).
  void arg(const char* name, long long value) {
    if (session_ == nullptr) return;
    if (arg1_name_ == nullptr) {
      arg1_name_ = name;
      arg1_ = value;
    } else {
      arg2_name_ = name;
      arg2_ = value;
    }
  }

 private:
  TraceSession* session_;
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::uint64_t t0_ = 0;
  const char* arg1_name_ = nullptr;
  long long arg1_ = 0;
  const char* arg2_name_ = nullptr;
  long long arg2_ = 0;
};

/// Minimal structural validation of a Chrome trace-event JSON document:
/// top-level object with a `traceEvents` array; every event is an object
/// with string `name`/`ph` and numeric `ts`/`pid`/`tid`; complete ('X')
/// events also carry a numeric non-negative `dur`. On success fills
/// `*num_events`; on failure fills `*error`. Shared by tools/trace_check
/// and the trace tests.
bool validate_chrome_json(std::string_view json, std::size_t* num_events,
                          std::string* error);

}  // namespace powder
