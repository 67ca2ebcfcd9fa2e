#pragma once
// Checkpoint recorder and resume cursor (DESIGN.md §10.1–§10.2).
//
// SessionRecorder sits on the optimizer's commit path: after the signature
// guard accepts a substitution, record_commit() appends one fsync'd WAL
// frame. Mid-run I/O failures never abort optimization — checkpointing
// degrades (the log is closed, an audit event + metric is published, and
// the run continues un-checkpointed).
//
// SessionResume is the replay cursor for `--resume FILE`: the optimizer
// re-executes its deterministic loop from iteration 1 ("fast-forward"),
// with the proof stage answered by the log instead of the engines — a
// candidate matching the next recorded commit was proved permissible by
// the original run, any other candidate that reaches the proof stage was
// rejected by it. When the cursor is exhausted the run switches to live
// proofs and, because every other stage is a pure function of (netlist,
// options, seed), continues bit-identically to the uninterrupted run.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "session/wal.hpp"

namespace powder {

class Netlist;
struct PowderOptions;
class MetricsRegistry;
class AuditLog;
class Counter;

/// Structural hash of a netlist: liveness, cells, fanins, names, PI/PO
/// lists. Two netlists with equal fingerprints are byte-identical inputs
/// for the deterministic optimizer loop.
std::uint64_t netlist_fingerprint(const Netlist& netlist);

/// Hash of every PowderOptions field that influences the deterministic
/// decision sequence (objective, patterns, seed, harvest/selection knobs,
/// proof-engine choice and per-call limits, guard flags). Execution-only
/// knobs — threads, deadline, pools, trace sinks, session paths — are
/// excluded, so a resume may legally change them.
std::uint64_t options_fingerprint(const PowderOptions& options);

class SessionRecorder {
 public:
  SessionRecorder(MetricsRegistry* metrics, AuditLog* audit);

  /// Opens the WAL and writes the header frame. Throws Error(kIo) when the
  /// log cannot even be created — a user who asked for checkpointing gets
  /// a fast, typed failure instead of a silently unprotected run.
  void open(const std::string& path, const Netlist& netlist,
            const PowderOptions& options);

  bool enabled() const { return writer_.is_open(); }
  /// True once a mid-run I/O failure forced checkpointing off.
  bool degraded() const { return degraded_; }
  const std::string& error() const { return error_; }

  /// Appends one commit frame (fsync'd). No-op when disabled (inline: the
  /// commit path pays one load); never throws.
  void record_commit(int outer, int performed, const CandidateSub& cand,
                     const AppliedSub& applied) {
    if (enabled()) append_commit(outer, performed, cand, applied);
  }

  /// Appends the kEnd frame and closes the log.
  void record_end();

  long long frames() const { return frames_; }

  /// Chaos seam: fired after each commit frame is durable (1-based index).
  void set_after_frame_hook(std::function<void(long long)> hook) {
    after_frame_ = std::move(hook);
  }

 private:
  void append_commit(int outer, int performed, const CandidateSub& cand,
                     const AppliedSub& applied);
  void degrade(const std::string& why);

  WalWriter writer_;
  long long frames_ = 0;
  bool degraded_ = false;
  std::string error_;
  std::function<void(long long)> after_frame_;
  Counter* frames_counter_ = nullptr;
  Counter* disabled_counter_ = nullptr;
  AuditLog* audit_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
};

class SessionResume {
 public:
  SessionResume() = default;

  /// Loads and validates a WAL against the freshly-read input netlist and
  /// the run's options. Throws Error(kInput) on fingerprint/seed mismatch
  /// or a missing header, Error(kIo) on an unreadable or mid-file-corrupt
  /// log. A torn trailing frame is tolerated (crash-while-writing is the
  /// expected case).
  void load(const std::string& path, const Netlist& netlist,
            const PowderOptions& options);

  /// True while recorded commits remain to fast-forward through.
  bool active() const { return cursor_ < contents_.commits.size(); }

  /// Does `cand` structurally match the next recorded commit?
  bool matches(const CandidateSub& cand) const {
    return active() && same_candidate(contents_.commits[cursor_].cand, cand);
  }

  const WalCommit& current() const { return contents_.commits[cursor_]; }
  void advance() { ++cursor_; }

  long long replayed() const { return static_cast<long long>(cursor_); }
  long long total() const {
    return static_cast<long long>(contents_.commits.size());
  }
  WalReadStatus status() const { return contents_.status; }

 private:
  WalContents contents_;
  std::size_t cursor_ = 0;
};

}  // namespace powder
