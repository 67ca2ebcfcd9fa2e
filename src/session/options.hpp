#pragma once
// Session durability and graceful-degradation configuration (DESIGN.md §10).
//
// A "session" is one optimizer run viewed as a restartable, budgeted job:
// it can checkpoint every committed substitution into a write-ahead log,
// resume from such a log after a crash, and step down a degradation ladder
// instead of dying when the deadline nears, the proof pools drain, or RSS
// crosses a memory limit.

#include <functional>
#include <string>

namespace powder {

struct SessionOptions {
  /// Write-ahead log path; every guard-accepted commit appends one fsync'd,
  /// checksummed frame. Empty disables checkpointing entirely (the fast
  /// path costs one branch per commit).
  std::string checkpoint_out;

  /// Resume from this WAL: the run fast-forwards through the recorded
  /// commits (the proof stage is served by the log instead of the engines)
  /// and then continues live. Empty = fresh run. May equal checkpoint_out —
  /// the log is read fully before the new one is opened.
  std::string resume_from;

  /// Degradation-ladder memory sensor: when VmRSS exceeds this many bytes
  /// the ladder steps to signature-reject-only, and at 1.5x it stops the
  /// run cleanly with best-so-far. 0 disables the sensor.
  long long mem_limit_bytes = 0;

  /// Deadline fractions (of the total budget) at which the ladder steps
  /// down: below podem_only_fraction remaining, SAT is bypassed; below
  /// signature_only_fraction, proofs stop and every candidate is rejected
  /// (the loop drains toward a clean stop).
  double podem_only_fraction = 0.25;
  double signature_only_fraction = 0.10;

  /// Chaos-test seam: invoked after each commit frame reaches the disk
  /// (argument = 1-based frame number). The crash-recovery test SIGKILLs
  /// the process from inside this hook to land exactly on a commit
  /// boundary. Null in production.
  std::function<void(long long)> after_checkpoint_frame;
};

}  // namespace powder
