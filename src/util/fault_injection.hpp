#pragma once
// Deterministic fault injection for robustness tests.
//
// Production code sprinkles `inject_fault(Site::k...)` at the few places
// where an external failure (aborted proof, stale candidate, corrupted
// journal delta) can originate. When no injector is installed — the normal
// case — the call is a null-pointer check and nothing else. Tests install a
// ScopedFaultInjector, arm the sites they want to misbehave, run the
// optimizer, and then assert that it degraded or rolled back instead of
// miscompiling.

#include <array>
#include <atomic>
#include <limits>

namespace powder {

class FaultInjector {
 public:
  enum class Site : int {
    kAtpgProof = 0,   ///< PODEM check reports kAborted without searching
    kSatProof,        ///< SAT check reports kAborted without solving
    kAcceptProof,     ///< optimizer skips pre-check + proof (bogus accept)
    kStaleCandidate,  ///< optimizer forces a corrupted candidate through
    kCorruptDelta,    ///< journal records a wrong inverse delta
    kCheckpointWrite, ///< WAL frame write fails midway (short write / ENOSPC)
    kCheckpointFsync, ///< fsync on the WAL descriptor reports failure
    kOutputWrite,     ///< atomic artifact write fails before the rename
    kAllocFail,       ///< scratch allocation on the checkpoint path fails
    kProofTransient,  ///< proof engine throws (the proof rejects soundly)
    kCount_
  };
  static constexpr int kNumSites = static_cast<int>(Site::kCount_);

  /// Arms `site`: fire() returns true for occurrence numbers in
  /// [skip, skip + count), counted from the moment of arming.
  void arm(Site site, int skip = 0,
           int count = std::numeric_limits<int>::max());
  void disarm(Site site);

  /// Called by production code at the injection point. Counts the
  /// occurrence and decides whether the fault triggers.
  bool fire(Site site);

  /// How often the site was reached / actually triggered since arming.
  int occurrences(Site site) const;
  int fired(Site site) const;

  /// The process-wide injector; nullptr when none is installed.
  static FaultInjector* installed();
  static void install(FaultInjector* injector);

 private:
  // Occurrence counters are atomic: the injector is process-wide, and while
  // one optimizer reaches every site from its commit thread, optimizations
  // running on separate threads share the same counters. Arming happens
  // while the optimizer is quiescent, so skip/count stay plain.
  struct SiteState {
    std::atomic<bool> armed{false};
    int skip = 0;
    int count = 0;
    std::atomic<int> seen{0};
    std::atomic<int> fired{0};
  };
  std::array<SiteState, kNumSites> sites_{};
};

/// Injection point helper: false whenever no injector is installed.
inline bool inject_fault(FaultInjector::Site site) {
  FaultInjector* fi = FaultInjector::installed();
  return fi != nullptr && fi->fire(site);
}

/// RAII installer for tests: installs its own injector on construction and
/// removes it on destruction.
class ScopedFaultInjector {
 public:
  ScopedFaultInjector() { FaultInjector::install(&injector_); }
  ~ScopedFaultInjector() { FaultInjector::install(nullptr); }
  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

  FaultInjector* operator->() { return &injector_; }
  FaultInjector& operator*() { return injector_; }

 private:
  FaultInjector injector_;
};

}  // namespace powder
