#include "opt/powder.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <thread>
#include <unordered_set>

#include "bdd/netlist_bdd.hpp"
#include "opt/funcred.hpp"
#include "opt/journal.hpp"
#include "opt/selection.hpp"
#include "power/attribution.hpp"
#include "power/power.hpp"
#include "session/checkpoint.hpp"
#include "session/degradation.hpp"
#include "trace/audit.hpp"
#include "trace/metrics.hpp"
#include "trace/progress.hpp"
#include "trace/trace.hpp"
#include "util/budget.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/memstats.hpp"
#include "util/fault_injection.hpp"
#include "util/mpmc_queue.hpp"
#include "util/thread_pool.hpp"
#include "window/extract.hpp"
#include "window/partition.hpp"
#include "window/window_optimizer.hpp"

namespace powder {

namespace {

/// Fault injection (Site::kStaleCandidate): rewrites `sub` into a
/// structurally valid signal substitution whose sampled signature *differs*
/// from the target's — exactly what a stale candidate surviving a buggy
/// revalidation would look like. Returns false when no such corruption
/// exists at this site.
bool corrupt_candidate(const Netlist& nl, const Simulator& sim,
                       CandidateSub* sub) {
  const GateId entry =
      sub->branch.has_value() ? sub->branch->gate : sub->target;
  const auto target_words = sim.value(sub->target);
  for (GateId g = 0; g < nl.num_slots(); ++g) {
    if (!nl.alive(g) || nl.kind(g) == GateKind::kOutput) continue;
    if (g == sub->target || g == entry) continue;
    const auto words = sim.value(g);
    bool differs = false;
    for (std::size_t w = 0; w < words.size(); ++w)
      if (words[w] != target_words[w]) {
        differs = true;
        break;
      }
    if (!differs) continue;
    CandidateSub trial = *sub;
    trial.cls = sub->branch.has_value() ? SubstClass::kIS2 : SubstClass::kOS2;
    trial.rep = ReplacementFunction::signal(g, false);
    trial.new_cell = kInvalidCell;
    if (!substitution_still_valid(nl, trial)) continue;
    *sub = trial;
    return true;
  }
  return false;
}

/// One permissibility check with the configured engine (hybrid escalates an
/// aborted PODEM run to the SAT miter). Used identically by the commit
/// thread and the proof workers, so a verdict depends only on the netlist
/// state and the candidate — never on which thread produced it.
AtpgResult prove_one(AtpgChecker& atpg, SatChecker& sat, ProofEngine engine,
                     const CandidateSub& cand) {
  switch (engine) {
    case ProofEngine::kPodem:
      return atpg.check_replacement(cand.site(), cand.rep);
    case ProofEngine::kSat:
      return sat.check_replacement(cand.site(), cand.rep);
    case ProofEngine::kHybrid: {
      const AtpgResult r = atpg.check_replacement(cand.site(), cand.rep);
      if (r != AtpgResult::kAborted) return r;
      return sat.check_replacement(cand.site(), cand.rep);
    }
  }
  return AtpgResult::kAborted;
}

/// prove_one with transient-failure isolation: an engine that *throws*
/// (rather than returning a verdict) is retried up to `max_retries` times
/// with capped exponential backoff, then the candidate is treated as
/// kAborted — a sound rejection, never an unproven acceptance. Shared by
/// the commit thread and the proof workers; the chaos site kProofTransient
/// exercises the retry path deterministically.
AtpgResult prove_with_retry(AtpgChecker& atpg, SatChecker& sat,
                            ProofEngine engine, const CandidateSub& cand,
                            int max_retries, Counter* retries) {
  for (int attempt = 0;; ++attempt) {
    try {
      if (inject_fault(FaultInjector::Site::kProofTransient))
        throw Error::proof_engine("injected transient proof failure");
      return prove_one(atpg, sat, engine, cand);
    } catch (const CheckError&) {
      if (attempt >= max_retries) return AtpgResult::kAborted;
      if (retries != nullptr) retries->inc();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(1LL << std::min(attempt, 3)));
    }
  }
}

/// Total order over a candidate's proof obligation (site + replacement):
/// the cache key of the speculative proof pipeline.
struct ProofKey {
  std::array<long long, 12> v{};
  bool operator<(const ProofKey& o) const { return v < o.v; }
};

const char* engine_name(ProofEngine e) {
  switch (e) {
    case ProofEngine::kPodem: return "podem";
    case ProofEngine::kSat: return "sat";
    case ProofEngine::kHybrid: return "hybrid";
  }
  return "?";
}

const char* verdict_name(AtpgResult r) {
  switch (r) {
    case AtpgResult::kTestFound: return "test_found";
    case AtpgResult::kUntestable: return "untestable";
    case AtpgResult::kAborted: return "aborted";
  }
  return "?";
}

const char* rep_kind_name(ReplacementFunction::Kind k) {
  switch (k) {
    case ReplacementFunction::Kind::kConstant: return "constant";
    case ReplacementFunction::Kind::kSignal: return "signal";
    case ReplacementFunction::Kind::kTwoInput: return "two_input";
    case ReplacementFunction::Kind::kCell: return "cell";
  }
  return "?";
}

ProofKey make_key(const CandidateSub& cand) {
  long long tt = 0;
  if (cand.rep.kind == ReplacementFunction::Kind::kTwoInput)
    for (int m = 0; m < 4; ++m)
      if (cand.rep.two_input_fn.bit(m)) tt |= 1ll << m;
  if (cand.rep.kind == ReplacementFunction::Kind::kCell) {
    // Fold the ordered divisor set and the k-var function into one FNV
    // digest; b/c stay kNullGate for kCell, so the digest disambiguates.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t x) {
      for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xFF;
        h *= 1099511628211ull;
      }
    };
    for (const GateId d : cand.rep.divisors) mix(d);
    const std::uint64_t minterms = cand.rep.two_input_fn.num_vars() > 0
        ? cand.rep.two_input_fn.num_minterms_capacity() : 0;
    for (std::uint64_t m = 0; m < minterms; ++m)
      mix(cand.rep.two_input_fn.bit(m) ? 1 : 0);
    tt = static_cast<long long>(h);
  }
  ProofKey k;
  k.v = {static_cast<long long>(cand.cls),
         static_cast<long long>(cand.target),
         cand.branch ? static_cast<long long>(cand.branch->gate) : -1,
         cand.branch ? static_cast<long long>(cand.branch->pin) : -1,
         static_cast<long long>(cand.rep.kind),
         cand.rep.constant_value ? 1 : 0,
         static_cast<long long>(cand.rep.b),
         cand.rep.invert_b ? 1 : 0,
         static_cast<long long>(cand.rep.c),
         cand.rep.invert_c ? 1 : 0,
         tt,
         static_cast<long long>(cand.new_cell)};
  return k;
}

/// Speculative proof pipeline: N workers pop candidate proofs from a
/// bounded MPMC queue, prove them against the *current* netlist under a
/// shared lock, and cache the verdict. The single commit thread enqueues
/// shortlist candidates, looks verdicts up before proving inline, and
/// brackets every netlist mutation with begin/end_mutation — which bumps
/// the version (invalidating queued jobs), clears the cache, and takes the
/// lock exclusively so no worker reads a half-mutated netlist. Verdicts are
/// pure functions of (netlist state, candidate), so a cache hit equals the
/// proof the serial code would have run — results stay bit-identical.
class ProofPipeline {
 public:
  ProofPipeline(const Netlist& netlist, const AtpgOptions& atpg_options,
                const SatCheckerOptions& sat_options, ProofEngine engine,
                int num_workers, TraceSession* trace = nullptr,
                int proof_retries = 0, double watchdog_seconds = -1.0,
                Counter* retries_counter = nullptr,
                Counter* watchdog_counter = nullptr)
      : netlist_(&netlist),
        engine_(engine),
        queue_(256),
        trace_(trace),
        proof_retries_(proof_retries),
        watchdog_seconds_(watchdog_seconds),
        retries_counter_(retries_counter),
        watchdog_counter_(watchdog_counter) {
    workers_.reserve(static_cast<std::size_t>(num_workers));
    for (int i = 0; i < num_workers; ++i)
      workers_.emplace_back([this, atpg_options, sat_options] {
        worker_loop(atpg_options, sat_options);
      });
  }

  ~ProofPipeline() { shutdown(); }

  void shutdown() {
    if (shut_down_) return;
    shut_down_ = true;
    queue_.close();
    for (std::thread& t : workers_) t.join();
  }

  /// Hands a candidate's proof to the workers unless it is already proved,
  /// already in flight, or the queue is full (speculation is best-effort).
  void speculate(const CandidateSub& cand) {
    const ProofKey key = make_key(cand);
    {
      std::lock_guard<std::mutex> lock(results_mutex_);
      if (results_.count(key) != 0 || in_flight_.count(key) != 0) return;
      in_flight_.insert(key);
    }
    ProofJob job{version_.load(std::memory_order_relaxed), cand};
    if (!queue_.try_push(std::move(job))) {
      std::lock_guard<std::mutex> lock(results_mutex_);
      in_flight_.erase(key);
      return;
    }
    ++jobs_enqueued_;
  }

  /// Cached verdict for `cand` (waiting for a worker that is mid-proof on
  /// it); nullopt when the pipeline never got to this candidate. The wait
  /// is bounded by the session watchdog: a worker that stalls past the
  /// timeout is declared stuck and the obligation is requeued on the commit
  /// thread (the straggler's late result is version-checked and dropped, so
  /// a stuck worker costs latency, never correctness).
  std::optional<AtpgResult> lookup(const CandidateSub& cand) {
    const ProofKey key = make_key(cand);
    std::unique_lock<std::mutex> lock(results_mutex_);
    const auto not_in_flight = [&] { return in_flight_.count(key) == 0; };
    if (watchdog_seconds_ > 0.0) {
      if (!results_cv_.wait_for(
              lock, std::chrono::duration<double>(watchdog_seconds_),
              not_in_flight)) {
        if (watchdog_counter_ != nullptr) watchdog_counter_->inc();
        return std::nullopt;
      }
    } else {
      results_cv_.wait(lock, not_in_flight);
    }
    const auto it = results_.find(key);
    if (it == results_.end()) return std::nullopt;
    ++speculative_hits_;
    return it->second;
  }

  /// Must bracket every netlist mutation (apply or rollback).
  void begin_mutation() {
    version_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(results_mutex_);
      results_.clear();
    }
    netlist_mutex_.lock();
  }
  void end_mutation() { netlist_mutex_.unlock(); }

  long jobs_enqueued() const { return jobs_enqueued_; }
  long speculative_hits() const { return speculative_hits_; }
  long stale_dropped() const {
    return stale_dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct ProofJob {
    std::uint64_t version = 0;
    CandidateSub cand;
  };

  void worker_loop(AtpgOptions atpg_options, SatCheckerOptions sat_options) {
    // Worker-owned engines: the checkers keep per-check scratch state, so
    // each worker needs its own pair (they share the atomic budget).
    AtpgChecker atpg(*netlist_, atpg_options);
    SatChecker sat(*netlist_, sat_options);
    while (std::optional<ProofJob> job = queue_.pop()) {
      const ProofKey key = make_key(job->cand);
      // Injected stall (watchdog bait): the worker wedges *outside* the
      // netlist lock, so only this job's consumers wait, never a commit.
      if (inject_fault(FaultInjector::Site::kProofStall))
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      AtpgResult verdict{};
      bool proved = false;
      {
        std::shared_lock<std::shared_mutex> lock(netlist_mutex_);
        // A mutation bumps the version *before* it can take the lock, so a
        // current version here guarantees the netlist matches the job.
        if (job->version == version_.load(std::memory_order_relaxed)) {
          TraceSpan span(trace_, "proof_job", "proof");
          verdict = prove_with_retry(atpg, sat, engine_, job->cand,
                                     proof_retries_, retries_counter_);
          proved = true;
          span.arg("target", static_cast<long long>(job->cand.target));
          span.arg("verdict", static_cast<long long>(verdict));
        }
      }
      {
        std::lock_guard<std::mutex> lock(results_mutex_);
        in_flight_.erase(key);
        if (proved &&
            job->version == version_.load(std::memory_order_relaxed)) {
          results_[key] = verdict;
        } else {
          stale_dropped_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      results_cv_.notify_all();
    }
  }

  const Netlist* netlist_;
  ProofEngine engine_;
  MpmcQueue<ProofJob> queue_;
  TraceSession* trace_;
  int proof_retries_ = 0;
  double watchdog_seconds_ = -1.0;
  Counter* retries_counter_ = nullptr;
  Counter* watchdog_counter_ = nullptr;
  std::vector<std::thread> workers_;
  bool shut_down_ = false;

  std::shared_mutex netlist_mutex_;
  std::atomic<std::uint64_t> version_{0};

  std::mutex results_mutex_;
  std::condition_variable results_cv_;
  std::map<ProofKey, AtpgResult> results_;
  std::set<ProofKey> in_flight_;

  long jobs_enqueued_ = 0;     // commit thread only
  long speculative_hits_ = 0;  // commit thread only
  std::atomic<long> stale_dropped_{0};
};

/// RAII mutation bracket; no-op without a pipeline (threads == 1).
class MutationScope {
 public:
  explicit MutationScope(ProofPipeline* pipeline) : pipeline_(pipeline) {
    if (pipeline_ != nullptr) pipeline_->begin_mutation();
  }
  ~MutationScope() {
    if (pipeline_ != nullptr) pipeline_->end_mutation();
  }
  MutationScope(const MutationScope&) = delete;
  MutationScope& operator=(const MutationScope&) = delete;

 private:
  ProofPipeline* pipeline_;
};

}  // namespace

PowderOptimizer::PowderOptimizer(Netlist* netlist, PowderOptions options)
    : netlist_(netlist), options_(std::move(options)) {
  POWDER_CHECK(netlist_ != nullptr);
  // Malformed options are the caller's problem: surface them as the typed
  // kInput category at the API boundary (Error derives from CheckError, so
  // legacy catch sites keep working).
  try {
    validate_options();
  } catch (const Error&) {
    throw;
  } catch (const CheckError& e) {
    throw Error::input(e.what());
  }
}

void PowderOptimizer::validate_options() const {
  const PowderOptions& o = options_;
  POWDER_CHECK_MSG(o.num_patterns > 0,
                   "PowderOptions.num_patterns must be positive, got "
                       << o.num_patterns);
  if (!o.pi_probs.empty()) {
    // Latch outputs are pseudo-PIs whose probabilities come from the
    // reset-state fixed point, not from the user: the user supplies one
    // entry per *primary* input only.
    const int primary = netlist_->num_inputs() - netlist_->num_latches();
    POWDER_CHECK_MSG(
        static_cast<int>(o.pi_probs.size()) == primary,
        "PowderOptions.pi_probs has " << o.pi_probs.size()
                                      << " entries but the netlist has "
                                      << primary << " primary inputs");
    for (std::size_t i = 0; i < o.pi_probs.size(); ++i)
      POWDER_CHECK_MSG(std::isfinite(o.pi_probs[i]) && o.pi_probs[i] >= 0.0 &&
                           o.pi_probs[i] <= 1.0,
                       "PowderOptions.pi_probs[" << i << "] = " << o.pi_probs[i]
                                                 << " is outside [0, 1]");
  }
  POWDER_CHECK_MSG(o.shortlist > 0,
                   "PowderOptions.shortlist must be positive, got "
                       << o.shortlist);
  POWDER_CHECK_MSG(o.repeat > 0,
                   "PowderOptions.repeat must be positive, got " << o.repeat);
  POWDER_CHECK_MSG(o.max_outer_iterations > 0,
                   "PowderOptions.max_outer_iterations must be positive, got "
                       << o.max_outer_iterations);
  POWDER_CHECK_MSG(std::isfinite(o.min_gain),
                   "PowderOptions.min_gain must be finite");
  POWDER_CHECK_MSG(o.proof.atpg.backtrack_limit >= 0,
                   "PowderOptions.proof.atpg.backtrack_limit must be non-negative, "
                   "got " << o.proof.atpg.backtrack_limit);
  POWDER_CHECK_MSG(o.threads >= 0,
                   "PowderOptions.threads must be non-negative, got "
                       << o.threads);
  POWDER_CHECK_MSG(o.session.mem_limit_bytes >= 0,
                   "PowderOptions.session.mem_limit_bytes must be "
                   "non-negative, got " << o.session.mem_limit_bytes);
  POWDER_CHECK_MSG(o.session.proof_retries >= 0,
                   "PowderOptions.session.proof_retries must be "
                   "non-negative, got " << o.session.proof_retries);
  POWDER_CHECK_MSG(o.window.max_gates >= 2,
                   "PowderOptions.window.max_gates must be at least 2, got "
                       << o.window.max_gates);
  POWDER_CHECK_MSG(o.window.overlap >= 0 && o.window.overlap < o.window.max_gates,
                   "PowderOptions.window.overlap must lie in [0, max_gates), "
                   "got " << o.window.overlap);
  POWDER_CHECK_MSG(o.window.rerun_limit >= 0,
                   "PowderOptions.window.rerun_limit must be non-negative, "
                   "got " << o.window.rerun_limit);
  POWDER_CHECK_MSG(o.session.podem_only_fraction >= 0.0 &&
                       o.session.podem_only_fraction <= 1.0 &&
                       o.session.signature_only_fraction >= 0.0 &&
                       o.session.signature_only_fraction <=
                           o.session.podem_only_fraction,
                   "PowderOptions.session degradation fractions must satisfy "
                   "0 <= signature_only_fraction <= podem_only_fraction <= 1");
  POWDER_CHECK_MSG(o.candidates.resub.max_divisors >= 2,
                   "PowderOptions.candidates.resub.max_divisors must be at "
                   "least 2 (the paper's pair classes), got "
                       << o.candidates.resub.max_divisors);
  POWDER_CHECK_MSG(o.candidates.resub.ksub_b_pool > 0,
                   "PowderOptions.candidates.resub.ksub_b_pool must be "
                   "positive, got " << o.candidates.resub.ksub_b_pool);
  POWDER_CHECK_MSG(o.candidates.resub.max_k_per_target > 0,
                   "PowderOptions.candidates.resub.max_k_per_target must be "
                   "positive, got " << o.candidates.resub.max_k_per_target);
  POWDER_CHECK_MSG(o.glitch.num_vector_pairs > 0,
                   "PowderOptions.glitch.num_vector_pairs must be positive, "
                   "got " << o.glitch.num_vector_pairs);
  POWDER_CHECK_MSG(o.glitch.max_events_per_pair >= 0,
                   "PowderOptions.glitch.max_events_per_pair must be "
                   "non-negative (0 = automatic), got "
                       << o.glitch.max_events_per_pair);
}

bool PowderOptimizer::violates_delay(const CandidateSub& sub, double limit,
                                     IncrementalTiming& timing,
                                     PowderReport::Diagnostics& diag) const {
  if (!std::isfinite(limit)) return false;
  // Apply on a scratch copy — exact and side-effect free. The copy starts
  // with no observers, so the seeded incremental STA attaches fresh and
  // only re-propagates the substitution's dirty region; the early-cutoff
  // propagation is bit-identical to a full analyze_timing on the mutated
  // scratch.
  Netlist scratch = *netlist_;
  IncrementalTiming scratch_ta(scratch, timing);
  (void)apply_substitution(scratch, sub);
  const bool violates = scratch_ta.circuit_delay() > limit + 1e-9;
  diag.sta_incremental_visits +=
      static_cast<long>(scratch_ta.nodes_visited());
  diag.sta_full_equiv_visits +=
      static_cast<long>(scratch_ta.full_equiv_visits());
  return violates;
}

PowderReport PowderOptimizer::run() {
  const auto t_start = std::chrono::steady_clock::now();
  PowderReport report;

  TraceSession* const trace = options_.trace.trace;
  AuditLog* const audit = options_.trace.audit;
  ProgressStream* const prog = options_.trace.progress;
  PowerAttribution* const attr = options_.trace.attribution;
  // The attribution ledger indexes classes without depending on the
  // optimizer headers; the two class sets must stay in lockstep.
  static_assert(kAttributionClasses == kNumResubClasses,
                "PowerAttribution class table out of sync with ResubClass");
  TraceSpan run_span(trace, "optimize", "powder");

  int threads = options_.threads;
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  report.diagnostics.threads_used = threads;
  run_span.arg("threads", threads);
  const bool windowed = options_.window.mode == WindowMode::kWindowed;
  run_span.arg("windowed", windowed ? 1 : 0);

  // The registry is the primary store for the run's decision counters; with
  // no user-supplied sink they land in a run-local registry instead, so the
  // loop below has exactly one accounting path. The Diagnostics struct is
  // filled from a delta snapshot at end of run (the compat shim that keeps
  // --report-json keys stable), and deltas are against the counter values at
  // entry so a registry shared across several runs stays monotonic without
  // polluting any single run's report.
  MetricsRegistry local_registry;
  MetricsRegistry* const reg = options_.trace.metrics != nullptr
                                   ? options_.trace.metrics
                                   : &local_registry;
  struct Meter {
    Counter* c;
    long long base;
    long long delta() const { return c->value() - base; }
  };
  auto meter = [&](const char* name, const char* help) {
    Counter* c = reg->counter(name, help);
    return Meter{c, c->value()};
  };
  const Meter m_iterations =
      meter("powder_outer_iterations_total", "Outer harvest iterations run");
  const Meter m_harvested = meter("powder_candidates_harvested_total",
                                  "Candidates returned by the harvests");
  const Meter m_stale = meter("powder_rejected_stale_total",
                              "Candidates dropped as structurally stale");
  const Meter m_delay = meter("powder_rejected_delay_total",
                              "Candidates rejected by the delay check");
  const Meter m_presim = meter(
      "powder_rejected_presim_total",
      "Candidates refuted by the independent-pattern pre-simulation");
  const Meter m_proof_rej = meter("powder_rejected_proof_total",
                                  "Candidates refuted by the proof engines");
  const Meter m_applied = meter("powder_substitutions_applied_total",
                                "Substitutions committed to the netlist");
  const Meter m_apply_fail = meter("powder_apply_failures_total",
                                   "Applies rejected by the validity check");
  const Meter m_guard_rb = meter("powder_guard_rollbacks_total",
                                 "Commits undone by the signature guard");
  const Meter m_final_rb = meter("powder_final_rollbacks_total",
                                 "Commits undone by the end-of-run check");
  const Meter m_inline = meter("powder_inline_proofs_total",
                               "Proofs run inline on the commit thread");
  const Meter m_retries = meter("powder_proof_retries_total",
                                "Transient proof failures retried");
  const Meter m_watchdog = meter("powder_watchdog_requeues_total",
                                 "Stuck proof jobs requeued inline");
  const Meter m_degraded =
      meter("powder_rejected_degraded_total",
            "Candidates rejected unproven by the degradation ladder");
  const Meter m_windows = meter("powder_windows_built_total",
                                "Windows extracted, including conflict reruns");
  const Meter m_window_gates =
      meter("powder_window_gates_total",
            "Sum of gate counts over all extracted windows");
  const Meter m_window_commits =
      meter("powder_window_commits_total",
            "Local window commits merged into the parent netlist");
  const Meter m_window_conflicts =
      meter("powder_window_boundary_conflicts_total",
            "Windows skipped at merge because their support was touched");
  const Meter m_window_reruns =
      meter("powder_window_reruns_total",
            "Serial window re-optimizations after boundary conflicts");
  const Meter m_truncated =
      meter("powder_harvest_truncated_total",
            "Candidates dropped because a harvest hit max_candidates");
  const Meter m_funcred =
      meter("powder_funcred_merges_total",
            "Signals merged away by the functional-reduction pre-pass");
  const Meter m_pgc_evals =
      meter("powder_pgc_evaluations_total",
            "PG_C values computed by the selection rounds");
  const Meter m_pgc_memo =
      meter("powder_pgc_memo_hits_total",
            "Shortlisted PG_C values reused at an unchanged netlist epoch");
  const Meter m_pgc_cone =
      meter("powder_pgc_cone_gates_total",
            "Gates in the affected sets the timed PG_C replays simulated");
  const Meter m_pgc_fallback =
      meter("powder_pgc_fallback_pairs_total",
            "Vector pairs timed PG_C re-simulated in full on the copy");
  // Per-class harvest/proof accounting behind diagnostics.resub. Names are
  // derived from the class table so the registry export and the report's
  // by_class array can never disagree on the class set.
  std::array<Meter, kNumResubClasses> m_cls_harvested{};
  std::array<Meter, kNumResubClasses> m_cls_proved{};
  for (int i = 0; i < kNumResubClasses; ++i) {
    const std::string cls = resub_class_name(static_cast<ResubClass>(i));
    m_cls_harvested[static_cast<std::size_t>(i)] =
        meter(("powder_resub_harvested_" + cls + "_total").c_str(),
              "Candidates harvested for one resubstitution class");
    m_cls_proved[static_cast<std::size_t>(i)] =
        meter(("powder_resub_proved_" + cls + "_total").c_str(),
              "Candidates proved permissible for one resubstitution class");
  }

  ResourceBudget budget;
  budget.set_deadline(options_.budget.deadline_seconds);
  budget.set_atpg_backtrack_pool(options_.budget.atpg_backtrack_pool);
  budget.set_sat_conflict_pool(options_.budget.sat_conflict_pool);

  // ---- session durability (DESIGN.md §10) --------------------------------
  // Resume first (the WAL validates against the pristine netlist), then the
  // new checkpoint — so `--resume F --checkpoint-out F` reads the old log
  // completely before truncating the path for the new one.
  SessionResume resume;
  if (!options_.session.resume_from.empty())
    resume.load(options_.session.resume_from, *netlist_, options_);
  SessionRecorder recorder(reg, audit);
  if (!options_.session.checkpoint_out.empty()) {
    recorder.open(options_.session.checkpoint_out, *netlist_, options_);
    recorder.set_after_frame_hook(options_.session.after_checkpoint_frame);
  }
  DegradationLadder ladder(options_.session, options_.budget.deadline_seconds,
                           options_.proof.engine, reg, audit);
  ladder.set_progress(prog);

  // Shared pool for the data-parallel kernels (word-sharded simulation and
  // the three-pass candidate harvest). Proof workers are separate dedicated
  // threads — they block on the queue, not on pool work.
  ThreadPool pool(threads - 1);

  MetricsRegistry* const component_metrics = options_.trace.metrics;
  // Sequential circuits: latch outputs are pseudo-PIs whose stimulus
  // probability comes from the reset-state fixed point, spliced in between
  // the user's primary-input probabilities. Combinational netlists pass
  // options_.pi_probs through untouched (bit-identical legacy path).
  const std::vector<double> sim_probs =
      expand_pi_probs(*netlist_, options_.pi_probs);
  Simulator sim(*netlist_, options_.num_patterns, sim_probs, options_.seed);
  sim.set_thread_pool(&pool);
  sim.set_trace(trace, component_metrics);
  PowerEstimator est(&sim);
  // The model the greedy loop optimizes against: the zero-delay estimator
  // itself, or the event-driven TimedPowerModel layered over it when
  // --power-model=timed. All PG arithmetic below goes through `model`.
  std::optional<TimedPowerModel> timed_model;
  if (options_.power_model == PowerModelKind::kTimed) {
    GlitchOptions gopt = options_.glitch;
    if (gopt.stimulus.prob.empty() && !sim_probs.empty())
      gopt.stimulus.prob = sim_probs;
    timed_model.emplace(&est, std::move(gopt));
  }
  PowerModel& model = timed_model.has_value()
                          ? static_cast<PowerModel&>(*timed_model)
                          : static_cast<PowerModel&>(est);
  // Independent pattern set used as a cheap second opinion before the
  // expensive permissibility proof: a candidate that already fails on
  // fresh patterns is rejected without running PODEM/SAT at all. The same
  // simulator backs the post-commit signature guard below.
  Simulator verify_sim(*netlist_, options_.num_patterns, sim_probs,
                       options_.seed ^ 0x5EC0DD5EEDull);
  verify_sim.set_thread_pool(&pool);
  verify_sim.set_trace(trace, component_metrics);
  // Incremental STA over the main netlist: stays coherent through the delta
  // bus and seeds the per-candidate scratch analyses of violates_delay.
  IncrementalTiming timing(*netlist_);
  timing.set_trace(trace, component_metrics);

  const std::uint64_t deltas_before = netlist_->deltas_published();
  const std::uint64_t notifications_before =
      netlist_->observer_notifications();

  report.initial_power = model.total_power();
  report.initial_area = netlist_->total_area();
  report.initial_delay = timing.circuit_delay();
  report.delay_limit = options_.delay_limit_factor < 0.0
                           ? std::numeric_limits<double>::infinity()
                           : report.initial_delay *
                                 options_.delay_limit_factor;

  // Attribution binds here — after the model's first full estimate, before
  // any mutation — so its "before" sweep reproduces initial_power exactly.
  if (attr != nullptr) attr->begin_run(netlist_, &model);
  if (prog != nullptr) {
    long live_cells = 0;
    for (GateId g = 0; g < netlist_->num_slots(); ++g)
      if (netlist_->alive(g) && netlist_->kind(g) == GateKind::kCell)
        ++live_cells;
    prog->run_start(netlist_->name(), live_cells, netlist_->num_inputs(),
                    netlist_->num_outputs(), threads, windowed,
                    power_model_name(model.kind()));
  }

  // Pristine copy for the end-of-run miter (the strong guard level).
  std::optional<Netlist> pristine;
  if (options_.guard.final_equivalence_check) pristine.emplace(*netlist_);

  // Primary-output signature snapshot on the independent pattern set: the
  // PI stimulus is frozen, so a permissible substitution can never change
  // any PO word. Any mismatch after a commit is a proven miscompare.
  const std::vector<GateId> po_gates = netlist_->outputs();
  std::vector<std::uint64_t> po_snapshot;
  for (GateId o : po_gates) {
    const auto words = verify_sim.value(o);
    po_snapshot.insert(po_snapshot.end(), words.begin(), words.end());
  }
  auto po_signatures_ok = [&]() {
    std::size_t k = 0;
    for (GateId o : po_gates)
      for (std::uint64_t w : verify_sim.value(o))
        if (w != po_snapshot[k++]) return false;
    return true;
  };

  AtpgOptions atpg_options = options_.proof.atpg;
  atpg_options.budget = &budget;
  atpg_options.trace = trace;
  atpg_options.metrics = component_metrics;
  SatCheckerOptions sat_options = options_.proof.sat;
  sat_options.budget = &budget;
  sat_options.trace = trace;
  sat_options.metrics = component_metrics;
  AtpgChecker atpg(*netlist_, atpg_options);
  SatChecker sat(*netlist_, sat_options);

  // Speculative proof workers (threads - 1 of them); null in serial mode,
  // which keeps the exact single-threaded code path. The copied checker
  // options carry the trace/metrics sinks into every worker's own engines.
  // Windowed mode spends its threads on the window fan-out instead, and its
  // results must not depend on the thread count — no speculation there.
  std::optional<ProofPipeline> pipeline;
  if (threads > 1 && !windowed)
    pipeline.emplace(*netlist_, atpg_options, sat_options,
                     options_.proof.engine, threads - 1, trace,
                     options_.session.proof_retries,
                     options_.session.watchdog_seconds, m_retries.c,
                     m_watchdog.c);
  ProofPipeline* pipe = pipeline.has_value() ? &*pipeline : nullptr;

  SubstJournal journal(netlist_);
  journal.set_trace(trace, component_metrics);
  // Per-commit accounting, aligned with the journal, so an end-of-run
  // rollback can also undo the report's class statistics.
  struct CommitRecord {
    SubstClass cls;
    double power_delta;
    double area_delta;
  };
  std::vector<CommitRecord> commit_log;

  // One resync for every situation — commit, rollback, even a rollback
  // that threw half-way: the published deltas describe the mutations that
  // actually executed, so draining them brings every cache in line with
  // whatever state the netlist is in.
  auto resync = [&]() {
    model.refresh();  // refreshes the base estimator first, then (timed
                      // model only) re-runs the event-driven estimate
    verify_sim.refresh();
  };

  // The ladder replaces the old binary expired/exhausted stop: the same
  // sensors now step down through kPodemOnly / kSignatureOnly before
  // reaching kStop, and every step is published to the audit log/metrics.
  auto stop_requested = [&]() {
    if (ladder.evaluate(budget) != DegradationLevel::kStop) return false;
    switch (ladder.stop_reason()) {
      case StopReason::kDeadline:
        report.diagnostics.deadline_hit = true;
        break;
      case StopReason::kProofBudget:
        report.diagnostics.budget_exhausted = true;
        break;
      case StopReason::kMemLimit:
        report.diagnostics.mem_limit_hit = true;
        break;
      case StopReason::kNone:
        break;
    }
    return true;
  };

  SelectionStats selection_stats;

  // Persistent across iterations: the signature index refreshes only the
  // epoch-dirty gates on re-harvest. Reseeding per iteration keeps the RNG
  // stream identical to a freshly constructed finder. Windowed mode
  // harvests inside each window's own finder, so the parent-level index
  // (an O(N) build plus a delta-bus subscription) is skipped entirely.
  std::optional<CandidateFinder> finder;
  if (!windowed) {
    finder.emplace(*netlist_, model, options_.candidates, options_.seed,
                   &pool);
    finder->set_trace(trace);
  }

  // Decision audit: one NDJSON record per candidate the loop below settles.
  // `audit_window` is -1 except while merging one window's commits, so a
  // consumer can separate window-local decisions from global ones.
  long long audit_seq = 0;
  int audit_iteration = 0;
  int audit_window = -1;
  auto audit_decision = [&](const CandidateSub& c, const char* decision,
                            bool pg_c_known = false,
                            const char* proof_engine = nullptr,
                            const char* proof_verdict = nullptr,
                            double proof_us = -1.0) {
    if (audit == nullptr) return;
    AuditRecord r;
    r.seq = audit_seq++;
    r.iteration = audit_iteration;
    r.window = audit_window;
    r.epoch = netlist_->epoch();
    r.cls = subst_class_name(c.cls);
    r.target = static_cast<long long>(c.target);
    r.target_name = netlist_->gate_name(c.target);
    if (c.branch.has_value()) {
      r.branch_sink = static_cast<long long>(c.branch->gate);
      r.branch_pin = c.branch->pin;
    }
    r.rep_kind = rep_kind_name(c.rep.kind);
    if (c.rep.kind == ReplacementFunction::Kind::kCell) {
      r.rep_divisors.reserve(c.rep.divisors.size());
      for (const GateId d : c.rep.divisors)
        r.rep_divisors.push_back(static_cast<long long>(d));
    } else {
      if (c.rep.kind != ReplacementFunction::Kind::kConstant)
        r.rep_b = static_cast<long long>(c.rep.b);
      if (c.rep.kind == ReplacementFunction::Kind::kTwoInput)
        r.rep_c = static_cast<long long>(c.rep.c);
    }
    r.pg_a = c.pg_a;
    r.pg_b = c.pg_b;
    r.pg_c = c.pg_c;
    r.pg_c_known = pg_c_known;
    r.proof_engine = proof_engine;
    r.proof_verdict = proof_verdict;
    r.proof_us = proof_us;
    r.decision = decision;
    audit->write(r);
  };

  // Progress tick: called at iteration boundaries and after commits. The
  // null-sink path is one branch; with a sink attached, checkpoint frames
  // are published as they land and heartbeats are rate-limited inside the
  // stream (first tick always emits, so every run has >= 1 heartbeat).
  long long prog_ckpt_frames = 0;
  auto progress_tick = [&]() {
    if (prog == nullptr) return;
    if (recorder.frames() > prog_ckpt_frames) {
      prog_ckpt_frames = recorder.frames();
      prog->checkpoint(prog_ckpt_frames);
    }
    if (!prog->heartbeat_due()) return;
    ProgressStream::Stats s;
    s.iteration = audit_iteration;
    s.max_iterations = options_.max_outer_iterations;
    s.power = model.total_power();
    s.applied = m_applied.delta();
    s.harvested = m_harvested.delta();
    s.proofs = m_inline.delta();
    prog->heartbeat(s);
  };
  progress_tick();

  bool progress = true;
  bool stopped = false;

  // ---- functional-reduction pre-pass (DESIGN.md §12) ---------------------
  // Runs on the whole netlist before either main loop — including windowed
  // mode, where merging equivalent stems globally is both sound (each merge
  // carries its own permissibility proof and guard check) and more
  // effective than any per-window sweep could be (equivalent signals
  // rarely land in the same window). Merges are journaled and recorded as
  // kPrepass WAL frames, so crash/resume replays them in lockstep before
  // touching the commit cursor.
  if (options_.candidates.resub.funcred) {
    TraceSpan fr_span(trace, "funcred", "powder");
    if (prog != nullptr) prog->phase(0, "funcred");
    double fr_power = model.total_power();
    double fr_area = netlist_->total_area();
    FuncredHooks hooks;
    hooks.prove = [&](const CandidateSub& cand) {
      // Resume oracle: a recorded merge was proved by the original run; an
      // unrecorded pair reaching this stage was rejected by it (the pass is
      // deterministic, so the nomination order replays identically).
      if (resume.prepass_active()) return resume.prepass_matches(cand);
      const AtpgResult verdict =
          prove_with_retry(atpg, sat, options_.proof.engine, cand,
                           options_.session.proof_retries, m_retries.c);
      m_inline.c->inc();
      if (verdict != AtpgResult::kUntestable) {
        m_proof_rej.c->inc();
        audit_decision(cand, "rejected_proof", false,
                       engine_name(options_.proof.engine),
                       verdict_name(verdict));
        return false;
      }
      return true;
    };
    hooks.resync = resync;
    if (options_.guard.signature_check) hooks.guard_ok = po_signatures_ok;
    hooks.on_commit = [&](const FuncredCommit& c) {
      if (resume.prepass_active()) {
        if (!same_applied(resume.prepass_current().applied, c.applied))
          throw Error::input(
              "resume diverged: a replayed pre-pass merge produced a "
              "different netlist delta than the checkpoint recorded");
        resume.prepass_advance();
      }
      recorder.record_prepass(c.round, c.ordinal, c.cand, c.applied);
      const double p = model.total_power();
      const double a = netlist_->total_area();
      ClassStats& cls =
          report.by_class[static_cast<std::size_t>(ResubClass::kFuncRed)];
      ++cls.applied;
      cls.power_delta += fr_power - p;
      cls.area_delta += a - fr_area;
      commit_log.push_back(CommitRecord{ResubClass::kFuncRed, fr_power - p,
                                        a - fr_area});
      if (attr != nullptr)
        attr->record_commit(static_cast<int>(ResubClass::kFuncRed), -1,
                            fr_power - p);
      m_applied.c->inc();
      audit_decision(c.cand, "accepted", false, "funcred", "untestable");
      if (prog != nullptr)
        prog->commit(0, subst_class_name(ResubClass::kFuncRed), -1,
                     fr_power - p, p);
      progress_tick();
      fr_power = p;
      fr_area = a;
    };
    const FuncredStats fr =
        functional_reduction(*netlist_, sim, journal, hooks, nullptr);
    if (resume.prepass_active())
      throw Error::input(
          "resume diverged: the checkpoint records more pre-pass merges "
          "than the pre-pass replayed");
    m_funcred.c->inc(fr.merged);
    m_guard_rb.c->inc(fr.guard_rollbacks);
    constexpr auto kFr = static_cast<std::size_t>(ResubClass::kFuncRed);
    m_cls_harvested[kFr].c->inc(fr.pairs_tested);
    m_cls_proved[kFr].c->inc(fr.pairs_tested - fr.proof_rejected);
    if (options_.check_invariants) netlist_->check_consistency();
    fr_span.arg("merged", fr.merged);
    fr_span.arg("rounds", fr.rounds);
    fr_span.arg("pairs", fr.pairs_tested);
  }

  if (windowed) {
    // ---- windowed mode (DESIGN.md §11) ----------------------------------
    // Partition the parent along its topo order, optimize every window
    // independently (thread fan-out happens here; each local run is a pure
    // function of its extraction), then merge strictly serially in a
    // deterministic order — results are bit-identical at any thread count.
    int next_window_id = 0;
    std::unordered_set<GateId> touched;

    // Per-window WAL oracle views for windowed resume: each local loop
    // replays proof verdicts from the commits recorded under its window
    // id, while the merge below still verifies against the global cursor.
    auto window_records = [&](int id) {
      std::vector<const WalCommit*> recs;
      if (resume.loaded())
        for (const WalCommit& c : resume.commits())
          if (c.window == static_cast<std::uint32_t>(id)) recs.push_back(&c);
      return recs;
    };

    // Merges one optimized window into the parent. Returns false when the
    // window must be re-run: a boundary conflict, or a mid-window failure
    // (apply/delay/guard) that strands the commits building on it.
    long long merged_total = 0;
    auto merge_window = [&](WindowExtraction& ex, WindowResult& res,
                            bool check_conflicts) -> bool {
      // Decisions taken while merging this window carry its id in the
      // audit stream; restored on every exit path.
      struct WindowIdScope {
        int* slot;
        int saved;
        WindowIdScope(int* s, int v) : slot(s), saved(*s) { *slot = v; }
        ~WindowIdScope() { *slot = saved; }
      } audit_window_scope(&audit_window, ex.id);
      // Fold the local decision counters serially — deterministic totals.
      m_harvested.c->inc(res.stats.harvested);
      m_stale.c->inc(res.stats.stale);
      m_presim.c->inc(res.stats.presim_rejected);
      m_proof_rej.c->inc(res.stats.proof_rejected);
      m_guard_rb.c->inc(res.stats.guard_rollbacks);
      m_inline.c->inc(res.stats.inline_proofs);
      m_truncated.c->inc(res.stats.truncated);
      m_pgc_evals.c->inc(res.stats.selection.pgc_evaluations);
      m_pgc_memo.c->inc(res.stats.selection.pgc_memo_hits);
      m_pgc_cone.c->inc(res.stats.replay.cone_gates);
      m_pgc_fallback.c->inc(res.stats.replay.fallback_pairs);
      for (int i = 0; i < kNumResubClasses; ++i) {
        const auto k = static_cast<std::size_t>(i);
        m_cls_harvested[k].c->inc(res.stats.harvested_by_class[k]);
        m_cls_proved[k].c->inc(res.stats.proved_by_class[k]);
      }
      if (res.commits.empty()) return true;
      if (check_conflicts) {
        for (const GateId g : ex.support)
          if (touched.count(g) != 0) {
            m_window_conflicts.c->inc();
            if (audit != nullptr) {
              AuditEvent e;
              e.event = "window_conflict";
              e.reason = "boundary_overlap";
              e.value = ex.id;
              audit->write_event(e);
            }
            return false;
          }
      }
      auto mark = [&](GateId g) {
        if (g != kNullGate) touched.insert(g);
      };
      std::vector<GateId>& to_parent = ex.to_parent;
      auto map_gate = [&](GateId local, GateId* parent) {
        if (local >= to_parent.size() || to_parent[local] == kNullGate)
          return false;
        *parent = to_parent[local];
        return true;
      };
      for (const WindowCommit& wc : res.commits) {
        CandidateSub cand = wc.cand;
        bool mapped = map_gate(wc.cand.target, &cand.target);
        if (mapped && wc.cand.branch.has_value())
          mapped = map_gate(wc.cand.branch->gate, &cand.branch->gate);
        for (int i = 0; mapped && i < wc.cand.rep.num_sources(); ++i)
          mapped = map_gate(wc.cand.rep.source(i), &cand.rep.source_ref(i));
        if (!mapped) return false;  // an earlier commit of this window failed

        // Delay check against the parent's real arrival times (the local
        // loop has none). The rest of the window builds on this commit —
        // drop it and let a re-run rediscover what still fits.
        bool delay_violated;
        {
          TraceSpan delay_span(trace, "delay_check", "sta");
          delay_violated = violates_delay(cand, report.delay_limit, timing,
                                          report.diagnostics);
          delay_span.arg("violated", delay_violated ? 1 : 0);
        }
        if (delay_violated) {
          m_delay.c->inc();
          audit_decision(cand, "rejected_delay", true);
          return false;
        }

        const double power_before = model.total_power();
        const double area_before = netlist_->total_area();
        const bool active = resume.active();
        AppliedSub applied;
        try {
          applied = journal.apply(cand);
        } catch (const CheckError&) {
          if (active && resume.matches(cand))
            throw Error::input(
                "resume diverged: a checkpointed window substitution failed "
                "to re-apply (wrong input netlist or tampered log?)");
          m_apply_fail.c->inc();
          audit_decision(cand, "apply_failed", true);
          return false;
        }
        resync();
        if (options_.check_invariants) netlist_->check_consistency();

        if (options_.guard.signature_check && !po_signatures_ok()) {
          if (active && resume.matches(cand))
            throw Error::input(
                "resume diverged: the signature guard rejected a window "
                "commit the checkpoint recorded as accepted");
          m_guard_rb.c->inc();
          audit_decision(cand, "guard_rollback", true);
          try {
            journal.rollback_last();
            resync();
          } catch (const CheckError&) {
            resync();
            stopped = true;
            return true;  // stopping — no re-run
          }
          return false;
        }

        const double power_after = model.total_power();
        ClassStats& cls = report.by_class[static_cast<std::size_t>(cand.cls)];
        ++cls.applied;
        cls.power_delta += power_before - power_after;
        cls.area_delta += netlist_->total_area() - area_before;
        commit_log.push_back(CommitRecord{cand.cls, power_before - power_after,
                                          netlist_->total_area() -
                                              area_before});
        if (attr != nullptr)
          attr->record_commit(static_cast<int>(cand.cls), ex.id,
                              power_before - power_after);
        if (prog != nullptr)
          prog->commit(audit_iteration, subst_class_name(cand.cls), ex.id,
                       power_before - power_after, power_after);
        m_applied.c->inc();
        m_window_commits.c->inc();

        // Extend the local->parent map with the inserted gate so later
        // commits of this window that reference it keep mapping.
        if (wc.applied.new_gate != kNullGate &&
            applied.new_gate != kNullGate) {
          if (wc.applied.new_gate >= to_parent.size())
            to_parent.resize(wc.applied.new_gate + 1, kNullGate);
          to_parent[wc.applied.new_gate] = applied.new_gate;
        }

        // Every parent-side edit endpoint joins the touched set; later
        // windows whose support intersects it are conflict-skipped. The
        // parent MFFC sweep can exceed the local one (it reaches cones the
        // window clipped), so the endpoints come from the parent delta.
        mark(cand.target);
        for (const GateId g : applied.removed_gates) mark(g);
        for (const auto& fl : applied.removed_fanins)
          for (const GateId g : fl) mark(g);
        for (const RewiredPin& p : applied.rewired_pins) {
          mark(p.sink);
          mark(p.old_driver);
          mark(p.new_driver);
        }
        for (const ResizedCell& r : applied.resized_cells) mark(r.gate);
        for (const GateId g : applied.changed_roots) mark(g);
        if (applied.new_gate != kNullGate) {
          mark(applied.new_gate);
          for (const GateId g : netlist_->fanins(applied.new_gate)) mark(g);
        }

        if (active) {
          // Merged commits drain the global cursor in lockstep: the merge
          // order is deterministic, so record i of the WAL is exactly the
          // i-th commit merged here.
          const WalCommit& rec = resume.current();
          if (rec.window != static_cast<std::uint32_t>(ex.id) ||
              !same_candidate(rec.cand, cand) ||
              !same_applied(rec.applied, applied))
            throw Error::input(
                "resume diverged: merged window commits no longer match the "
                "checkpoint");
          resume.advance();
        }
        recorder.record_commit(audit_iteration,
                               static_cast<int>(merged_total), cand, applied,
                               static_cast<std::uint32_t>(ex.id));
        audit_decision(cand, "accepted", true, "window", "untestable");
        ++merged_total;
        progress = true;
      }
      return true;
    };

    for (int outer = 0;
         progress && !stopped && outer < options_.max_outer_iterations;
         ++outer) {
      m_iterations.c->inc();
      audit_iteration = outer + 1;
      TraceSpan iter_span(trace, "iteration", "powder");
      iter_span.arg("outer", outer + 1);
      progress = false;
      if (stop_requested()) break;
      progress_tick();
      const long long merged_before = merged_total;

      // Partition and extract serially from the current parent state.
      std::vector<WindowExtraction> extractions;
      {
        TraceSpan part_span(trace, "window_partition", "window");
        if (prog != nullptr)
          prog->phase(audit_iteration, "window_partition");
        const auto plans = partition_windows(*netlist_, options_.window);
        extractions.reserve(plans.size());
        for (const auto& plan : plans) {
          extractions.push_back(
              extract_window(*netlist_, model, plan, next_window_id++));
          m_windows.c->inc();
          m_window_gates.c->inc(
              static_cast<long long>(extractions.back().gates.size()));
          if (prog != nullptr)
            prog->window_event(
                audit_iteration, extractions.back().id, "extracted",
                static_cast<long long>(extractions.back().gates.size()));
        }
        part_span.arg("windows", static_cast<long long>(extractions.size()));
      }
      if (extractions.empty()) break;

      std::vector<std::vector<const WalCommit*>> oracles(extractions.size());
      for (std::size_t i = 0; i < extractions.size(); ++i)
        oracles[i] = window_records(extractions[i].id);
      std::vector<WindowResult> results(extractions.size());
      pool.for_shards(static_cast<int>(extractions.size()),
                      [&](int shard, int) {
                        WindowRunOptions wo;
                        wo.base = &options_;
                        wo.seed =
                            window_seed(options_.seed, extractions[shard].id);
                        wo.budget = &budget;
                        wo.trace = trace;
                        wo.replay = &oracles[shard];
                        results[shard] =
                            optimize_window(extractions[shard], wo);
                      });

      touched.clear();
      std::vector<std::size_t> rerun_queue;
      {
        TraceSpan merge_span(trace, "window_merge", "window");
        if (prog != nullptr)
          prog->phase(audit_iteration, "window_merge",
                      static_cast<long long>(extractions.size()), "windows");
        const auto order = window_merge_order(extractions.size(),
                                              options_.window.order_seed);
        for (const std::size_t idx : order) {
          if (stopped || stop_requested()) {
            stopped = true;
            break;
          }
          if (!merge_window(extractions[idx], results[idx],
                            /*check_conflicts=*/true)) {
            rerun_queue.push_back(idx);
            if (prog != nullptr)
              prog->window_event(audit_iteration, extractions[idx].id,
                                 "conflict");
          } else if (prog != nullptr) {
            prog->window_event(
                audit_iteration, extractions[idx].id, "merged", -1,
                static_cast<long long>(results[idx].commits.size()));
          }
          progress_tick();
        }
        merge_span.arg("merged", merged_total - merged_before);
        merge_span.arg("conflicts",
                       static_cast<long long>(rerun_queue.size()));
      }

      // Conflicted windows re-run serially against the now-mutated parent:
      // re-extract the surviving gates, optimize inline, merge immediately
      // (nothing intervenes, so no conflict check is needed).
      for (int round = 0; round < options_.window.rerun_limit &&
                          !rerun_queue.empty() && !stopped;
           ++round) {
        std::vector<std::size_t> next_queue;
        for (const std::size_t idx : rerun_queue) {
          if (stopped || stop_requested()) {
            stopped = true;
            break;
          }
          std::vector<std::uint8_t> member(netlist_->num_slots(), 0);
          for (const GateId g : extractions[idx].gates)
            if (netlist_->alive(g) && netlist_->kind(g) == GateKind::kCell)
              member[g] = 1;
          std::vector<GateId> alive_gates;
          for (const GateId g : netlist_->topo_order())
            if (member[g]) alive_gates.push_back(g);
          if (alive_gates.empty()) continue;
          m_window_reruns.c->inc();
          WindowExtraction ex =
              extract_window(*netlist_, model, alive_gates, next_window_id++);
          m_windows.c->inc();
          m_window_gates.c->inc(static_cast<long long>(ex.gates.size()));
          if (audit != nullptr) {
            AuditEvent e;
            e.event = "window_rerun";
            e.reason = "boundary_conflict";
            e.value = ex.id;
            audit->write_event(e);
          }
          WindowRunOptions wo;
          wo.base = &options_;
          wo.seed = window_seed(options_.seed, ex.id);
          wo.budget = &budget;
          wo.trace = trace;
          const auto oracle = window_records(ex.id);
          wo.replay = &oracle;
          if (prog != nullptr)
            prog->window_event(audit_iteration, ex.id, "rerun",
                               static_cast<long long>(ex.gates.size()));
          WindowResult res = optimize_window(ex, wo);
          if (!merge_window(ex, res, /*check_conflicts=*/false))
            next_queue.push_back(idx);
          progress_tick();
        }
        rerun_queue = std::move(next_queue);
      }
      iter_span.arg("applied", merged_total - merged_before);
    }
  } else {
    for (int outer = 0;
         progress && !stopped && outer < options_.max_outer_iterations;
         ++outer) {
      m_iterations.c->inc();
      audit_iteration = outer + 1;
      TraceSpan iter_span(trace, "iteration", "powder");
      iter_span.arg("outer", outer + 1);
      progress = false;
      if (stop_requested()) break;
      progress_tick();

      finder->reseed(options_.seed + 17 * static_cast<std::uint64_t>(outer));
      std::vector<CandidateSub> cands;
      {
        TraceSpan harvest_span(trace, "harvest", "harvest");
        if (prog != nullptr) prog->phase(audit_iteration, "harvest");
        cands = finder->find();
        harvest_span.arg("candidates", static_cast<long long>(cands.size()));
      }
      if (prog != nullptr)
        prog->phase(audit_iteration, "proof",
                    static_cast<long long>(cands.size()), "candidates");
      m_harvested.c->inc(static_cast<long long>(cands.size()));
      for (const CandidateSub& c : cands)
        m_cls_harvested[static_cast<std::size_t>(c.cls)].c->inc();
      m_truncated.c->inc(static_cast<long long>(finder->last_truncated()));
      if (outer >= 1) {
        report.diagnostics.candidate_gates_refreshed +=
            static_cast<long>(finder->last_refresh_count());
        report.diagnostics.candidate_index_size +=
            static_cast<long>(finder->index_size());
      }

      int performed = 0;
      while (performed < options_.repeat && !cands.empty()) {
        if (stop_requested()) {
          stopped = true;
          break;
        }
        // ---- select_power_red_subst --------------------------------------
        // Refresh validity and PG_A+PG_B of the surviving candidates whose
        // memo predates the netlist's epoch, preselect the best, then
        // re-estimate PG_C for the shortlist only.
        const Selection sel = select_power_red_subst(
            *netlist_, model, &cands, options_,
            [&](const CandidateSub& c) {
              if (substitution_still_valid(*netlist_, c)) return true;
              m_stale.c->inc();
              audit_decision(c, "rejected_stale");
              return false;
            },
            &selection_stats);
        const std::size_t best = sel.best;
        if (best == cands.size()) break;  // nothing left that helps

        // Speculate on the rest of the shortlist: if the chosen candidate is
        // rejected (delay or proof), the netlist is unchanged and the next
        // selection will pick from these — their verdicts are then already
        // cached. A commit invalidates the speculation wholesale. Pointless
        // while the WAL oracle answers proofs (resume fast-forward) or the
        // ladder has stepped off the full engine.
        if (pipe != nullptr && !resume.active() &&
            ladder.level() == DegradationLevel::kFullProof) {
          for (const std::size_t k : sel.shortlist)
            if (k != best) pipe->speculate(cands[k]);
        }

        CandidateSub chosen = cands[best];
        cands.erase(cands.begin() + static_cast<std::ptrdiff_t>(best));
        const bool pg_c_known = options_.objective != Objective::kArea;

        // ---- check_delay (§3.4) -------------------------------------------
        bool delay_violated;
        {
          TraceSpan delay_span(trace, "delay_check", "sta");
          delay_violated = violates_delay(chosen, report.delay_limit, timing,
                                          report.diagnostics);
          delay_span.arg("violated", delay_violated ? 1 : 0);
        }
        if (delay_violated) {
          m_delay.c->inc();
          audit_decision(chosen, "rejected_delay", pg_c_known);
          continue;
        }

        // ---- check_candidate: permissibility proof ------------------------
        // Fault injection can force an unproven candidate through this
        // pipeline; the post-commit guard below is what must catch it.
        bool forced = false;
        if (inject_fault(FaultInjector::Site::kStaleCandidate))
          forced = corrupt_candidate(*netlist_, verify_sim, &chosen);
        if (inject_fault(FaultInjector::Site::kAcceptProof)) forced = true;
        const char* proof_engine = nullptr;
        const char* proof_verdict = nullptr;
        double proof_us = -1.0;
        if (!forced) {
          // Cheap pre-proof: simulate the replacement on the independent
          // pattern set; any output difference is a definite refutation.
          const std::vector<std::uint64_t> words =
              replacement_words(verify_sim, chosen.rep);
          const FanoutRef* branch =
              chosen.branch.has_value() ? &*chosen.branch : nullptr;
          const auto diff = verify_sim.output_diff_with_replacement(
              chosen.target, branch, words);
          bool refuted = false;
          for (std::uint64_t w : diff)
            if (w) {
              refuted = true;
              break;
            }
          if (refuted) {
            m_presim.c->inc();
            audit_decision(chosen, "rejected_presim", pg_c_known);
            continue;
          }
          std::optional<AtpgResult> proof;
          if (resume.active()) {
            // WAL fast-forward: the oracle replaces the proof engines. A
            // candidate matching the next recorded commit was proved
            // permissible by the original run; any other candidate that
            // reaches this stage was rejected by it. Every cheaper stage
            // (harvest, selection, staleness, delay, presim) is recomputed
            // live, so once the cursor drains the run continues seamlessly —
            // and bit-identically — on the real engines.
            proof = resume.matches(chosen) ? AtpgResult::kUntestable
                                           : AtpgResult::kTestFound;
            proof_engine = "replay";
          } else if (ladder.level() == DegradationLevel::kSignatureOnly) {
            // Signature-reject-only rung: proof effort is no longer
            // affordable, and an unproven candidate is never accepted — so
            // everything that survives presim is rejected here while the run
            // drains toward a clean stop with its committed gains intact.
            m_degraded.c->inc();
            audit_decision(chosen, "rejected_degraded", pg_c_known, "none",
                           "skipped");
            continue;
          } else {
            const ProofEngine engine =
                ladder.level() == DegradationLevel::kPodemOnly
                    ? ProofEngine::kPodem
                    : options_.proof.engine;
            // Speculative verdicts were proved with the configured engine;
            // they stay usable only while the ladder has not changed it.
            if (pipe != nullptr && engine == options_.proof.engine) {
              proof = pipe->lookup(chosen);
              if (proof.has_value()) proof_engine = "speculative";
            }
            if (!proof.has_value()) {
              const bool timed = options_.trace.any();
              const std::uint64_t t0 = timed ? trace_now_ns() : 0;
              proof = prove_with_retry(atpg, sat, engine, chosen,
                                       options_.session.proof_retries,
                                       m_retries.c);
              if (timed)
                proof_us =
                    static_cast<double>(trace_now_ns() - t0) / 1000.0;
              proof_engine = engine_name(engine);
              m_inline.c->inc();
            }
          }
          proof_verdict = verdict_name(*proof);
          if (*proof != AtpgResult::kUntestable) {
            m_proof_rej.c->inc();
            audit_decision(chosen, "rejected_proof", pg_c_known, proof_engine,
                           proof_verdict, proof_us);
            continue;
          }
          m_cls_proved[static_cast<std::size_t>(chosen.cls)].c->inc();
        }

        // ---- perform_substitution + power_estimate_update -----------------
        const double power_before = model.total_power();
        const double area_before = netlist_->total_area();
        const bool replaying = resume.matches(chosen);
        AppliedSub applied;
        try {
          MutationScope scope(pipe);
          applied = journal.apply(chosen);
        } catch (const CheckError&) {
          // Stale or invalid at the last moment: the apply validated before
          // mutating, so the netlist is untouched — skip the candidate.
          if (replaying)
            throw Error::input(
                "resume diverged: a checkpointed substitution failed to "
                "re-apply (wrong input netlist or tampered log?)");
          m_apply_fail.c->inc();
          audit_decision(chosen, "apply_failed", pg_c_known, proof_engine,
                         proof_verdict, proof_us);
          continue;
        }
        resync();
        if (options_.check_invariants) netlist_->check_consistency();

        // ---- guard: the PO signatures must be untouched -------------------
        if (options_.guard.signature_check && !po_signatures_ok()) {
          if (replaying)
            throw Error::input(
                "resume diverged: the signature guard rejected a commit the "
                "checkpoint recorded as accepted");
          m_guard_rb.c->inc();
          audit_decision(chosen, "guard_rollback", pg_c_known, proof_engine,
                         proof_verdict, proof_us);
          try {
            {
              MutationScope scope(pipe);
              journal.rollback_last();
            }
            resync();
          } catch (const CheckError&) {
            // Rollback itself failed (possible only with a corrupted
            // journal); the deltas that did execute were published, so the
            // same resync still yields trustworthy caches. Stop committing
            // and let the final guard judge.
            resync();
            stopped = true;
            break;
          }
          continue;
        }

        const double power_after = model.total_power();
        ClassStats& cls =
            report.by_class[static_cast<std::size_t>(chosen.cls)];
        ++cls.applied;
        cls.power_delta += power_before - power_after;
        cls.area_delta += netlist_->total_area() - area_before;
        commit_log.push_back(CommitRecord{chosen.cls,
                                          power_before - power_after,
                                          netlist_->total_area() - area_before});
        if (attr != nullptr)
          attr->record_commit(static_cast<int>(chosen.cls), -1,
                              power_before - power_after);
        if (prog != nullptr)
          prog->commit(audit_iteration, subst_class_name(chosen.cls), -1,
                       power_before - power_after, power_after);
        m_applied.c->inc();
        if (replaying) {
          // Replay verification: the re-applied mutation must reproduce the
          // recorded delta bit-for-bit before the cursor moves on.
          if (!same_applied(resume.current().applied, applied))
            throw Error::input(
                "resume diverged: a replayed substitution produced a "
                "different netlist delta than the checkpoint recorded");
          resume.advance();
        }
        // Durable commit: the WAL frame is appended (and fsync'd) only after
        // the signature guard accepted the commit, so a resume never replays
        // a rolled-back substitution. A kill inside the frame write leaves a
        // torn tail the reader drops — the commit then simply re-runs live
        // on resume, with the same deterministic verdict.
        recorder.record_commit(audit_iteration, performed, chosen, applied);
        audit_decision(chosen, "accepted", pg_c_known, proof_engine,
                       proof_verdict, proof_us);
        ++performed;
        progress = true;
        progress_tick();
      }
      if (prog != nullptr)
        prog->phase(audit_iteration, "commit", performed, "applied");
      iter_span.arg("applied", performed);
    }
  }

  // Stop the proof workers before the end-of-run guard walk: from here on
  // the netlist mutates without speculation to invalidate.
  if (pipeline.has_value()) {
    pipeline->shutdown();
    report.diagnostics.proof_jobs_enqueued = pipeline->jobs_enqueued();
    report.diagnostics.speculative_proof_hits = pipeline->speculative_hits();
    report.diagnostics.stale_proofs_dropped = pipeline->stale_dropped();
  }

  // Registry -> report snapshot (the Diagnostics compat shim). Must happen
  // before the end-of-run guard walk, which adjusts the struct totals
  // directly — the registry counters stay monotonic.
  report.outer_iterations = static_cast<int>(m_iterations.delta());
  report.candidates_harvested = static_cast<int>(m_harvested.delta());
  report.rejected_stale = static_cast<int>(m_stale.delta());
  report.rejected_by_delay = static_cast<int>(m_delay.delta());
  report.rejected_by_atpg = static_cast<int>(
      m_presim.delta() + m_proof_rej.delta() + m_degraded.delta());
  report.substitutions_applied = static_cast<int>(m_applied.delta());
  report.diagnostics.apply_failures = static_cast<int>(m_apply_fail.delta());
  report.diagnostics.guard_rollbacks = static_cast<int>(m_guard_rb.delta());
  report.diagnostics.inline_proofs = m_inline.delta();
  report.diagnostics.windowing.windows_built =
      static_cast<long>(m_windows.delta());
  report.diagnostics.windowing.window_gates_total =
      static_cast<long>(m_window_gates.delta());
  report.diagnostics.windowing.window_commits =
      static_cast<long>(m_window_commits.delta());
  report.diagnostics.windowing.boundary_conflicts =
      static_cast<long>(m_window_conflicts.delta());
  report.diagnostics.windowing.window_reruns =
      static_cast<long>(m_window_reruns.delta());

  // ---- end-of-run guard: never emit a miscompiled netlist ---------------
  // Walk the journal back until the state passes every enabled check. With
  // intact deltas this converges at the latest on the pristine input; only
  // a corrupted journal can leave `guard_failed` set — reported, never
  // silent.
  if (options_.guard.signature_check || pristine.has_value()) {
    if (prog != nullptr) prog->phase(audit_iteration, "final_guard");
    auto state_good = [&]() {
      if (options_.guard.signature_check && !po_signatures_ok()) return false;
      if (pristine.has_value() &&
          !functionally_equivalent(*pristine, *netlist_))
        return false;
      return true;
    };
    while (!state_good() && !journal.empty()) {
      ++report.diagnostics.final_check_rollbacks;
      m_final_rb.c->inc();
      try {
        journal.rollback_last();
        resync();
      } catch (const CheckError&) {
        resync();
      }
      if (!commit_log.empty()) {
        const CommitRecord& rec = commit_log.back();
        ClassStats& cls = report.by_class[static_cast<std::size_t>(rec.cls)];
        --cls.applied;
        cls.power_delta -= rec.power_delta;
        cls.area_delta -= rec.area_delta;
        --report.substitutions_applied;
        commit_log.pop_back();
        // The attribution ledger pops in lockstep (same entry, same
        // double), keeping its per-class gains bitwise equal to by_class.
        if (attr != nullptr) attr->record_rollback();
      }
    }
    report.diagnostics.guard_failed = !state_good();
  }

  // Resub diagnostics snapshot — after the guard walk, so the applied/gain
  // columns reflect the commits that actually survived into the output.
  for (int i = 0; i < kNumResubClasses; ++i) {
    const auto k = static_cast<std::size_t>(i);
    auto& pc = report.diagnostics.resub.by_class[k];
    pc.harvested = static_cast<long>(m_cls_harvested[k].delta());
    pc.proved = static_cast<long>(m_cls_proved[k].delta());
    pc.applied = report.by_class[k].applied;
    pc.gain = report.by_class[k].power_delta;
  }
  report.diagnostics.resub.funcred_merges =
      static_cast<long>(m_funcred.delta());
  report.diagnostics.resub.harvest_truncated =
      static_cast<long>(m_truncated.delta());

  // Close the WAL with its end marker. Commits the end-of-run walk rolled
  // back stay recorded — a resume re-applies them and its own walk rolls
  // them back identically, so the final state still converges.
  recorder.record_end();
  report.diagnostics.degradation_events = ladder.transitions();
  report.diagnostics.retries = m_retries.delta();
  report.diagnostics.watchdog_requeues = m_watchdog.delta();
  report.diagnostics.checkpoint_frames = recorder.frames();
  report.diagnostics.resume_replayed = resume.replayed();
  report.diagnostics.checkpoint_disabled = recorder.degraded();
  if (ladder.mem_limit_hit()) report.diagnostics.mem_limit_hit = true;

  atpg_stats_ = atpg.stats();
  report.final_power = model.total_power();
  // The "after" sweep happens against exactly the state final_power was
  // read from, so the attribution sum reconciles bitwise here too.
  if (attr != nullptr) attr->end_run();
  report.final_area = netlist_->total_area();
  report.diagnostics.power_model.kind = power_model_name(model.kind());
  m_pgc_evals.c->inc(selection_stats.pgc_evaluations);
  m_pgc_memo.c->inc(selection_stats.pgc_memo_hits);
  if (timed_model.has_value()) {
    m_pgc_cone.c->inc(timed_model->replay_stats().cone_gates);
    m_pgc_fallback.c->inc(timed_model->replay_stats().fallback_pairs);
    report.diagnostics.power_model.vector_pairs =
        timed_model->glitch_options().num_vector_pairs;
    report.diagnostics.power_model.timed_resims = timed_model->resim_count();
    report.diagnostics.power_model.event_overflows =
        timed_model->event_overflows();
    report.diagnostics.power_model.glitch_share =
        timed_model->estimate().glitch_share();
  }
  report.diagnostics.power_model.pgc_evaluations = m_pgc_evals.delta();
  report.diagnostics.power_model.pgc_memo_hits = m_pgc_memo.delta();
  report.diagnostics.power_model.pgc_cone_gates = m_pgc_cone.delta();
  report.diagnostics.power_model.pgc_fallback_pairs = m_pgc_fallback.delta();
  report.final_delay = timing.circuit_delay();
  report.diagnostics.sta_incremental_visits +=
      static_cast<long>(timing.nodes_visited());
  report.diagnostics.sta_full_equiv_visits +=
      static_cast<long>(timing.full_equiv_visits());
  report.diagnostics.deltas_published = static_cast<long>(
      netlist_->deltas_published() - deltas_before);
  report.diagnostics.observer_notifications = static_cast<long>(
      netlist_->observer_notifications() - notifications_before);
  report.diagnostics.pin_slabs_allocated =
      static_cast<long>(netlist_->pin_slabs_allocated());
  report.diagnostics.pin_slabs_recycled =
      static_cast<long>(netlist_->pin_slabs_recycled());
  report.diagnostics.name_pool_bytes =
      static_cast<long>(netlist_->name_pool_bytes());
  report.diagnostics.peak_rss_bytes = static_cast<long>(peak_rss_bytes());
  report.cpu_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();

  // Publish the end-computed diagnostics into the registry too, so a
  // metrics export stands on its own without the report JSON next to it.
  if (options_.trace.metrics != nullptr) {
    MetricsRegistry& r = *options_.trace.metrics;
    auto pub = [&](const char* name, const char* help, long long v) {
      r.counter(name, help)->inc(v);
    };
    pub("powder_proof_jobs_enqueued_total",
        "Speculative proof jobs handed to workers",
        report.diagnostics.proof_jobs_enqueued);
    pub("powder_speculative_proof_hits_total",
        "Chosen candidates served from the speculative proof cache",
        report.diagnostics.speculative_proof_hits);
    pub("powder_stale_proofs_dropped_total",
        "Worker proof results invalidated by commits",
        report.diagnostics.stale_proofs_dropped);
    pub("powder_deltas_published_total",
        "Netlist deltas published during the run",
        report.diagnostics.deltas_published);
    pub("powder_observer_notifications_total",
        "Delta deliveries to netlist observers",
        report.diagnostics.observer_notifications);
    pub("powder_sta_incremental_visits_total",
        "Gates the incremental STA re-evaluated",
        report.diagnostics.sta_incremental_visits);
    pub("powder_sta_full_equiv_visits_total",
        "Gates a full STA would have re-evaluated",
        report.diagnostics.sta_full_equiv_visits);
    r.gauge("powder_power_initial", "Estimated power before optimization")
        ->set(report.initial_power);
    r.gauge("powder_power_final", "Estimated power after optimization")
        ->set(report.final_power);
    r.gauge("powder_area_final", "Total cell area after optimization")
        ->set(report.final_area);
    r.gauge("powder_delay_final", "Circuit delay after optimization")
        ->set(report.final_delay);
    r.gauge("powder_threads_used", "Resolved thread count of the run")
        ->set(static_cast<double>(threads));
    if (trace != nullptr) {
      r.gauge("powder_trace_events_recorded",
              "Events accepted into the trace rings so far")
          ->set(static_cast<double>(trace->events_recorded()));
      r.gauge("powder_trace_events_dropped",
              "Events dropped on full trace rings so far")
          ->set(static_cast<double>(trace->dropped()));
    }
    report.metrics_json = r.to_json();
  }
  if (prog != nullptr)
    prog->run_end(report.final_power, report.substitutions_applied,
                  report.outer_iterations);
  return report;
}

}  // namespace powder
