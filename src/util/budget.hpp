#pragma once
// Shared resource budget for an optimization run: a wall-clock deadline and
// global proof-effort pools (ATPG backtracks, SAT conflicts).
//
// The optimizer owns one ResourceBudget and hands a pointer to every
// component that burns bounded effort. A proof engine asks for a per-call
// grant (its own per-call limit clamped to what is left in the pool),
// reports what it actually used afterwards, and aborts immediately when its
// pool is dry or the deadline has passed. Exhaustion is therefore always a
// clean, reported degradation — never a hang and never a hard error.
//
// The optimizer touches its budget from the commit thread only (every proof
// runs inline there), so the pools see no contention in a run. They stay
// atomic so that a budget shared by concurrent callers remains sound: a CAS
// loop in `consume` debits the pool exactly once per unit of effort and
// never lets it go negative, so threads cannot double-spend.

#include <atomic>
#include <chrono>

namespace powder {

class ResourceBudget {
 public:
  ResourceBudget() = default;
  ResourceBudget(const ResourceBudget&) = delete;
  ResourceBudget& operator=(const ResourceBudget&) = delete;

  /// Arms a wall-clock deadline `seconds` from now; negative disables.
  /// Not thread-safe — call before handing the budget to workers.
  void set_deadline(double seconds);
  /// Caps the total PODEM backtracks across all checks; negative = unlimited.
  void set_atpg_backtrack_pool(long n) {
    atpg_pool_.store(n < 0 ? -1 : n, std::memory_order_relaxed);
  }
  /// Caps the total SAT conflicts across all checks; negative = unlimited.
  void set_sat_conflict_pool(long n) {
    sat_pool_.store(n < 0 ? -1 : n, std::memory_order_relaxed);
  }

  bool has_deadline() const { return has_deadline_; }
  bool expired() const;
  /// Seconds until the deadline (clamped at 0); +inf when no deadline.
  double remaining_seconds() const;

  /// Largest effort (<= `ask`) the caller may spend right now; 0 when the
  /// pool is dry. The caller reports actual use via the consume_* calls.
  long grant_atpg_backtracks(long ask) const { return grant(atpg_pool_, ask); }
  long grant_sat_conflicts(long ask) const { return grant(sat_pool_, ask); }
  void consume_atpg_backtracks(long used) { consume(&atpg_pool_, used); }
  void consume_sat_conflicts(long used) { consume(&sat_pool_, used); }

  bool atpg_pool_dry() const {
    return atpg_pool_.load(std::memory_order_relaxed) == 0;
  }
  bool sat_pool_dry() const {
    return sat_pool_.load(std::memory_order_relaxed) == 0;
  }
  /// True when neither proof engine can be paid for another call. Unlimited
  /// pools never drain, so this only triggers when both pools were set.
  bool proof_effort_exhausted() const {
    return atpg_pool_dry() && sat_pool_dry();
  }

 private:
  using Clock = std::chrono::steady_clock;

  static long grant(const std::atomic<long>& pool, long ask) {
    const long p = pool.load(std::memory_order_relaxed);
    if (p < 0) return ask;
    return ask < p ? ask : p;
  }
  static void consume(std::atomic<long>* pool, long used) {
    if (used <= 0) return;
    long p = pool->load(std::memory_order_relaxed);
    while (p >= 0) {
      const long next = used < p ? p - used : 0;
      if (pool->compare_exchange_weak(p, next, std::memory_order_relaxed))
        return;
      // p reloaded by the failed CAS; re-check the unlimited sentinel.
    }
  }

  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  std::atomic<long> atpg_pool_{-1};  // -1 = unlimited
  std::atomic<long> sat_pool_{-1};
};

}  // namespace powder
