#pragma once
// Candidate-substitution harvesting via fault-simulation signatures.
//
// For every target site the simulator provides (a) the signal's signature
// over the sampled patterns and (b) its observability mask (patterns where
// flipping it changes some primary output). A source signal b is a
// candidate replacement when its signature agrees with the target's on
// every *observable* pattern — i.e., the sampled evidence is consistent
// with b being a permissible function of the target's location. Candidates
// are later *proved* (or refuted) by the ATPG checker; this stage only has
// to be sound-for-rejection and cheap.
//
// Pair candidates (OS3/IS3) are enumerated over a bounded local pool to
// keep the quadratic step affordable.
//
// Bound, then match (the paper's §3.5 preselection, one step earlier).
// Every site's gain is bounded by the PG_A of a constant replacement there:
// PG_B <= 0 for every replacement kind, and any other replacement keeps its
// sources alive, which can only shrink the removed cone. find() computes
// that bound for every site, then visits the sites in descending bound
// order in fixed-size batches (kBatchSites, independent of the thread
// count). Before each batch it fixes a threshold — the k-th best gain
// harvested so far, k = max_candidates — and only sites whose bound can
// still reach it (bound + slack >= threshold; ties are kept) run the
// observability pass and pool + signature matching; the first site that
// falls short ends the harvest, because bounds only fall from there. The
// threshold never exceeds the final k-th gain, so a pruned site holds no
// candidate that could have been kept.
//
// The output order is total: preselection gain descending, then site order
// (each signal's stem before its branches, signals ascending), then order
// within the site. Each site draws its random pool from its own RNG
// stream, seeded from the iteration seed and the site (target, branch
// gate, pin). Together these make the result independent of which sites
// were pruned and of the thread count: a batch's sites are matched in
// parallel into per-site slices, and nothing a site computes depends on
// another site.
//
// The finder is persistent across optimization iterations: it subscribes
// to the netlist delta bus (membership changes) and drains the simulator's
// refreshed-gate accumulator (signature changes), and find() re-hashes
// only the gates dirtied since the previous harvest. The maintained index
// is structurally identical to a fresh rebuild — signal list ascending,
// signature buckets sorted — so a persistent finder with the same seed
// returns bit-identical candidates.

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "opt/power_gain.hpp"
#include "opt/substitution.hpp"
#include "power/power.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace powder {

class TraceSession;

/// Knobs of the generalized resubstitution framework: how far beyond the
/// paper's pair classes the harvest reaches.
struct ResubOptions {
  bool enable_three_subs = true;
  int three_sub_b_pool = 20;    ///< first operands tried for OS3/IS3
  int max_three_per_target = 6;
  /// Maximum divisor-set size harvested. 2 = the paper's classes only;
  /// k >= 3 additionally harvests OSK/ISK candidates (new k-input gates)
  /// up to min(max_divisors, largest library arity) divisors.
  int max_divisors = 2;
  int ksub_b_pool = 10;         ///< divisor pool prefix for OSK/ISK tuples
  int max_k_per_target = 4;     ///< OSK/ISK candidates kept per site
};

struct CandidateOptions {
  int local_pool_size = 64;     ///< structural-neighborhood sources/target
  int random_pool_size = 24;    ///< extra random sources/target
  int max_candidates = 800;     ///< global cap, best preselect gain first
  bool allow_constants = true;  ///< replace unobservable signals by constants
  ResubOptions resub;           ///< generalized-resubstitution knobs
};

/// A library cell usable as a k-input replacement gate: its function
/// depends on every input (constant and fewer-input shapes are the 2-signal
/// pass's job).
struct ReplacementCell {
  CellId id = kInvalidCell;
  const TruthTable* function = nullptr;
  /// f's minterm bits, bit m = f(m), for the first 64 minterms.
  std::uint64_t onset = 0;
};

/// The library's replacement cells with `arity` inputs, in library order.
std::vector<ReplacementCell> replacement_cells(const CellLibrary& library,
                                               int arity);

/// One OS3/IS3 match of the pair filter: pool positions of b and c and the
/// position of the cell in the filter's cell list.
struct PairMatch {
  std::uint32_t b = 0, c = 0, cell = 0;
};

/// Work done by the pair filter: (b, c) pairs tested, and how many left
/// some cell standing.
struct PairFilterCounts {
  std::uint64_t pairs = 0, passed = 0;
};

/// The OS3/IS3 pair filter (paper §3.2). A 2-input cell f(b, c) agrees
/// with the target signature `a` on the care patterns iff f maps each input
/// minterm to every care value of `a` that minterm covers. Pairs are tried
/// in order — b over the first `b_limit` pool entries, then c over the
/// whole pool, c != b — and every cell of `cells` (2-input, in order) that
/// agrees is appended to `out` until `cap` matches. `pool` holds each
/// entry's signature, a.size() words like `care`.
PairFilterCounts filter_pairs(std::span<const std::uint64_t> a,
                              std::span<const std::uint64_t> care,
                              std::span<const std::uint64_t* const> pool,
                              int b_limit, int cap,
                              std::span<const ReplacementCell> cells,
                              std::vector<PairMatch>* out);

class CandidateFinder final : public NetlistObserver {
 public:
  /// Sites visited per pruning batch. The threshold is fixed before each
  /// batch, so the batch size — not the thread count — decides which sites
  /// are matched; it never changes the output.
  static constexpr std::size_t kBatchSites = 256;
  /// Relative slack on a site bound before it is compared with the
  /// threshold: a candidate whose sources stay alive inside the MFFC can
  /// have a PG_A mathematically equal to the bound but summed in another
  /// order.
  static constexpr double kBoundSlack = 1e-9;

  CandidateFinder(const Netlist& netlist, const PowerModel& estimator,
                  CandidateOptions options = {}, std::uint64_t seed = 1,
                  ThreadPool* pool = nullptr);
  ~CandidateFinder() override;
  CandidateFinder(const CandidateFinder&) = delete;
  CandidateFinder& operator=(const CandidateFinder&) = delete;

  /// Harvests candidates, with pg_a/pg_b filled, in the total order
  /// (preselection gain descending, then site order, then order within the
  /// site) and truncated to max_candidates. Refreshes the signature index
  /// first (requires a clean simulator).
  std::vector<CandidateSub> find() { return find(/*prune=*/true); }

  /// Sets the iteration seed every site's random-pool stream derives from
  /// (one reseed per optimization iteration keeps the harvest identical to
  /// a freshly constructed finder).
  void reseed(std::uint64_t seed) { seed_ = seed; }

  /// Attaches a trace session (borrowed, may be null). Parallel harvest
  /// passes then emit one "harvest_shard" span per worker shard, which is
  /// what makes load imbalance across sites visible in Perfetto.
  void set_trace(TraceSession* trace) { trace_ = trace; }

  /// Delta-bus subscription: accumulates membership changes (not for
  /// users; signature changes arrive via the simulator's drain).
  void on_delta(const NetlistDelta& delta) override;

  // Diagnostics for the last find(): gates re-hashed by the index refresh,
  // whether that refresh was a full rebuild, and the index size.
  std::size_t last_refresh_count() const { return last_refresh_count_; }
  bool last_refresh_full() const { return last_refresh_full_; }
  std::size_t index_size() const { return signal_gates_.size(); }
  /// Candidates scored and then dropped by the max_candidates cap in the
  /// last find(). Non-zero means the harvest was NOT full coverage of the
  /// netlist. Sites pruned by their bound are not counted here.
  std::size_t last_truncated() const { return last_truncated_; }
  /// Sites the last find() bounded, and how many of them it matched (the
  /// rest were pruned: their bound could not reach the k-th best gain).
  std::size_t last_sites() const { return last_sites_; }
  std::size_t last_sites_matched() const { return last_sites_matched_; }
  /// The OS3/IS3 pair filter's work over the last find()'s matched sites.
  PairFilterCounts last_three_sub_pairs() const { return last_pairs_; }

 private:
  friend struct CandidateFinderTestAccess;

  /// One harvesting site: a stem (no branch) or a single fanout branch,
  /// with its bound (the PG_A of a constant replacement there).
  struct Site {
    GateId target{};
    std::optional<FanoutRef> branch;
    double bound = 0.0;
    PairFilterCounts pairs;  ///< the pair filter's work, once matched
  };

  const Netlist* netlist_;
  const PowerModel* estimator_;
  const Simulator* sim_;
  CandidateOptions options_;
  std::uint64_t seed_;
  ThreadPool* pool_;
  TraceSession* trace_ = nullptr;
  std::size_t batch_sites_ = kBatchSites;  // smaller only in tests
  // Replacement cells by arity; the library is fixed for the finder's life.
  std::vector<std::vector<ReplacementCell>> cells_by_arity_;

  std::vector<GateId> signal_gates_;  // live PIs + cells, ascending
  // Global equivalence index: hash of the value signature (and of its
  // complement) -> signals. Catches functionally identical logic anywhere
  // in the circuit, far beyond the structural neighborhood. Buckets are
  // kept sorted ascending (the fresh-build order) across incremental
  // updates.
  std::unordered_map<std::uint64_t, std::vector<GateId>> by_signature_;
  std::vector<std::uint64_t> sig_hash_, inv_sig_hash_;
  std::vector<std::uint8_t> in_index_;  // gate currently in the index?

  // Epoch-dirty gates accumulated from the delta bus, plus the refresh
  // bookkeeping of the last find().
  bool pending_full_ = false;
  std::vector<GateId> pending_;
  std::vector<std::uint8_t> pending_flag_;
  std::size_t last_refresh_count_ = 0;
  bool last_refresh_full_ = true;
  std::size_t last_truncated_ = 0;
  std::size_t last_sites_ = 0;
  std::size_t last_sites_matched_ = 0;
  PairFilterCounts last_pairs_;

  /// The harvest; `prune` = false matches every site (the parity oracle's
  /// reference, reachable from tests only).
  std::vector<CandidateSub> find(bool prune);

  void rebuild_index();
  void refresh_index();
  void rehash_gate(GateId g);
  void index_insert(GateId g);
  void index_erase(GateId g);

  /// Runs fn(i) for every i < n, sharded across the pool when one is
  /// attached (shards are claimed dynamically for load balance).
  void for_sites(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Every site in site order: for each signal, the stem, then every
  /// branch of a multi-fanout stem.
  std::vector<Site> collect_sites() const;
  /// The site's bound: the PG_A of a constant replacement at the site.
  double site_bound(GateId target, const FanoutRef* branch) const;
  struct SiteMarks;
  std::vector<GateId> build_pool(GateId around, SiteMarks& marks,
                                 Rng& rng) const;
  /// The site's source pool: equivalence hits, the structural
  /// neighborhood and random signals, none in the site's faulty region.
  std::vector<GateId> site_pool(GateId target, const FanoutRef* branch) const;
  /// Observability, the constant candidate and pool + signature matching
  /// for one site, appended to `out` in the site's own order; records the
  /// pair filter's work in `site.pairs`.
  void match_site(Site& site, std::vector<CandidateSub>* out) const;
};

}  // namespace powder
