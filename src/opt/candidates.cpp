#include "opt/candidates.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <span>
#include <utility>

#include "trace/trace.hpp"
#include "util/check.hpp"

namespace powder {

namespace {

/// True if (a ^ b) & mask == 0 word-wise.
bool agrees(std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
            std::span<const std::uint64_t> mask, bool invert_b) {
  for (std::size_t w = 0; w < a.size(); ++w) {
    const std::uint64_t bv = invert_b ? ~b[w] : b[w];
    if ((a[w] ^ bv) & mask[w]) return false;
  }
  return true;
}

bool all_zero(std::span<const std::uint64_t> mask) {
  for (std::uint64_t w : mask)
    if (w) return false;
  return true;
}

/// splitmix64's finalizer: one avalanche step per mixed-in field.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Seed of a site's random-pool stream: the iteration seed mixed with the
/// target, the branch gate and the branch pin (a stem has kNullGate and
/// pin -1).
std::uint64_t site_seed(std::uint64_t seed, GateId target,
                        const FanoutRef* branch) {
  const std::uint64_t gate = branch != nullptr ? branch->gate : kNullGate;
  const std::uint64_t pin =
      branch != nullptr ? static_cast<std::uint64_t>(branch->pin) : ~0ull;
  return mix64(mix64(mix64(seed ^ target) ^ gate) ^ pin);
}

CandidateSub site_base(GateId target, const FanoutRef* branch) {
  CandidateSub cand;
  cand.target = target;
  if (branch != nullptr) {
    cand.branch = *branch;
    cand.cls = SubstClass::kIS2;
  } else {
    cand.cls = SubstClass::kOS2;
  }
  return cand;
}

/// True when a site bounded by `bound` may still hold a candidate whose
/// gain reaches `threshold` (ties are kept).
bool reaches(double bound, double threshold) {
  return !(bound + CandidateFinder::kBoundSlack * std::abs(bound) <
           threshold);
}

/// Per-thread scratch of the pair filter: the care word positions, the
/// target's on/off care masks there, and the current b's split of them.
struct PairScratch {
  std::vector<std::uint32_t> words;
  std::vector<std::uint64_t> on, off;
  /// Per care word j: on & ~b, on & b, off & ~b, off & b.
  std::vector<std::uint64_t> split;
};

}  // namespace

std::vector<ReplacementCell> replacement_cells(const CellLibrary& library,
                                               int arity) {
  std::vector<ReplacementCell> out;
  for (CellId id : library.cells_with_arity(arity)) {
    const TruthTable& f = library.cell(id).function;
    bool degenerate = false;
    for (int v = 0; v < arity; ++v)
      if (!f.depends_on(v)) degenerate = true;
    if (degenerate) continue;
    ReplacementCell cell{id, &f, 0};
    const std::uint64_t minterms =
        std::min<std::uint64_t>(f.num_minterms_capacity(), 64);
    for (std::uint64_t m = 0; m < minterms; ++m)
      if (f.bit(m)) cell.onset |= 1ull << m;
    out.push_back(cell);
  }
  return out;
}

PairFilterCounts filter_pairs(std::span<const std::uint64_t> a,
                              std::span<const std::uint64_t> care,
                              std::span<const std::uint64_t* const> pool,
                              int b_limit, int cap,
                              std::span<const ReplacementCell> cells,
                              std::vector<PairMatch>* out) {
  // Only the care words can decide a pair; the rest are skipped.
  thread_local PairScratch s;
  s.words.clear();
  s.on.clear();
  s.off.clear();
  for (std::size_t w = 0; w < care.size(); ++w) {
    if (care[w] == 0) continue;
    s.words.push_back(static_cast<std::uint32_t>(w));
    s.on.push_back(a[w] & care[w]);
    s.off.push_back(~a[w] & care[w]);
  }
  const std::size_t n = s.words.size();
  s.split.resize(4 * n);
  const std::uint32_t* const words = s.words.data();
  std::uint64_t* const split = s.split.data();

  PairFilterCounts counts;
  int made = 0;
  for (std::uint32_t bi = 0; static_cast<int>(bi) < b_limit && made < cap;
       ++bi) {
    const std::uint64_t* const sig_b = pool[bi];
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t bw = sig_b[words[j]];
      split[4 * j + 0] = s.on[j] & ~bw;
      split[4 * j + 1] = s.on[j] & bw;
      split[4 * j + 2] = s.off[j] & ~bw;
      split[4 * j + 3] = s.off[j] & bw;
    }
    for (std::uint32_t ci = 0; ci < pool.size(); ++ci) {
      if (ci == bi) continue;
      const std::uint64_t* const sig_c = pool[ci];
      ++counts.pairs;
      // Minterm m of (b, c) is bit m = b + 2c: need1 collects the minterms
      // covering an observable 1 of the target, need0 those covering a 0.
      unsigned need1 = 0, need0 = 0;
      for (std::size_t j = 0; j < n && (need1 & need0) == 0; ++j) {
        const std::uint64_t cw = sig_c[words[j]];
        const std::uint64_t* const q = split + 4 * j;
        need1 |= static_cast<unsigned>((q[0] & ~cw) != 0) |
                 static_cast<unsigned>((q[1] & ~cw) != 0) << 1 |
                 static_cast<unsigned>((q[0] & cw) != 0) << 2 |
                 static_cast<unsigned>((q[1] & cw) != 0) << 3;
        need0 |= static_cast<unsigned>((q[2] & ~cw) != 0) |
                 static_cast<unsigned>((q[3] & ~cw) != 0) << 1 |
                 static_cast<unsigned>((q[2] & cw) != 0) << 2 |
                 static_cast<unsigned>((q[3] & cw) != 0) << 3;
      }
      if (need1 & need0) continue;
      ++counts.passed;
      for (std::uint32_t k = 0; k < cells.size(); ++k) {
        const std::uint64_t onset = cells[k].onset;
        if ((onset & need1) != need1 || (onset & need0) != 0) continue;
        out->push_back(PairMatch{bi, ci, k});
        if (++made >= cap) return counts;
      }
    }
  }
  return counts;
}

/// Per-thread membership tables for one site's match: the forbidden region
/// (the site's faulty region), the pool's seen set and the BFS visited set.
/// Each site takes a fresh epoch, so once the tables cover the netlist
/// nothing is cleared or allocated per site (the MffcMarks pattern of
/// netlist.cpp); harvest shards each own their thread's tables.
struct CandidateFinder::SiteMarks {
  std::vector<std::uint32_t> forbidden, seen, visited;
  std::vector<GateId> stack, frontier, next;  // capacity kept across sites
  std::uint32_t epoch = 0;

  std::uint32_t begin(std::size_t slots) {
    if (forbidden.size() < slots) {
      forbidden.resize(slots, 0);
      seen.resize(slots, 0);
      visited.resize(slots, 0);
    }
    if (epoch == std::numeric_limits<std::uint32_t>::max()) {
      for (auto* table : {&forbidden, &seen, &visited})
        std::fill(table->begin(), table->end(), 0);
      epoch = 0;
    }
    return ++epoch;
  }
};

CandidateFinder::CandidateFinder(const Netlist& netlist,
                                 const PowerModel& estimator,
                                 CandidateOptions options, std::uint64_t seed,
                                 ThreadPool* pool)
    : netlist_(&netlist),
      estimator_(&estimator),
      sim_(&estimator.simulator()),
      options_(options),
      seed_(seed),
      pool_(pool) {
  // Arity 2 serves OS3/IS3, arities 3..max_divisors OSK/ISK.
  cells_by_arity_.resize(
      static_cast<std::size_t>(std::max(2, options_.resub.max_divisors)) + 1);
  for (std::size_t k = 2; k < cells_by_arity_.size(); ++k)
    cells_by_arity_[k] =
        replacement_cells(netlist_->library(), static_cast<int>(k));
  rebuild_index();
  netlist_->attach_observer(this);
}

CandidateFinder::~CandidateFinder() { netlist_->detach_observer(this); }

void CandidateFinder::rehash_gate(GateId g) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  std::uint64_t hi_hash = 0xCBF29CE484222325ull;
  for (std::uint64_t w : sim_->value(g)) {
    h = (h ^ w) * 0x100000001B3ull;
    hi_hash = (hi_hash ^ ~w) * 0x100000001B3ull;
  }
  sig_hash_[g] = h;
  inv_sig_hash_[g] = hi_hash;
}

void CandidateFinder::rebuild_index() {
  const std::size_t n = netlist_->num_slots();
  signal_gates_.clear();
  by_signature_.clear();
  in_index_.assign(n, 0);
  sig_hash_.assign(n, 0);
  inv_sig_hash_.assign(n, 0);
  for (GateId g = 0; g < n; ++g)
    if (netlist_->alive(g) && netlist_->kind(g) != GateKind::kOutput) {
      signal_gates_.push_back(g);
      in_index_[g] = 1;
    }
  // Signature hashes for global-equivalence lookup (both phases). The hash
  // computation is sharded (disjoint writes per gate); bucket insertion
  // stays serial so bucket order is the deterministic signal_gates_ order.
  auto hash_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) rehash_gate(signal_gates_[i]);
  };
  if (pool_ != nullptr && !ThreadPool::in_parallel_region()) {
    pool_->parallel_for(signal_gates_.size(), 64, hash_range);
  } else {
    hash_range(0, signal_gates_.size());
  }
  for (GateId g : signal_gates_) by_signature_[sig_hash_[g]].push_back(g);
}

void CandidateFinder::index_erase(GateId g) {
  const auto bucket_it = by_signature_.find(sig_hash_[g]);
  POWDER_CHECK(bucket_it != by_signature_.end());
  std::vector<GateId>& bucket = bucket_it->second;
  const auto bit = std::find(bucket.begin(), bucket.end(), g);
  POWDER_CHECK(bit != bucket.end());
  bucket.erase(bit);
  if (bucket.empty()) by_signature_.erase(bucket_it);
  const auto sit =
      std::lower_bound(signal_gates_.begin(), signal_gates_.end(), g);
  POWDER_CHECK(sit != signal_gates_.end() && *sit == g);
  signal_gates_.erase(sit);
  in_index_[g] = 0;
}

void CandidateFinder::index_insert(GateId g) {
  rehash_gate(g);
  std::vector<GateId>& bucket = by_signature_[sig_hash_[g]];
  bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), g), g);
  signal_gates_.insert(
      std::lower_bound(signal_gates_.begin(), signal_gates_.end(), g), g);
  in_index_[g] = 1;
}

void CandidateFinder::on_delta(const NetlistDelta& delta) {
  switch (delta.kind) {
    case DeltaKind::kGateAdded:
    case DeltaKind::kGateRevived:
    case DeltaKind::kGateRemoved: {
      if (pending_full_) return;
      if (pending_flag_.size() < netlist_->num_slots())
        pending_flag_.resize(netlist_->num_slots(), 0);
      if (!pending_flag_[delta.gate]) {
        pending_flag_[delta.gate] = 1;
        pending_.push_back(delta.gate);
      }
      break;
    }
    case DeltaKind::kRebuilt:
      for (GateId g : pending_) pending_flag_[g] = 0;
      pending_.clear();
      pending_full_ = true;
      break;
    case DeltaKind::kFaninChanged:
    case DeltaKind::kCellChanged:
      // Membership is unchanged; the value dirt arrives through the
      // simulator's refreshed-gate drain.
      break;
  }
}

void CandidateFinder::refresh_index() {
  POWDER_CHECK_MSG(!sim_->pending(),
                   "candidate harvest on a stale simulator — refresh first");
  const Simulator::Refreshed drained = sim_->drain_refreshed();
  if (pending_full_ || drained.full) {
    rebuild_index();
    for (GateId g : pending_) pending_flag_[g] = 0;
    pending_.clear();
    pending_full_ = false;
    last_refresh_full_ = true;
    last_refresh_count_ = signal_gates_.size();
    return;
  }
  const std::size_t n = netlist_->num_slots();
  if (in_index_.size() < n) in_index_.resize(n, 0);
  if (sig_hash_.size() < n) {
    sig_hash_.resize(n, 0);
    inv_sig_hash_.resize(n, 0);
  }
  if (pending_flag_.size() < n) pending_flag_.resize(n, 0);
  for (GateId g : drained.gates) {
    if (!pending_flag_[g]) {
      pending_flag_[g] = 1;
      pending_.push_back(g);
    }
  }
  last_refresh_full_ = false;
  last_refresh_count_ = pending_.size();
  for (GateId g : pending_) {
    pending_flag_[g] = 0;
    // Erase-then-reinsert keeps the maintained index structurally
    // identical to a fresh rebuild (ascending signal list, sorted
    // buckets), so harvests stay bit-identical.
    if (in_index_[g]) index_erase(g);
    if (netlist_->alive(g) && netlist_->kind(g) != GateKind::kOutput)
      index_insert(g);
  }
  pending_.clear();
}

void CandidateFinder::for_sites(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  if (pool_ == nullptr || ThreadPool::in_parallel_region() || n < 2) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // More shards than lanes: shards are claimed dynamically, which balances
  // the very uneven per-site cost (a few sites dominate the harvest).
  const int shards = static_cast<int>(std::min<std::size_t>(
      n, static_cast<std::size_t>(pool_->parallelism()) * 8));
  pool_->for_shards(shards, [&](int shard, int num_shards) {
    TraceSpan span(trace_, "harvest_shard", "harvest");
    const std::size_t lo =
        n * static_cast<std::size_t>(shard) / static_cast<std::size_t>(num_shards);
    const std::size_t hi = n * (static_cast<std::size_t>(shard) + 1) /
                           static_cast<std::size_t>(num_shards);
    span.arg("shard", shard);
    span.arg("sites", static_cast<long long>(hi - lo));
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

std::vector<GateId> CandidateFinder::build_pool(GateId around,
                                                SiteMarks& marks,
                                                Rng& rng) const {
  const std::uint32_t epoch = marks.epoch;
  std::vector<GateId> pool;
  pool.reserve(static_cast<std::size_t>(
      std::max(0, options_.local_pool_size + options_.random_pool_size)));
  auto try_add = [&](GateId g) {
    if (marks.seen[g] == epoch || marks.forbidden[g] == epoch ||
        !netlist_->alive(g))
      return false;
    marks.seen[g] = epoch;
    if (netlist_->kind(g) == GateKind::kOutput) return false;
    pool.push_back(g);
    return true;
  };
  // Global equivalence hits first: signals whose signature matches the
  // target's (either phase) anywhere in the circuit.
  for (std::uint64_t h : {sig_hash_[around], inv_sig_hash_[around]}) {
    if (const auto it = by_signature_.find(h); it != by_signature_.end())
      for (GateId g : it->second)
        if (g != around) try_add(g);
  }
  // Breadth-first over the undirected netlist graph starting at the target;
  // nearby signals share support and are the most likely permissible
  // replacements (and the cheapest to wire).
  std::vector<GateId>& frontier = marks.frontier;
  std::vector<GateId>& next = marks.next;
  frontier.assign(1, around);
  marks.visited[around] = epoch;
  while (!frontier.empty() &&
         static_cast<int>(pool.size()) < options_.local_pool_size) {
    next.clear();
    for (GateId g : frontier) {
      auto visit = [&](GateId n) {
        if (marks.visited[n] == epoch) return;
        marks.visited[n] = epoch;
        try_add(n);
        next.push_back(n);
      };
      for (GateId fi : netlist_->fanins(g)) visit(fi);
      for (const FanoutRef& br : netlist_->fanouts(g)) visit(br.gate);
      if (static_cast<int>(pool.size()) >= options_.local_pool_size) break;
    }
    frontier.swap(next);
  }
  // A few random signals for diversity (finds global equivalences the
  // neighborhood misses), from the site's own stream.
  for (int k = 0; k < options_.random_pool_size && !signal_gates_.empty(); ++k)
    try_add(signal_gates_[rng.below(signal_gates_.size())]);
  return pool;
}

double CandidateFinder::site_bound(GateId target,
                                   const FanoutRef* branch) const {
  CandidateSub cand = site_base(target, branch);
  cand.rep = ReplacementFunction::constant(false);  // PG_A ignores the value
  return compute_pg_a(*netlist_, *estimator_, cand);
}

std::vector<GateId> CandidateFinder::site_pool(GateId target,
                                               const FanoutRef* branch) const {
  // Forbidden region for sources: the faulty region of the site, marked by
  // a stamped walk over the entry's transitive fanout.
  thread_local SiteMarks marks;
  const std::uint32_t epoch = marks.begin(netlist_->num_slots());
  const GateId entry = branch == nullptr ? target : branch->gate;
  marks.forbidden[entry] = epoch;
  marks.stack.assign(1, entry);
  while (!marks.stack.empty()) {
    const GateId g = marks.stack.back();
    marks.stack.pop_back();
    for (const FanoutRef& br : netlist_->fanouts(g)) {
      if (marks.forbidden[br.gate] == epoch) continue;
      marks.forbidden[br.gate] = epoch;
      marks.stack.push_back(br.gate);
    }
  }
  marks.forbidden[target] = epoch;  // substituting a by a is a no-op

  Rng rng(site_seed(seed_, target, branch));
  return build_pool(target, marks, rng);
}

void CandidateFinder::match_site(Site& site,
                                 std::vector<CandidateSub>* out) const {
  const GateId target = site.target;
  const FanoutRef* branch = site.branch ? &*site.branch : nullptr;
  const int W = sim_->num_words();
  const auto sig_a = sim_->value(target);
  const std::vector<std::uint64_t> obs =
      branch == nullptr ? sim_->stem_observability(target)
                        : sim_->branch_observability(target, *branch);

  auto finish = [&](CandidateSub cand) {
    cand.pg_a = compute_pg_a(*netlist_, *estimator_, cand);
    cand.pg_b = compute_pg_b(*netlist_, *estimator_, cand);
    out->push_back(std::move(cand));
  };
  auto make_base = [&]() { return site_base(target, branch); };

  // Constant replacement: permissible-by-evidence when the signal never
  // observably carries the other value (fully unobservable signals satisfy
  // both; pick the majority value so the dead cone keeps its polarity).
  if (options_.allow_constants) {
    bool can0 = true, can1 = true;
    for (std::size_t w = 0; w < obs.size(); ++w) {
      if (sig_a[w] & obs[w]) can0 = false;
      if (~sig_a[w] & obs[w]) can1 = false;
      if (!can0 && !can1) break;
    }
    if (can0 || can1) {
      CandidateSub cand = make_base();
      const bool value =
          can0 && can1 ? estimator_->probability(target) >= 0.5 : can1;
      cand.rep = ReplacementFunction::constant(value);
      // Same cone, no sources: the site bound is this PG_A, bit for bit.
      cand.pg_a = site.bound;
      cand.pg_b = compute_pg_b(*netlist_, *estimator_, cand);
      out->push_back(std::move(cand));
    }
  }
  if (all_zero(obs)) return;  // nothing further here

  const std::vector<GateId> pool = site_pool(target, branch);

  // --- 2-signal substitutions -------------------------------------------
  for (GateId b : pool) {
    const auto sig_b = sim_->value(b);
    if (agrees(sig_a, sig_b, obs, /*invert_b=*/false)) {
      CandidateSub cand = make_base();
      cand.rep = ReplacementFunction::signal(b, false);
      finish(std::move(cand));
    } else if (agrees(sig_a, sig_b, obs, /*invert_b=*/true)) {
      CandidateSub cand = make_base();
      cand.rep = ReplacementFunction::signal(b, true);
      finish(std::move(cand));
    }
  }

  // --- 3-signal substitutions (new 2-input library gate) -----------------
  if (!options_.resub.enable_three_subs) return;
  thread_local std::vector<const std::uint64_t*> pool_sigs;
  thread_local std::vector<PairMatch> matches;
  pool_sigs.clear();
  for (GateId g : pool) pool_sigs.push_back(sim_->value(g).data());
  matches.clear();
  const std::vector<ReplacementCell>& cells2 = cells_by_arity_[2];
  site.pairs = filter_pairs(
      sig_a, obs, pool_sigs,
      std::min<int>(options_.resub.three_sub_b_pool,
                    static_cast<int>(pool.size())),
      options_.resub.max_three_per_target, cells2, &matches);
  for (const PairMatch& m : matches) {
    const ReplacementCell& cell = cells2[m.cell];
    CandidateSub cand = make_base();
    cand.cls = branch == nullptr ? SubstClass::kOS3 : SubstClass::kIS3;
    cand.rep = ReplacementFunction::two_input(pool[m.b], pool[m.c],
                                              *cell.function);
    cand.new_cell = cell.id;
    finish(std::move(cand));
  }

  // --- k-signal substitutions (new k-input library gate, k >= 3) ----------
  // Same signature-agreement filter as the pair classes, over ordered
  // divisor tuples from the (deterministic) pool. Every operand is drawn
  // from the ksub_b_pool prefix — unlike the 3-sub pass, letting the inner
  // operands range over the whole pool would cost pool^(k-1) tuples per
  // site, which is unaffordable at k >= 3 — with a per-site cap on top.
  // Word evaluation reuses the k-ary minterm expansion of
  // replacement_words.
  for (int k = 3; k <= options_.resub.max_divisors; ++k) {
    const std::vector<ReplacementCell>& kcells =
        cells_by_arity_[static_cast<std::size_t>(k)];
    if (kcells.empty()) continue;
    int kmade = 0;
    const int kb_limit = std::min<int>(options_.resub.ksub_b_pool,
                                       static_cast<int>(pool.size()));
    std::vector<GateId> divisors(static_cast<std::size_t>(k));
    std::vector<std::span<const std::uint64_t>> sigs(
        static_cast<std::size_t>(k));
    // Ordered combinations: divisor i+1 is drawn after divisor i in pool
    // order (cell pins are not symmetric in general, so every cell's own
    // function is evaluated against the tuple as-is; permutations of the
    // same tuple are reached via other tuples drawn later).
    std::vector<int> idx(static_cast<std::size_t>(k));
    auto eval_ok = [&](const TruthTable& f) {
      for (int w = 0; w < W; ++w) {
        std::uint64_t r = 0;
        const std::uint64_t minterms = 1ull << k;
        for (std::uint64_t m = 0; m < minterms; ++m) {
          if (!f.bit(m)) continue;
          std::uint64_t term = ~0ull;
          for (int v = 0; v < k; ++v) {
            const std::uint64_t dv =
                sigs[static_cast<std::size_t>(v)][static_cast<std::size_t>(w)];
            term &= ((m >> v) & 1) ? dv : ~dv;
          }
          r |= term;
        }
        if ((r ^ sig_a[static_cast<std::size_t>(w)]) &
            obs[static_cast<std::size_t>(w)])
          return false;
      }
      return true;
    };
    // Depth-first enumeration of index tuples over the kb_limit prefix with
    // all indices pairwise distinct, in lexicographic order — deterministic
    // for any thread count: the pool itself is thread-invariant.
    std::function<void(int)> enumerate = [&](int depth) {
      if (kmade >= options_.resub.max_k_per_target) return;
      if (depth == k) {
        for (const ReplacementCell& cell : kcells) {
          const TruthTable& f = *cell.function;
          if (!eval_ok(f)) continue;
          CandidateSub cand = make_base();
          cand.cls = branch == nullptr ? SubstClass::kOSK : SubstClass::kISK;
          cand.rep = ReplacementFunction::cell(divisors, f);
          cand.new_cell = cell.id;
          finish(std::move(cand));
          if (++kmade >= options_.resub.max_k_per_target) return;
        }
        return;
      }
      for (int i = 0; i < kb_limit; ++i) {
        bool used = false;
        for (int d = 0; d < depth; ++d)
          if (idx[static_cast<std::size_t>(d)] == i) used = true;
        if (used) continue;
        idx[static_cast<std::size_t>(depth)] = i;
        divisors[static_cast<std::size_t>(depth)] =
            pool[static_cast<std::size_t>(i)];
        sigs[static_cast<std::size_t>(depth)] =
            sim_->value(pool[static_cast<std::size_t>(i)]);
        enumerate(depth + 1);
        if (kmade >= options_.resub.max_k_per_target) return;
      }
    };
    if (static_cast<int>(pool.size()) >= k) enumerate(0);
  }
}

std::vector<CandidateFinder::Site> CandidateFinder::collect_sites() const {
  std::vector<Site> sites;
  for (GateId g : signal_gates_) {
    const std::span<const FanoutRef> fanouts = netlist_->fanouts(g);
    // Output substitutions: only cell stems (a PI cannot be replaced).
    if (netlist_->kind(g) == GateKind::kCell && !fanouts.empty())
      sites.push_back(Site{g, std::nullopt, 0.0, {}});
    // Input substitutions: individual branches of multi-fanout stems (the
    // paper regards single-fanout outputs as stem signals only).
    if (fanouts.size() > 1)
      for (const FanoutRef& br : fanouts)
        sites.push_back(Site{g, br, 0.0, {}});
  }
  return sites;
}

std::vector<CandidateSub> CandidateFinder::find(bool prune) {
  refresh_index();
  std::vector<Site> sites = collect_sites();
  for_sites(sites.size(), [&](std::size_t i) {
    Site& s = sites[i];
    s.bound = site_bound(s.target, s.branch ? &*s.branch : nullptr);
  });

  // Visit order: bound descending, ties in site order (bounds are finite,
  // so the (-bound, index) keys order totally). Each batch matches the
  // sites that can reach the threshold fixed before it, each into its own
  // slice; the k best gains so far then raise the next threshold.
  std::vector<std::pair<double, std::size_t>> order(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i)
    order[i] = {-sites[i].bound, i};
  std::sort(order.begin(), order.end());
  const auto k = static_cast<std::size_t>(std::max(0, options_.max_candidates));
  std::priority_queue<double, std::vector<double>, std::greater<>> best;
  std::vector<std::vector<CandidateSub>> slices(sites.size());
  std::size_t next = 0;
  while (next < order.size()) {
    const double threshold = prune && k > 0 && best.size() == k
                                 ? best.top()
                                 : -std::numeric_limits<double>::infinity();
    const std::size_t end = std::min(next + batch_sites_, order.size());
    std::size_t stop = next;
    while (stop < end && reaches(sites[order[stop].second].bound, threshold))
      ++stop;
    for_sites(stop - next, [&](std::size_t i) {
      const std::size_t s = order[next + i].second;
      match_site(sites[s], &slices[s]);
    });
    for (std::size_t i = next; i < stop && k > 0; ++i)
      for (const CandidateSub& cand : slices[order[i].second]) {
        best.push(cand.preselect_gain());
        if (best.size() > k) best.pop();
      }
    next = stop;
    if (stop < end) break;  // bounds only fall from here
  }
  last_sites_ = sites.size();
  last_sites_matched_ = next;
  last_pairs_ = {};
  for (const Site& site : sites) {
    last_pairs_.pairs += site.pairs.pairs;
    last_pairs_.passed += site.pairs.passed;
  }

  // The total order: gain descending, then site order, then order within
  // the site — the (-gain, position) keys of the candidates in slice order.
  // Only the k kept candidates are ranked and moved.
  std::vector<CandidateSub*> all;
  for (std::vector<CandidateSub>& slice : slices)
    for (CandidateSub& cand : slice) all.push_back(&cand);
  std::vector<std::pair<double, std::size_t>> keys(all.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    keys[i] = {-all[i]->preselect_gain(), i};
  const std::size_t kept = std::min(k, keys.size());
  std::partial_sort(keys.begin(),
                    keys.begin() + static_cast<std::ptrdiff_t>(kept),
                    keys.end());
  std::vector<CandidateSub> out;
  out.reserve(kept);
  for (std::size_t i = 0; i < kept; ++i)
    out.push_back(std::move(*all[keys[i].second]));
  last_truncated_ = all.size() - kept;
  return out;
}

}  // namespace powder
