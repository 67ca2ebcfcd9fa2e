#include "sim/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>

#include "logic/cube.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace powder {

namespace {
/// Smallest word range worth handing to a pool lane; below this the wake-up
/// cost of a parallel region outweighs the evaluation work.
constexpr std::size_t kMinWordsPerShard = 4;

/// Refreshed-gate accumulator bound: past this the single consumer is
/// clearly not draining (or the circuit churned wholesale) and the
/// accumulator degrades to the `full` flag instead of growing unbounded.
constexpr std::size_t kRefreshedAccumCap = 1 << 16;

/// Stack-buffer bound for per-gate evaluation (WordCube packs one bit per
/// fanin into a 64-bit word, so arity can never exceed 64).
constexpr std::size_t kMaxEvalArity = 64;
}  // namespace

// ---------------------------------------------------------------------------
// CellEvaluator
// ---------------------------------------------------------------------------

CellEvaluator::CellEvaluator(const CellLibrary& library) {
  sops_.resize(static_cast<std::size_t>(library.num_cells()));
  for (CellId id = 0; id < library.num_cells(); ++id) {
    const Cell& c = library.cell(id);
    CellSop& sop = sops_[static_cast<std::size_t>(id)];
    if (c.function.is_constant(true)) {
      sop.const_one = true;
      continue;
    }
    if (c.function.is_constant(false)) continue;  // empty cube list = 0
    const Cover cover = Cover::from_truth_table(c.function);
    for (const Cube& cube : cover.cubes()) {
      WordCube wc;
      for (int v = 0; v < cube.num_vars(); ++v) {
        if (cube.lit(v) == Lit::kDash) continue;
        wc.care |= 1ull << v;
        if (cube.lit(v) == Lit::kOne) wc.value |= 1ull << v;
      }
      sop.cubes.push_back(wc);
    }
  }
}

std::uint64_t CellEvaluator::evaluate(
    CellId cell, std::span<const std::uint64_t> fanin_words) const {
  const CellSop& sop = sops_[static_cast<std::size_t>(cell)];
  if (sop.const_one) return ~0ull;
  std::uint64_t out = 0;
  for (const WordCube& cube : sop.cubes) {
    std::uint64_t term = ~0ull;
    std::uint64_t care = cube.care;
    while (care) {
      const int v = std::countr_zero(care);
      care &= care - 1;
      const std::uint64_t w = fanin_words[static_cast<std::size_t>(v)];
      term &= (cube.value >> v) & 1 ? w : ~w;
      if (!term) break;
    }
    out |= term;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

Simulator::Simulator(const Netlist& netlist, int num_patterns,
                     std::vector<double> pi_probs, std::uint64_t seed)
    : netlist_(&netlist),
      evaluator_(netlist.library()),
      num_words_((num_patterns + 63) / 64),
      pi_probs_(std::move(pi_probs)),
      rng_(seed) {
  POWDER_CHECK(num_patterns > 0);
  if (pi_probs_.empty())
    pi_probs_.assign(static_cast<std::size_t>(netlist.num_inputs()), 0.5);
  POWDER_CHECK(static_cast<int>(pi_probs_.size()) == netlist.num_inputs());
  generate_stimulus();
  resimulate_all();
  netlist_->attach_observer(this);
}

Simulator::~Simulator() { netlist_->detach_observer(this); }

void Simulator::mark_dirty_root(GateId g) {
  if (dirty_flag_.size() < netlist_->num_slots())
    dirty_flag_.resize(netlist_->num_slots(), 0);
  if (dirty_flag_[g]) return;
  dirty_flag_[g] = 1;
  dirty_roots_.push_back(g);
}

void Simulator::on_delta(const NetlistDelta& delta) {
  switch (delta.kind) {
    case DeltaKind::kGateAdded:
    case DeltaKind::kGateRevived:
    case DeltaKind::kCellChanged:
      // A cell swap is functionally identity (set_cell checks the truth
      // table), but re-evaluating it keeps the downstream equivalence
      // guards honest against library bugs.
      mark_dirty_root(delta.gate);
      break;
    case DeltaKind::kFaninChanged:
      mark_dirty_root(delta.gate);
      break;
    case DeltaKind::kGateRemoved:
      // Dead gates drop out of the netlist's cached topological order;
      // their stale values are never read (refresh skips dead roots).
      break;
    case DeltaKind::kRebuilt:
      full_resim_ = true;
      break;
  }
}

void Simulator::set_trace(TraceSession* trace, MetricsRegistry* metrics) {
  trace_ = trace;
  if (metrics != nullptr) {
    m_resims_ = metrics->counter("powder_sim_resims_total",
                                 "Resimulation passes (full or incremental)");
    m_resim_gates_ = metrics->counter(
        "powder_sim_resim_gates_total",
        "Gates re-evaluated across all resimulation passes");
    h_resim_ns_ = metrics->histogram("powder_sim_resim_duration_ns",
                                     "Wall time per resimulation pass");
  } else {
    m_resims_ = nullptr;
    m_resim_gates_ = nullptr;
    h_resim_ns_ = nullptr;
  }
}

Simulator::RefreshResult Simulator::refresh() {
  RefreshResult res;
  if (full_resim_) {
    resimulate_all();  // clears the dirty state and flags the accumulator
    res.full = true;
    return res;
  }
  if (dirty_roots_.empty()) return res;
  const bool traced = trace_ != nullptr || m_resims_ != nullptr;
  const std::uint64_t t0 = traced ? trace_now_ns() : 0;
  std::vector<GateId> roots;
  roots.swap(dirty_roots_);
  for (GateId g : roots) dirty_flag_[g] = 0;
  std::erase_if(roots, [&](GateId g) { return !netlist_->alive(g); });
  res.gates = resimulate_from(roots, &res.changed);
  record_refreshed(res.gates);
  if (traced) {
    const std::uint64_t dur = trace_now_ns() - t0;
    if (m_resims_ != nullptr) {
      m_resims_->inc();
      m_resim_gates_->inc(static_cast<long long>(res.gates.size()));
      h_resim_ns_->observe(dur);
    }
    if (trace_ != nullptr)
      trace_->record_span("sim_resim_incremental", "sim", t0, dur, "gates",
                          static_cast<long long>(res.gates.size()));
  }
  return res;
}

void Simulator::record_refreshed(const std::vector<GateId>& gates) {
  if (refreshed_full_) return;
  if (refreshed_accum_.size() + gates.size() > kRefreshedAccumCap) {
    refreshed_full_ = true;
    refreshed_accum_.clear();
    return;
  }
  refreshed_accum_.insert(refreshed_accum_.end(), gates.begin(), gates.end());
}

Simulator::Refreshed Simulator::drain_refreshed() const {
  Refreshed out;
  out.full = refreshed_full_;
  out.gates.swap(refreshed_accum_);
  refreshed_full_ = false;
  return out;
}

void Simulator::generate_stimulus() {
  pi_stimulus_.assign(
      static_cast<std::size_t>(netlist_->num_inputs()) * num_words_, 0);
  for (int i = 0; i < netlist_->num_inputs(); ++i)
    for (int w = 0; w < num_words_; ++w)
      pi_stimulus_[static_cast<std::size_t>(i) * num_words_ + w] =
          rng_.biased_word(pi_probs_[static_cast<std::size_t>(i)]);
}

void Simulator::use_exhaustive_patterns() {
  const int n = netlist_->num_inputs();
  POWDER_CHECK_MSG(n <= 16, "exhaustive simulation limited to 16 inputs");
  const std::uint64_t total = 1ull << n;
  num_words_ = static_cast<int>((total + 63) / 64);
  pi_stimulus_.assign(static_cast<std::size_t>(n) * num_words_, 0);
  for (int i = 0; i < n; ++i) {
    for (std::uint64_t m = 0; m < static_cast<std::uint64_t>(num_words_) * 64;
         ++m) {
      // Pattern index m assigns input i the bit (m >> i) & 1; indices past
      // 2^n wrap around, which keeps the value distribution exact.
      if (((m & (total - 1)) >> i) & 1)
        pi_stimulus_[static_cast<std::size_t>(i) * num_words_ + (m >> 6)] |=
            1ull << (m & 63);
    }
  }
  // Pattern width changed: existing scratch buffers are the wrong shape.
  {
    std::lock_guard<std::mutex> lock(scratch_mutex_);
    scratch_pool_.clear();
  }
  resimulate_all();
}

void Simulator::ensure_capacity() {
  const std::size_t need =
      netlist_->num_slots() * static_cast<std::size_t>(num_words_);
  if (values_.size() < need) values_.resize(need, 0);
}

Simulator::ScratchLease Simulator::acquire_scratch() const {
  // Flip-and-diff passes read `values_` as the good reference, so the
  // simulator must be clean: every observed delta refreshed, every slot
  // covered.
  POWDER_CHECK_MSG(!pending(),
                   "flip-and-diff query on a stale simulator — call "
                   "refresh() after netlist mutations");
  POWDER_CHECK(values_.size() >=
               netlist_->num_slots() * static_cast<std::size_t>(num_words_));
  std::unique_ptr<Scratch> s;
  {
    std::lock_guard<std::mutex> lock(scratch_mutex_);
    if (!scratch_pool_.empty()) {
      s = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
    }
  }
  if (!s) s = std::make_unique<Scratch>();
  const std::size_t slots = netlist_->num_slots();
  if (s->words.size() < slots * static_cast<std::size_t>(num_words_))
    s->words.resize(slots * static_cast<std::size_t>(num_words_), 0);
  // Every flag is clear here: the previous lease cleared what it set.
  if (s->dirty.size() < slots) s->dirty.resize(slots, 0);
  return ScratchLease(this, std::move(s));
}

void Simulator::release_scratch(std::unique_ptr<Scratch> scratch) const {
  if (!scratch) return;
  for (const GateId g : scratch->dirty_set) scratch->dirty[g] = 0;
  scratch->dirty_set.clear();
  std::lock_guard<std::mutex> lock(scratch_mutex_);
  scratch_pool_.push_back(std::move(scratch));
}

int Simulator::word_shards() const {
  if (pool_ == nullptr || ThreadPool::in_parallel_region()) return 1;
  const std::size_t by_words =
      static_cast<std::size_t>(num_words_) / kMinWordsPerShard;
  const std::size_t shards = std::min<std::size_t>(
      by_words, static_cast<std::size_t>(pool_->parallelism()));
  return shards < 1 ? 1 : static_cast<int>(shards);
}

void Simulator::resimulate_all() {
  const bool traced = trace_ != nullptr || m_resims_ != nullptr;
  const std::uint64_t t0 = traced ? trace_now_ns() : 0;
  ensure_capacity();
  full_resim_ = false;
  for (GateId g : dirty_roots_) dirty_flag_[g] = 0;
  dirty_roots_.clear();
  refreshed_full_ = true;
  refreshed_accum_.clear();
  // PIs first.
  for (int i = 0; i < netlist_->num_inputs(); ++i) {
    const GateId g = netlist_->inputs()[static_cast<std::size_t>(i)];
    std::copy_n(pi_stimulus_.data() + static_cast<std::size_t>(i) * num_words_,
                num_words_,
                values_.data() + static_cast<std::size_t>(g) * num_words_);
  }
  const std::vector<GateId>& topo = netlist_->topo_order();
  // Word columns are independent, so each lane walks the whole topological
  // order over its own [lo, hi) word range; within a lane the fanin words it
  // reads were produced earlier in the same lane.
  auto eval_range = [&](std::size_t lo, std::size_t hi) {
    for (GateId g : topo) {
      if (netlist_->kind(g) == GateKind::kInput) continue;
      std::uint64_t* dest =
          values_.data() + static_cast<std::size_t>(g) * num_words_;
      eval_gate_mixed(g, dest, nullptr, nullptr, static_cast<int>(lo),
                      static_cast<int>(hi));
    }
  };
  if (word_shards() > 1) {
    pool_->parallel_for(static_cast<std::size_t>(num_words_),
                        kMinWordsPerShard, eval_range);
  } else {
    eval_range(0, static_cast<std::size_t>(num_words_));
  }
  if (traced) {
    const std::uint64_t dur = trace_now_ns() - t0;
    if (m_resims_ != nullptr) {
      m_resims_->inc();
      m_resim_gates_->inc(static_cast<long long>(topo.size()));
      h_resim_ns_->observe(dur);
    }
    if (trace_ != nullptr)
      trace_->record_span("sim_resim_full", "sim", t0, dur, "gates",
                          static_cast<long long>(topo.size()));
  }
}

template <bool kDetect>
bool Simulator::eval_gate_mixed(GateId g, std::uint64_t* dest,
                                const std::uint8_t* dirty,
                                const std::uint64_t* scratch_words, int w0,
                                int w1) const {
  auto src = [&](GateId fi) -> const std::uint64_t* {
    const bool use_scratch = dirty != nullptr && dirty[fi];
    const std::uint64_t* from = use_scratch ? scratch_words : values_.data();
    return from + static_cast<std::size_t>(fi) * num_words_;
  };
  const std::span<const GateId> fanins = netlist_->fanins(g);
  std::uint64_t moved = 0;
  if (netlist_->kind(g) == GateKind::kOutput) {
    const std::uint64_t* from = src(fanins[0]);
    if constexpr (kDetect)
      for (int w = w0; w < w1; ++w) moved |= dest[w] ^ from[w];
    std::copy(from + w0, from + w1, dest + w0);
    return moved != 0;
  }
  POWDER_DCHECK(netlist_->kind(g) == GateKind::kCell);
  // Fixed stack buffers: this runs once per (gate, word-range) visit and
  // must not allocate. Library cells never approach the WordCube's 64-var
  // ceiling.
  POWDER_DCHECK(fanins.size() <= kMaxEvalArity);
  const std::uint64_t* fi_ptr[kMaxEvalArity];
  std::uint64_t fanin_words[kMaxEvalArity];
  const std::size_t n = fanins.size();
  for (std::size_t k = 0; k < n; ++k) fi_ptr[k] = src(fanins[k]);
  const CellId cell = netlist_->cell_id(g);
  for (int w = w0; w < w1; ++w) {
    for (std::size_t k = 0; k < n; ++k) fanin_words[k] = fi_ptr[k][w];
    const std::uint64_t word = evaluator_.evaluate(cell, {fanin_words, n});
    if constexpr (kDetect) moved |= dest[w] ^ word;
    dest[w] = word;
  }
  return moved != 0;
}

void Simulator::cone_in_topo_order(ConeMarks& marks,
                                   std::span<const GateId> seeds,
                                   bool with_seeds,
                                   std::vector<GateId>* order) const {
  const std::size_t slots = netlist_->num_slots();
  if (marks.stamp.size() < slots) marks.stamp.resize(slots, 0);
  if (marks.epoch == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(marks.stamp.begin(), marks.stamp.end(), 0);
    marks.epoch = 0;
  }
  const std::uint32_t in_cone = ++marks.epoch;
  const std::span<const std::uint32_t> pos = netlist_->topo_positions();
  std::vector<std::uint64_t>& keys = marks.keys;
  std::vector<GateId>& stack = marks.stack;
  keys.clear();
  stack.clear();
  auto visit = [&](GateId g) {
    if (marks.stamp[g] == in_cone) return;
    marks.stamp[g] = in_cone;
    keys.push_back(std::uint64_t{pos[g]} << 32 | g);
    stack.push_back(g);
  };
  for (const GateId g : seeds) {
    if (with_seeds) {
      visit(g);
    } else {
      for (const FanoutRef& br : netlist_->fanouts(g)) visit(br.gate);
    }
  }
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (const FanoutRef& br : netlist_->fanouts(g)) visit(br.gate);
  }
  // Positions are distinct, so the sort is total and the gate bits ride
  // along.
  std::sort(keys.begin(), keys.end());
  order->clear();
  for (const std::uint64_t k : keys) order->push_back(static_cast<GateId>(k));
}

std::vector<GateId> Simulator::resimulate_from(std::span<const GateId> roots,
                                               std::vector<GateId>* changed) {
  ensure_capacity();
  std::vector<GateId> order;
  cone_in_topo_order(resim_cone_, roots, true, &order);
  std::erase_if(order, [&](GateId g) {
    return netlist_->kind(g) == GateKind::kInput;
  });
  // moved[i]: some word range of order[i] changed. Ranges of one gate run
  // on different lanes, so a lane that finds a change marks it atomically.
  std::vector<std::uint8_t> moved(order.size(), 0);
  auto eval_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      const GateId g = order[i];
      if (eval_gate_mixed<true>(
              g, values_.data() + static_cast<std::size_t>(g) * num_words_,
              nullptr, nullptr, static_cast<int>(lo), static_cast<int>(hi)))
        std::atomic_ref<std::uint8_t>(moved[i]).store(
            1, std::memory_order_relaxed);
    }
  };
  if (order.size() >= 4 && word_shards() > 1) {
    pool_->parallel_for(static_cast<std::size_t>(num_words_),
                        kMinWordsPerShard, eval_range);
  } else {
    eval_range(0, static_cast<std::size_t>(num_words_));
  }
  for (std::size_t i = 0; i < order.size(); ++i)
    if (moved[i] != 0) changed->push_back(order[i]);
  return order;
}

double Simulator::signal_prob(GateId g) const {
  std::uint64_t ones = 0;
  const std::uint64_t* v =
      values_.data() + static_cast<std::size_t>(g) * num_words_;
  for (int w = 0; w < num_words_; ++w)
    ones += static_cast<std::uint64_t>(std::popcount(v[w]));
  return static_cast<double>(ones) / (64.0 * num_words_);
}

std::vector<std::uint64_t> Simulator::propagate_diff(
    Scratch& scratch, const std::vector<GateId>& frontier,
    std::vector<GateId>* changed) const {
  // Mark the TFO of the frontier as potentially dirty and re-evaluate it in
  // topological order against the mixed view; gates whose faulty value
  // equals the good value are un-marked to prune propagation.
  std::vector<GateId>& order = scratch.order;
  cone_in_topo_order(scratch.cone, frontier, false, &order);

  std::vector<std::uint64_t> diff(static_cast<std::size_t>(num_words_), 0);
  const int shards = word_shards();
  if (shards <= 1 ||
      order.size() * static_cast<std::size_t>(num_words_) < 512) {
    for (GateId g : order) {
      std::uint64_t* faulty =
          scratch.words.data() + static_cast<std::size_t>(g) * num_words_;
      eval_gate_mixed(g, faulty, scratch.dirty.data(), scratch.words.data(), 0,
                      num_words_);
      const std::uint64_t* good =
          values_.data() + static_cast<std::size_t>(g) * num_words_;
      bool any = false;
      for (int w = 0; w < num_words_; ++w)
        if (faulty[w] != good[w]) {
          any = true;
          break;
        }
      if (!any) continue;  // fault effect died here
      scratch.set_dirty(g);
      if (changed != nullptr) changed->push_back(g);
      if (netlist_->kind(g) == GateKind::kOutput)
        for (int w = 0; w < num_words_; ++w)
          diff[static_cast<std::size_t>(w)] |= faulty[w] ^ good[w];
    }
    return diff;
  }

  // Sharded: each lane propagates its own word range with its own dirty
  // flags. Pruning may differ per lane — a gate can change only in some
  // word columns — but a lane that prunes a gate has computed scratch words
  // equal to the good values there, so downstream reads see identical bits
  // either way and every lane's slice of `scratch.words` matches the serial
  // computation exactly.
  std::vector<std::vector<std::uint8_t>>& lane_dirty = scratch.lane_dirty;
  if (lane_dirty.size() < static_cast<std::size_t>(shards))
    lane_dirty.resize(static_cast<std::size_t>(shards));
  const std::size_t slots = scratch.dirty.size();
  pool_->for_shards(shards, [&](int shard, int num_shards) {
    const std::size_t n = static_cast<std::size_t>(num_words_);
    const std::size_t lo = n * static_cast<std::size_t>(shard) /
                           static_cast<std::size_t>(num_shards);
    const std::size_t hi = n * (static_cast<std::size_t>(shard) + 1) /
                           static_cast<std::size_t>(num_shards);
    std::vector<std::uint8_t>& dirty = lane_dirty[static_cast<std::size_t>(shard)];
    if (dirty.size() < slots) dirty.resize(slots, 0);
    // Seed flags from the caller: the flags its lease set so far.
    for (const GateId g : scratch.dirty_set) dirty[g] = 1;
    for (GateId g : order) {
      std::uint64_t* faulty =
          scratch.words.data() + static_cast<std::size_t>(g) * num_words_;
      eval_gate_mixed(g, faulty, dirty.data(), scratch.words.data(),
                      static_cast<int>(lo), static_cast<int>(hi));
      const std::uint64_t* good =
          values_.data() + static_cast<std::size_t>(g) * num_words_;
      bool any = false;
      for (std::size_t w = lo; w < hi; ++w)
        if (faulty[w] != good[w]) {
          any = true;
          break;
        }
      if (any) dirty[g] = 1;
      if (any && netlist_->kind(g) == GateKind::kOutput)
        for (std::size_t w = lo; w < hi; ++w) diff[w] |= faulty[w] ^ good[w];
    }
  });
  // Merge: a gate changed iff any lane saw a change in its word range. The
  // seeds stay set in every lane, and no seed is in `order` (the netlist is
  // acyclic), so OR-ing lane flags over `order` recovers the serial result.
  const std::span<std::vector<std::uint8_t>> lanes(
      lane_dirty.data(), static_cast<std::size_t>(shards));
  for (GateId g : order) {
    bool any = false;
    for (const std::vector<std::uint8_t>& d : lanes)
      if (d[g]) {
        any = true;
        break;
      }
    if (!any) continue;
    scratch.set_dirty(g);
    if (changed != nullptr) changed->push_back(g);
  }
  // Leave the lane flags clear for the next pass: only seeds and cone
  // gates were set.
  for (std::vector<std::uint8_t>& d : lanes) {
    for (const GateId g : scratch.dirty_set) d[g] = 0;
    for (const GateId g : order) d[g] = 0;
  }
  return diff;
}

std::vector<std::pair<GateId, double>> Simulator::trial_new_probs(
    GateId site, const FanoutRef* branch,
    std::span<const std::uint64_t> replacement) const {
  POWDER_CHECK(replacement.size() == static_cast<std::size_t>(num_words_));
  ScratchLease lease = acquire_scratch();
  Scratch& s = *lease;
  std::vector<GateId> changed;
  if (branch == nullptr) {
    std::uint64_t* f =
        s.words.data() + static_cast<std::size_t>(site) * num_words_;
    std::copy(replacement.begin(), replacement.end(), f);
    s.set_dirty(site);
    (void)propagate_diff(s, {site}, &changed);
  } else {
    // Pre-evaluate the branch's sink against the replacement, then let the
    // generic propagation take over.
    const GateId sink = branch->gate;
    std::uint64_t* f =
        s.words.data() + static_cast<std::size_t>(sink) * num_words_;
    if (netlist_->kind(sink) == GateKind::kOutput) {
      std::copy(replacement.begin(), replacement.end(), f);
    } else {
      const std::span<const GateId> fanins = netlist_->fanins(sink);
      POWDER_DCHECK(fanins.size() <= kMaxEvalArity);
      const std::uint64_t* fi_ptr[kMaxEvalArity];
      std::uint64_t fanin_words[kMaxEvalArity];
      const std::size_t n = fanins.size();
      for (std::size_t k = 0; k < n; ++k)
        fi_ptr[k] =
            values_.data() + static_cast<std::size_t>(fanins[k]) * num_words_;
      const CellId cell = netlist_->cell_id(sink);
      for (int w = 0; w < num_words_; ++w) {
        for (std::size_t k = 0; k < n; ++k) fanin_words[k] = fi_ptr[k][w];
        fanin_words[static_cast<std::size_t>(branch->pin)] =
            replacement[static_cast<std::size_t>(w)];
        f[w] = evaluator_.evaluate(cell, {fanin_words, n});
      }
    }
    const std::uint64_t* good =
        values_.data() + static_cast<std::size_t>(sink) * num_words_;
    bool any = false;
    for (int w = 0; w < num_words_; ++w)
      if (f[w] != good[w]) {
        any = true;
        break;
      }
    if (any) {
      s.set_dirty(sink);
      changed.push_back(sink);
      (void)propagate_diff(s, {sink}, &changed);
    }
  }
  std::vector<std::pair<GateId, double>> out;
  out.reserve(changed.size());
  for (GateId g : changed) {
    const std::uint64_t* f =
        s.words.data() + static_cast<std::size_t>(g) * num_words_;
    std::uint64_t ones = 0;
    for (int w = 0; w < num_words_; ++w)
      ones += static_cast<std::uint64_t>(std::popcount(f[w]));
    out.emplace_back(g, static_cast<double>(ones) / (64.0 * num_words_));
  }
  return out;
}

std::vector<std::uint64_t> Simulator::stem_observability(GateId g) const {
  ScratchLease lease = acquire_scratch();
  Scratch& s = *lease;
  std::uint64_t* f = s.words.data() + static_cast<std::size_t>(g) * num_words_;
  const std::uint64_t* good =
      values_.data() + static_cast<std::size_t>(g) * num_words_;
  for (int w = 0; w < num_words_; ++w) f[w] = ~good[w];
  s.set_dirty(g);
  return propagate_diff(s, {g});
}

std::vector<std::uint64_t> Simulator::branch_observability(
    GateId g, FanoutRef branch) const {
  std::vector<std::uint64_t> flipped(static_cast<std::size_t>(num_words_));
  const std::uint64_t* good =
      values_.data() + static_cast<std::size_t>(g) * num_words_;
  for (int w = 0; w < num_words_; ++w)
    flipped[static_cast<std::size_t>(w)] = ~good[w];
  return output_diff_with_replacement(g, &branch, flipped);
}

std::vector<std::uint64_t> Simulator::output_diff_with_replacement(
    GateId site, const FanoutRef* branch,
    std::span<const std::uint64_t> replacement) const {
  POWDER_CHECK(replacement.size() == static_cast<std::size_t>(num_words_));
  ScratchLease lease = acquire_scratch();
  Scratch& s = *lease;
  if (branch == nullptr) {
    // Stem replacement: the whole signal takes the new value.
    std::uint64_t* f =
        s.words.data() + static_cast<std::size_t>(site) * num_words_;
    std::copy(replacement.begin(), replacement.end(), f);
    s.set_dirty(site);
    return propagate_diff(s, {site});
  }
  // Branch replacement: only the sink gate sees the new value on one pin.
  const GateId sink = branch->gate;
  std::uint64_t* f =
      s.words.data() + static_cast<std::size_t>(sink) * num_words_;
  if (netlist_->kind(sink) == GateKind::kOutput) {
    std::copy(replacement.begin(), replacement.end(), f);
  } else {
    const std::span<const GateId> fanins = netlist_->fanins(sink);
    POWDER_DCHECK(fanins.size() <= kMaxEvalArity);
    const std::uint64_t* fi_ptr[kMaxEvalArity];
    std::uint64_t fanin_words[kMaxEvalArity];
    const std::size_t n = fanins.size();
    for (std::size_t k = 0; k < n; ++k)
      fi_ptr[k] =
          values_.data() + static_cast<std::size_t>(fanins[k]) * num_words_;
    const CellId cell = netlist_->cell_id(sink);
    for (int w = 0; w < num_words_; ++w) {
      for (std::size_t k = 0; k < n; ++k) fanin_words[k] = fi_ptr[k][w];
      fanin_words[static_cast<std::size_t>(branch->pin)] =
          replacement[static_cast<std::size_t>(w)];
      f[w] = evaluator_.evaluate(cell, {fanin_words, n});
    }
  }
  // Seed dirtiness only if the sink value actually changed.
  const std::uint64_t* good =
      values_.data() + static_cast<std::size_t>(sink) * num_words_;
  std::vector<std::uint64_t> diff(static_cast<std::size_t>(num_words_), 0);
  bool any = false;
  for (int w = 0; w < num_words_; ++w)
    if (f[w] != good[w]) {
      any = true;
      break;
    }
  if (!any) return diff;
  s.set_dirty(sink);
  if (netlist_->kind(sink) == GateKind::kOutput)
    for (int w = 0; w < num_words_; ++w)
      diff[static_cast<std::size_t>(w)] |= f[w] ^ good[w];
  std::vector<std::uint64_t> deeper = propagate_diff(s, {sink});
  for (int w = 0; w < num_words_; ++w)
    diff[static_cast<std::size_t>(w)] |= deeper[static_cast<std::size_t>(w)];
  return diff;
}

// ---------------------------------------------------------------------------
// PoSignatureGuard
// ---------------------------------------------------------------------------

PoSignatureGuard::PoSignatureGuard(const Simulator& sim)
    : sim_(&sim), outputs_(sim.netlist().outputs()) {
  po_index_.assign(sim.netlist().num_slots(), kNotPo);
  for (std::size_t k = 0; k < outputs_.size(); ++k) {
    po_index_[outputs_[k]] = static_cast<std::uint32_t>(k);
    const auto words = sim.value(outputs_[k]);
    snapshot_.insert(snapshot_.end(), words.begin(), words.end());
  }
}

void PoSignatureGuard::note(const Simulator::RefreshResult& refreshed) {
  if (refreshed.full) all_moved_ = true;
  if (all_moved_) return;
  for (const GateId g : refreshed.changed)
    if (g < po_index_.size() && po_index_[g] != kNotPo)
      moved_.push_back(po_index_[g]);
  // Unchecked for longer than a full compare costs: compare them all.
  if (moved_.size() > outputs_.size()) {
    all_moved_ = true;
    moved_.clear();
  }
}

bool PoSignatureGuard::matches(std::size_t po) const {
  const auto words = sim_->value(outputs_[po]);
  return std::equal(words.begin(), words.end(),
                    snapshot_.begin() + static_cast<std::ptrdiff_t>(
                                            po * words.size()));
}

bool PoSignatureGuard::ok() {
  if (all_moved_) {
    if (!ok_full()) return false;
  } else {
    for (const std::uint32_t po : moved_)
      if (!matches(po)) return false;
  }
  moved_.clear();
  all_moved_ = false;
  return true;
}

bool PoSignatureGuard::ok_full() const {
  for (std::size_t po = 0; po < outputs_.size(); ++po)
    if (!matches(po)) return false;
  return true;
}

}  // namespace powder
