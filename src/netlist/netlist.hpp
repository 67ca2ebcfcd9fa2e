#pragma once
// Technology-mapped netlist: a DAG of library gates.
//
// Terminology follows the paper (§2): every gate output is a signal, named
// by the gate's label. A signal with several fanout pins is a *stem*; each
// individual (sink gate, pin) connection is a *branch*. Primary inputs are
// modeled as gates of kind kInput, primary outputs as single-input gates of
// kind kOutput carrying an external load.
//
// The structure is mutable: POWDER's substitutions rewire branches
// (`set_fanin`) or whole stems (`replace_all_fanouts`), insert new gates,
// and sweep dead logic. Gates are tombstoned on removal so GateIds stay
// stable (simulation/power caches are indexed by GateId).
//
// Storage is struct-of-arrays (DESIGN.md §7): per-gate scalars live in
// parallel flat vectors, fanin/fanout pin lists live in pooled PinArenas
// (power-of-two slabs, freelist-recycled across rewires and tombstones),
// and gate names are interned into a NameTable so no hot path touches a
// std::string. Accessors hand out std::spans into the arenas; those spans
// are invalidated by any mutation, the same way the delta bus already
// forbids mutating while iterating.
//
// Incremental core (DESIGN.md §6): every mutation publishes a typed
// NetlistDelta — appended to a bounded delta log, bumping the monotone
// epoch, and pushed to every registered NetlistObserver. Analyses subscribe
// once and stay coherent by construction instead of being resynchronized by
// hand after each edit. Deltas are published from the mutating thread only
// (the optimizer's single-writer commit path); observers must not assume
// any locking beyond that. The topological order is cached inside the
// netlist and invalidated through the same publish point, so repeated
// topo_order() calls between mutations are free.

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "library/cell_library.hpp"
#include "netlist/name_table.hpp"
#include "netlist/pin_arena.hpp"
#include "util/small_vec.hpp"

namespace powder {

using GateId = std::uint32_t;
inline constexpr GateId kNullGate = static_cast<GateId>(-1);

enum class GateKind : std::uint8_t {
  kInput,   ///< primary input; no fanins
  kOutput,  ///< primary output; exactly one fanin; presents `po_load`
  kCell,    ///< instance of a library cell
};

/// One (sink gate, input pin) connection — a *branch* of the driver's signal.
struct FanoutRef {
  GateId gate = kNullGate;
  int pin = 0;
  bool operator==(const FanoutRef&) const = default;
};

/// One sequential element, represented combinationally: the latch's data
/// input D is sampled by a pseudo primary output (the kOutput gate `input`)
/// and its state output Q driven by a pseudo primary input (the kInput gate
/// `output`). Cutting the circuit at latch boundaries this way keeps every
/// combinational analysis — simulation, STA, ATPG/SAT permissibility proofs,
/// the PO signature guard — sound without change: Q is a free input, D a
/// protected output. `init` is the BLIF reset state (0, 1, 2 = don't care,
/// 3 = unknown) and seeds the sequential probability fixed point.
struct Latch {
  GateId input = kNullGate;   ///< kOutput gate sampling the D signal
  GateId output = kNullGate;  ///< kInput gate driving the Q signal
  int init = 2;               ///< reset state: 0, 1, 2 = don't care, 3 = unknown
};

/// Delta taxonomy: the six mutation shapes the netlist can publish. Every
/// public mutator maps onto a sequence of these (see DESIGN.md §6 for the
/// exact mapping and the replay semantics of each kind).
enum class DeltaKind : std::uint8_t {
  kGateAdded,    ///< new slot created (input, output, or cell)
  kFaninChanged, ///< one input pin of `gate` rewired old_driver -> new_driver
  kCellChanged,  ///< cell swapped for a functionally identical one
  kGateRemoved,  ///< fanout-free gate tombstoned (`fanins` = pre-removal list)
  kGateRevived,  ///< tombstoned gate re-activated with `fanins`
  kRebuilt,      ///< wholesale replacement; all per-gate state is invalid
};

/// One published mutation, rich enough to replay forward onto a replica
/// netlist (replay_delta) and to drive incremental cache maintenance.
/// Fields beyond `kind`/`epoch`/`gate` are meaningful per kind only.
/// Publishing a delta is allocation-free in steady state: the fanin
/// snapshot uses inline small-buffer storage (spills only past 8 pins) and
/// the name travels as a NameId into the netlist's NameTable, not a string
/// copy (layout_test.cpp asserts this).
struct NetlistDelta {
  DeltaKind kind = DeltaKind::kRebuilt;
  std::uint64_t epoch = 0;  ///< netlist epoch *after* this delta
  GateId gate = kNullGate;  ///< subject gate (the sink for kFaninChanged)
  GateKind gate_kind = GateKind::kCell;  ///< kGateAdded
  CellId old_cell = kInvalidCell;        ///< kCellChanged
  CellId new_cell = kInvalidCell;        ///< kGateAdded (cells), kCellChanged
  int pin = -1;                          ///< kFaninChanged
  GateId old_driver = kNullGate;         ///< kFaninChanged
  GateId new_driver = kNullGate;         ///< kFaninChanged
  SmallVec<GateId, 8> fanins;  ///< kGateAdded / kGateRemoved / kGateRevived
  NameId name = kNullName;     ///< kGateAdded; resolve via Netlist::names()
  double po_load = 1.0;        ///< kGateAdded outputs
};

/// Subscriber interface. on_delta runs synchronously inside the mutator, on
/// the mutating thread, after the structural change is complete — observers
/// may read the netlist but must never mutate it re-entrantly.
class NetlistObserver {
 public:
  virtual ~NetlistObserver() = default;
  virtual void on_delta(const NetlistDelta& delta) = 0;
};

class Netlist {
 public:
  explicit Netlist(const CellLibrary* library, std::string name = "top");

  /// Owning constructor: the netlist shares ownership of its library, so
  /// the library can never dangle no matter how the netlist (or copies of
  /// it) travel. Prefer this (with CellLibrary::standard_shared()) in any
  /// helper that returns a Netlist by value.
  explicit Netlist(std::shared_ptr<const CellLibrary> library,
                   std::string name = "top");

  // Copying transfers structure only: the copy starts with no observers and
  // an empty delta log (observers are identities bound to one instance).
  // Copy-assignment keeps the destination's observers and notifies them
  // with a single kRebuilt delta. Moving a netlist that still has observers
  // attached is a checked error — the observers hold a pointer to the
  // moved-from object.
  Netlist(const Netlist& other);
  Netlist& operator=(const Netlist& other);
  Netlist(Netlist&& other);
  Netlist& operator=(Netlist&& other);
  ~Netlist() = default;

  const CellLibrary& library() const { return *library_; }

  /// Retrofits shared ownership of the library onto a netlist built with
  /// the borrowing constructor (e.g. the result of map_aig). `library`
  /// must be the same object the netlist already points at — adopting a
  /// different library would silently re-interpret every CellId. The
  /// ownership travels with copies and moves of the netlist.
  void adopt_library(std::shared_ptr<const CellLibrary> library);

  /// The shared owner handle; null when the netlist merely borrows.
  const std::shared_ptr<const CellLibrary>& library_owner() const {
    return library_owner_;
  }

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // ---- construction / mutation -------------------------------------------
  // An empty name draws a fresh one ("pi_N", "po_N", "g_N"). Names are
  // interned, so the views need only outlive the call.
  GateId add_input(std::string_view name);
  GateId add_output(std::string_view name, GateId driver, double load = 1.0);
  GateId add_gate(CellId cell, std::span<const GateId> fanins,
                  std::string_view name = {});
  GateId add_gate(CellId cell, std::initializer_list<GateId> fanins,
                  std::string_view name = {}) {
    return add_gate(cell, std::span(fanins.begin(), fanins.size()), name);
  }

  /// Pre-sizes the gate table and both pin arenas (BLIF/AIG readers know
  /// the circuit size up front; bulk construction then never reallocates).
  void reserve(std::size_t gates, std::size_t pins);

  /// Rewires input pin `pin` of `gate` to `new_driver` (the IS2 primitive).
  void set_fanin(GateId gate, int pin, GateId new_driver);

  /// Swaps a gate's cell for a functionally identical one (gate
  /// re-sizing). The new cell must have the same arity and truth table.
  void set_cell(GateId gate, CellId new_cell);

  /// Moves every fanout branch of `old_driver` to `new_driver` (the OS2
  /// primitive). `new_driver` must not be in the transitive fanout of
  /// `old_driver` (checked).
  void replace_all_fanouts(GateId old_driver, GateId new_driver);

  /// Tombstones every gate from which no primary output is reachable.
  /// Returns the removed gates. Inputs and outputs are never removed.
  std::vector<GateId> sweep_dead();

  /// Removes a specific dead gate (no fanouts). Recursively sweeps fanins
  /// that become dead. Returns all removed gates. When `removed_fanins` is
  /// non-null it receives, parallel to the returned vector, the fanin list
  /// each gate had before removal — everything `revive_gate` needs to undo
  /// the sweep.
  std::vector<GateId> remove_gate_recursive(
      GateId gate, std::vector<std::vector<GateId>>* removed_fanins = nullptr);

  /// Tombstones a single fanout-free cell gate without the recursive sweep
  /// (used to undo an insertion). The slot keeps its cell and name so the
  /// gate could be revived again; its pin slabs return to the arena
  /// freelists.
  void remove_single_gate(GateId gate);

  /// Re-activates a tombstoned cell gate with the given fanins — the exact
  /// inverse of a removal; fanout back-edges are re-created on the fanins,
  /// which must all be alive.
  void revive_gate(GateId gate, const std::vector<GateId>& fanins);

  /// Binds an existing pseudo-PO (`input`, the D sample point) and
  /// pseudo-PI (`output`, the Q signal) into a latch record. Publishes no
  /// delta: the combinational structure is unchanged, only the sequential
  /// interpretation is recorded (call during construction, like the BLIF
  /// reader does, before analyses subscribe).
  void add_latch(GateId input, GateId output, int init = 2);

  // ---- access --------------------------------------------------------------
  std::size_t num_slots() const { return kind_.size(); }
  GateKind kind(GateId id) const { return kind_[id]; }
  bool alive(GateId id) const { return alive_[id] != 0; }
  CellId cell_id(GateId id) const { return cell_[id]; }
  double po_load(GateId id) const { return po_load_[id]; }

  /// The gate's input pins, one driver per pin. The span points into the
  /// pin arena: valid until the next mutation.
  std::span<const GateId> fanins(GateId id) const {
    return fanin_pins_.view(fanin_ref_[id]);
  }
  /// The branches of the gate's output signal. Same lifetime rule.
  std::span<const FanoutRef> fanouts(GateId id) const {
    return fanout_pins_.view(fanout_ref_[id]);
  }
  GateId fanin(GateId id, int pin) const {
    return fanin_pins_.at(fanin_ref_[id], static_cast<std::size_t>(pin));
  }
  // Pin counts are stored as uint32 slab sizes bounded by cell arity and
  // fanout degree, so the int conversion is always exact (the old Gate
  // accessors narrowed from size_t).
  int num_fanins(GateId id) const {
    return static_cast<int>(fanin_ref_[id].size);
  }
  int num_fanouts(GateId id) const {
    return static_cast<int>(fanout_ref_[id].size);
  }

  /// Visits each fanin driver in pin order without materializing a span.
  template <typename Fn>
  void for_each_fanin(GateId id, Fn&& fn) const {
    for (const GateId fi : fanins(id)) fn(fi);
  }

  /// Interned name id and spelling. The view is null-terminated and stable
  /// for the netlist's lifetime (names are never un-interned).
  NameId name_id(GateId id) const { return gate_name_[id]; }
  std::string_view gate_name(GateId id) const {
    return names_.view(gate_name_[id]);
  }
  const NameTable& names() const { return names_; }

  const std::vector<GateId>& inputs() const { return inputs_; }
  const std::vector<GateId>& outputs() const { return outputs_; }
  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  int num_outputs() const { return static_cast<int>(outputs_.size()); }

  /// Sequential elements. `inputs()`/`outputs()` include the latch pseudo
  /// gates; these records tell them apart from the real PIs/POs.
  const std::vector<Latch>& latches() const { return latches_; }
  int num_latches() const { return static_cast<int>(latches_.size()); }
  /// True when `id` is the Q pseudo-PI of some latch (linear scan; latch
  /// counts are tiny next to gate counts).
  bool is_latch_output(GateId id) const;
  /// True when `id` is the D pseudo-PO of some latch.
  bool is_latch_input(GateId id) const;

  /// Number of live kCell gates.
  int num_cells() const;

  /// The cell of a kCell gate.
  const Cell& cell_of(GateId id) const;

  /// Capacitive load presented by input pin `pin` of `gate`.
  double pin_cap(GateId gate, int pin) const;

  /// Total capacitive load on the signal driven by `gate`
  /// (sum of the pin caps of all its fanout branches).
  double signal_cap(GateId gate) const;

  /// Sum of cell areas of live gates: the slot-order sum of a per-slot
  /// area array the mutators keep (+0.0 for every slot that is not a live
  /// cell, which leaves the sum bitwise unchanged), re-summed only after
  /// an area changed.
  double total_area() const;

  /// Live gates in topological order (inputs first, outputs last). Cached;
  /// recomputed lazily after a structural delta (kCellChanged keeps the
  /// cache — resizing never changes the DAG). The reference is valid until
  /// the next structural mutation; callers that mutate while iterating must
  /// copy first. Safe to call from concurrent readers between mutations.
  const std::vector<GateId>& topo_order() const;

  /// Each live gate's index in topo_order(), by slot (refilled with the
  /// cached order; entries of dead slots are meaningless). Same lifetime
  /// rule as topo_order(). Sorting a gate set by these positions yields the
  /// subsequence of topo_order() it covers without scanning the order.
  std::span<const std::uint32_t> topo_positions() const;

  /// True if `descendant` is reachable from `ancestor` (strictly; a gate is
  /// not its own transitive fanout). While the cached topological order is
  /// current the walk visits only gates placed before `descendant` in it.
  bool in_tfo(GateId ancestor, GateId descendant) const;

  /// All live gates in the transitive fanout of `g` (excluding `g`).
  std::vector<GateId> tfo(GateId g) const;

  /// Maximal fanout-free cone of `g`: the gates (including `g`) that die if
  /// `g`'s signal is no longer used. PIs are never part of an MFFC. Gates
  /// in `keep_alive` are treated as externally used and are never absorbed
  /// (used when a substitution's replacement sources live inside the cone).
  std::vector<GateId> mffc(GateId g,
                           std::span<const GateId> keep_alive = {}) const;

  /// An MFFC held in the calling thread's scratch, with O(1) membership.
  /// Valid until the same thread's next mffc()/mffc_cone() call.
  class MffcCone {
   public:
    std::span<const GateId> gates() const { return gates_; }
    bool contains(GateId g) const { return stamp_[g] == in_cone_; }

   private:
    friend class Netlist;
    std::span<const GateId> gates_;
    const std::uint32_t* stamp_ = nullptr;
    std::uint32_t in_cone_ = 0;
  };
  /// mffc() without the copy: the same gates in the same order, plus
  /// membership of any gate id below num_slots(). Allocation-free once the
  /// thread's scratch covers the netlist.
  MffcCone mffc_cone(GateId g, std::span<const GateId> keep_alive = {}) const;

  /// Structural invariants: fanin/fanout cross-consistency, pin counts vs
  /// cell arity, acyclicity, liveness of referenced gates. Throws
  /// CheckError on violation.
  void check_consistency() const;

  /// Generation counter bumped on every published delta; lets caches detect
  /// staleness cheaply. `epoch()` is the delta-bus name for the same value.
  std::uint64_t generation() const { return generation_; }
  std::uint64_t epoch() const { return generation_; }

  // ---- delta bus -----------------------------------------------------------

  /// Registers `observer` for every future delta. Const because analyses
  /// hold `const Netlist&`; observation does not mutate the structure.
  void attach_observer(NetlistObserver* observer) const;
  void detach_observer(NetlistObserver* observer) const;

  /// The deltas published after `epoch`, oldest first — or nullopt when the
  /// bounded log has already evicted part of that range (caller must fall
  /// back to a full rebuild).
  std::optional<std::vector<NetlistDelta>> deltas_since(
      std::uint64_t epoch) const;

  /// Lifetime totals, for diagnostics: deltas published and observer
  /// notifications delivered (published * attached observers).
  std::uint64_t deltas_published() const { return deltas_published_; }
  std::uint64_t observer_notifications() const { return notifications_; }

  // ---- storage diagnostics -------------------------------------------------
  std::uint64_t pin_slabs_allocated() const {
    return fanin_pins_.slabs_allocated() + fanout_pins_.slabs_allocated();
  }
  std::uint64_t pin_slabs_recycled() const {
    return fanin_pins_.slabs_recycled() + fanout_pins_.slabs_recycled();
  }
  std::size_t name_pool_bytes() const { return names_.pool_bytes(); }

  /// Returns a fresh name not used by any gate yet.
  std::string fresh_name(const std::string& prefix);

  /// Returns a copy without the tombstoned slots (long optimization runs
  /// accumulate dead gates; caches indexed by GateId shrink accordingly).
  /// When `remap` is non-null it receives old-id -> new-id (kNullGate for
  /// dead gates).
  Netlist compacted(std::vector<GateId>* remap = nullptr) const;

 private:
  const CellLibrary* library_;
  /// Optional shared ownership of *library_ (see adopt_library). Keeping
  /// the raw pointer as the hot-path accessor leaves cell lookups free of
  /// shared_ptr overhead.
  std::shared_ptr<const CellLibrary> library_owner_;
  std::string name_;

  // Struct-of-arrays gate table: one entry per slot in each vector.
  std::vector<GateKind> kind_;
  std::vector<std::uint8_t> alive_;
  std::vector<CellId> cell_;
  std::vector<NameId> gate_name_;
  std::vector<double> po_load_;
  std::vector<PinArena<GateId>::Ref> fanin_ref_;
  std::vector<PinArena<FanoutRef>::Ref> fanout_ref_;
  PinArena<GateId> fanin_pins_;
  PinArena<FanoutRef> fanout_pins_;
  NameTable names_;

  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::vector<Latch> latches_;
  std::uint64_t generation_ = 0;
  std::uint64_t name_counter_ = 0;

  // Observation state is identity-bound, not value-bound: mutable so that
  // const analyses can subscribe, excluded from copies, and guarded against
  // moves while non-empty (see the copy/move contracts above).
  mutable std::vector<NetlistObserver*> observers_;
  // Bounded delta log as a ring buffer: grows to capacity once, then
  // overwrites in place — steady-state publishing never allocates.
  std::vector<NetlistDelta> delta_log_;
  std::size_t log_head_ = 0;  ///< oldest entry once the ring wrapped
  std::uint64_t deltas_published_ = 0;
  std::uint64_t notifications_ = 0;

  // Lazily-maintained topological order (see topo_order()). Guarded by a
  // mutex because pool workers may race to refill the cache between
  // mutations; mutators run strictly single-threaded (delta-bus contract).
  mutable std::vector<GateId> topo_cache_;
  mutable std::vector<std::uint32_t> topo_pos_;  // slot -> index in the cache
  mutable bool topo_dirty_ = true;
  mutable std::mutex topo_mutex_;

  // Per-slot cell area (+0.0 unless a live kCell), kept by publish(); the
  // slot-order sum is cached until the next change. The mutex lets
  // concurrent readers fill the cache between mutations.
  std::vector<double> area_;
  mutable double area_total_ = 0.0;
  mutable bool area_stale_ = true;
  mutable std::mutex area_mutex_;

  // Reused DFS scratch for the in_tfo cycle guard: set_fanin runs once per
  // committed rewire and stale candidates once per source per selection
  // round, so it must neither clear nor allocate in steady state. Each call
  // takes a fresh epoch; the table is cleared only when the epoch wraps.
  friend struct NetlistTestAccess;
  mutable std::vector<std::uint32_t> tfo_stamp_;
  mutable std::uint32_t tfo_epoch_ = 0;
  mutable std::vector<GateId> tfo_stack_;

  GateId new_gate(GateKind kind);
  double slot_area(GateId g) const;
  void connect(GateId driver, GateId sink, int pin);
  void disconnect(GateId driver, GateId sink, int pin);
  std::vector<GateId> compute_topo() const;

  /// Stamps the delta with the next epoch, invalidates the topo cache for
  /// structural kinds, notifies every observer, and appends it to the
  /// bounded log. The single mutation point for generation_ — every mutator
  /// funnels through here.
  void publish(NetlistDelta&& delta);
};

/// Applies one recorded delta to `netlist`, which must be in the exact
/// pre-delta state (same GateIds). `names` is the table of the netlist the
/// delta was recorded from (deltas carry NameIds, not strings). Replaying
/// an observer's delta stream onto a copy taken at subscription time
/// reproduces the source netlist; the tombstone-lifecycle property test
/// relies on this. kRebuilt is not replayable (it announces that per-gate
/// history was discarded) and is a checked error.
void replay_delta(Netlist& netlist, const NetlistDelta& delta,
                  const NameTable& names);

}  // namespace powder
