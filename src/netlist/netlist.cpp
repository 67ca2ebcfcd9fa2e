#include "netlist/netlist.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace powder {

namespace {
/// Delta-log bound: old deltas are evicted FIFO. Large enough that any
/// inner-loop consumer (one commit plus its rollback) fits comfortably;
/// consumers of deltas_since fall back to a full rebuild on eviction.
constexpr std::size_t kDeltaLogCapacity = 1024;
}  // namespace

Netlist::Netlist(const CellLibrary* library, std::string name)
    : library_(library), name_(std::move(name)) {
  POWDER_CHECK(library_ != nullptr);
}

Netlist::Netlist(std::shared_ptr<const CellLibrary> library, std::string name)
    : library_(library.get()),
      library_owner_(std::move(library)),
      name_(std::move(name)) {
  POWDER_CHECK(library_ != nullptr);
}

void Netlist::adopt_library(std::shared_ptr<const CellLibrary> library) {
  POWDER_CHECK_MSG(library.get() == library_,
                   "adopt_library: the shared handle must own the library "
                   "this netlist was built against");
  library_owner_ = std::move(library);
}

Netlist::Netlist(const Netlist& other)
    : library_(other.library_),
      library_owner_(other.library_owner_),
      name_(other.name_),
      kind_(other.kind_),
      alive_(other.alive_),
      cell_(other.cell_),
      gate_name_(other.gate_name_),
      po_load_(other.po_load_),
      fanin_ref_(other.fanin_ref_),
      fanout_ref_(other.fanout_ref_),
      fanin_pins_(other.fanin_pins_),
      fanout_pins_(other.fanout_pins_),
      names_(other.names_),
      inputs_(other.inputs_),
      outputs_(other.outputs_),
      latches_(other.latches_),
      generation_(other.generation_),
      name_counter_(other.name_counter_),
      area_(other.area_) {}

Netlist& Netlist::operator=(const Netlist& other) {
  if (this == &other) return *this;
  library_ = other.library_;
  library_owner_ = other.library_owner_;
  name_ = other.name_;
  kind_ = other.kind_;
  alive_ = other.alive_;
  cell_ = other.cell_;
  gate_name_ = other.gate_name_;
  po_load_ = other.po_load_;
  fanin_ref_ = other.fanin_ref_;
  fanout_ref_ = other.fanout_ref_;
  fanin_pins_ = other.fanin_pins_;
  fanout_pins_ = other.fanout_pins_;
  names_ = other.names_;
  inputs_ = other.inputs_;
  outputs_ = other.outputs_;
  latches_ = other.latches_;
  generation_ = other.generation_;
  name_counter_ = other.name_counter_;
  area_ = other.area_;
  delta_log_.clear();
  log_head_ = 0;
  NetlistDelta d;
  d.kind = DeltaKind::kRebuilt;
  publish(std::move(d));
  return *this;
}

Netlist::Netlist(Netlist&& other) {
  POWDER_CHECK_MSG(other.observers_.empty(),
                   "moving a netlist that still has observers attached");
  library_ = other.library_;
  library_owner_ = std::move(other.library_owner_);
  name_ = std::move(other.name_);
  kind_ = std::move(other.kind_);
  alive_ = std::move(other.alive_);
  cell_ = std::move(other.cell_);
  gate_name_ = std::move(other.gate_name_);
  po_load_ = std::move(other.po_load_);
  fanin_ref_ = std::move(other.fanin_ref_);
  fanout_ref_ = std::move(other.fanout_ref_);
  fanin_pins_ = std::move(other.fanin_pins_);
  fanout_pins_ = std::move(other.fanout_pins_);
  names_ = std::move(other.names_);
  inputs_ = std::move(other.inputs_);
  outputs_ = std::move(other.outputs_);
  latches_ = std::move(other.latches_);
  area_ = std::move(other.area_);
  area_stale_ = true;
  generation_ = other.generation_;
  name_counter_ = other.name_counter_;
  delta_log_ = std::move(other.delta_log_);
  log_head_ = other.log_head_;
  deltas_published_ = other.deltas_published_;
  notifications_ = other.notifications_;
}

Netlist& Netlist::operator=(Netlist&& other) {
  if (this == &other) return *this;
  POWDER_CHECK_MSG(other.observers_.empty(),
                   "moving a netlist that still has observers attached");
  library_ = other.library_;
  library_owner_ = std::move(other.library_owner_);
  name_ = std::move(other.name_);
  kind_ = std::move(other.kind_);
  alive_ = std::move(other.alive_);
  cell_ = std::move(other.cell_);
  gate_name_ = std::move(other.gate_name_);
  po_load_ = std::move(other.po_load_);
  fanin_ref_ = std::move(other.fanin_ref_);
  fanout_ref_ = std::move(other.fanout_ref_);
  fanin_pins_ = std::move(other.fanin_pins_);
  fanout_pins_ = std::move(other.fanout_pins_);
  names_ = std::move(other.names_);
  inputs_ = std::move(other.inputs_);
  outputs_ = std::move(other.outputs_);
  latches_ = std::move(other.latches_);
  area_ = std::move(other.area_);
  area_stale_ = true;
  generation_ = other.generation_;
  name_counter_ = other.name_counter_;
  delta_log_.clear();
  log_head_ = 0;
  NetlistDelta d;
  d.kind = DeltaKind::kRebuilt;
  publish(std::move(d));
  return *this;
}

void Netlist::attach_observer(NetlistObserver* observer) const {
  POWDER_CHECK(observer != nullptr);
  observers_.push_back(observer);
}

void Netlist::detach_observer(NetlistObserver* observer) const {
  const auto it = std::find(observers_.begin(), observers_.end(), observer);
  POWDER_CHECK_MSG(it != observers_.end(), "detaching unattached observer");
  observers_.erase(it);
}

void Netlist::publish(NetlistDelta&& delta) {
  delta.epoch = ++generation_;
  ++deltas_published_;
  // Resizing (kCellChanged) never changes the DAG; everything else does.
  if (delta.kind != DeltaKind::kCellChanged) topo_dirty_ = true;
  // A rewire moves no area; every other kind may change its subject's.
  if (delta.kind == DeltaKind::kRebuilt) {
    area_.resize(kind_.size());
    for (GateId g = 0; g < kind_.size(); ++g) area_[g] = slot_area(g);
    area_stale_ = true;
  } else if (delta.kind != DeltaKind::kFaninChanged) {
    area_[delta.gate] = slot_area(delta.gate);
    area_stale_ = true;
  }
  for (NetlistObserver* obs : observers_) {
    obs->on_delta(delta);
    ++notifications_;
  }
  if (delta_log_.size() < kDeltaLogCapacity) {
    delta_log_.push_back(std::move(delta));
  } else {
    delta_log_[log_head_] = std::move(delta);  // overwrite the oldest
    log_head_ = (log_head_ + 1) % kDeltaLogCapacity;
  }
}

std::optional<std::vector<NetlistDelta>> Netlist::deltas_since(
    std::uint64_t epoch) const {
  if (epoch > generation_) return std::nullopt;  // from the future
  if (epoch == generation_) return std::vector<NetlistDelta>{};
  // The log must still hold the delta with epoch+1.
  const std::size_t n = delta_log_.size();
  if (n == 0 || delta_log_[log_head_ % n].epoch > epoch + 1)
    return std::nullopt;
  std::vector<NetlistDelta> out;
  for (std::size_t i = 0; i < n; ++i) {
    const NetlistDelta& d = delta_log_[(log_head_ + i) % n];
    if (d.epoch > epoch) out.push_back(d);
  }
  return out;
}

void replay_delta(Netlist& netlist, const NetlistDelta& delta,
                  const NameTable& names) {
  switch (delta.kind) {
    case DeltaKind::kGateAdded: {
      GateId id = kNullGate;
      const std::string name(names.view(delta.name));
      switch (delta.gate_kind) {
        case GateKind::kInput:
          id = netlist.add_input(name);
          break;
        case GateKind::kOutput:
          POWDER_CHECK(delta.fanins.size() == 1);
          id = netlist.add_output(name, delta.fanins[0], delta.po_load);
          break;
        case GateKind::kCell:
          id = netlist.add_gate(
              delta.new_cell,
              std::vector<GateId>(delta.fanins.begin(), delta.fanins.end()),
              name);
          break;
      }
      POWDER_CHECK_MSG(id == delta.gate,
                       "replay_delta: slot mismatch (replica diverged)");
      break;
    }
    case DeltaKind::kFaninChanged:
      netlist.set_fanin(delta.gate, delta.pin, delta.new_driver);
      break;
    case DeltaKind::kCellChanged:
      netlist.set_cell(delta.gate, delta.new_cell);
      break;
    case DeltaKind::kGateRemoved:
      // Removal order in the source guarantees the gate is fanout-free by
      // the time its delta is replayed.
      netlist.remove_single_gate(delta.gate);
      break;
    case DeltaKind::kGateRevived:
      netlist.revive_gate(
          delta.gate,
          std::vector<GateId>(delta.fanins.begin(), delta.fanins.end()));
      break;
    case DeltaKind::kRebuilt:
      POWDER_CHECK_MSG(false, "kRebuilt deltas are not replayable");
      break;
  }
}

GateId Netlist::new_gate(GateKind kind) {
  const GateId id = static_cast<GateId>(kind_.size());
  kind_.push_back(kind);
  alive_.push_back(1);
  cell_.push_back(kInvalidCell);
  gate_name_.push_back(kNullName);
  po_load_.push_back(1.0);
  fanin_ref_.emplace_back();
  fanout_ref_.emplace_back();
  area_.push_back(0.0);
  return id;
}

double Netlist::slot_area(GateId g) const {
  return alive_[g] != 0 && kind_[g] == GateKind::kCell
             ? library_->cell(cell_[g]).area
             : 0.0;
}

void Netlist::reserve(std::size_t gates, std::size_t pins) {
  kind_.reserve(gates);
  alive_.reserve(gates);
  cell_.reserve(gates);
  gate_name_.reserve(gates);
  po_load_.reserve(gates);
  fanin_ref_.reserve(gates);
  fanout_ref_.reserve(gates);
  area_.reserve(gates);
  // Slabs round pin lists up to powers of two; double the estimate to
  // cover fanout slack so bulk construction stays reallocation-free.
  fanin_pins_.reserve(2 * pins);
  fanout_pins_.reserve(2 * pins);
}

std::string Netlist::fresh_name(const std::string& prefix) {
  for (;;) {
    std::string cand = prefix + "_" + std::to_string(name_counter_++);
    if (!names_.contains(cand)) {
      names_.intern(cand);  // reserve it for the caller
      return cand;
    }
  }
}

GateId Netlist::add_input(std::string_view name) {
  const GateId id = new_gate(GateKind::kInput);
  gate_name_[id] = names_.intern(name.empty() ? fresh_name("pi") : name);
  inputs_.push_back(id);
  NetlistDelta d;
  d.kind = DeltaKind::kGateAdded;
  d.gate = id;
  d.gate_kind = GateKind::kInput;
  d.name = gate_name_[id];
  publish(std::move(d));
  return id;
}

GateId Netlist::add_output(std::string_view name, GateId driver,
                           double load) {
  POWDER_CHECK(driver < kind_.size() && alive_[driver] != 0);
  const GateId id = new_gate(GateKind::kOutput);
  gate_name_[id] = names_.intern(name.empty() ? fresh_name("po") : name);
  po_load_[id] = load;
  fanin_pins_.push_back(fanin_ref_[id], driver);
  connect(driver, id, 0);
  outputs_.push_back(id);
  NetlistDelta d;
  d.kind = DeltaKind::kGateAdded;
  d.gate = id;
  d.gate_kind = GateKind::kOutput;
  d.name = gate_name_[id];
  d.po_load = load;
  d.fanins.push_back(driver);
  publish(std::move(d));
  return id;
}

GateId Netlist::add_gate(CellId cell, std::span<const GateId> fanins,
                         std::string_view name) {
  POWDER_CHECK(cell != kInvalidCell);
  const Cell& c = library_->cell(cell);
  POWDER_CHECK_MSG(static_cast<int>(fanins.size()) == c.num_inputs(),
                   "gate arity mismatch for cell " << c.name);
  for (const GateId fi : fanins)
    POWDER_CHECK(fi < kind_.size() && alive_[fi] != 0);
  const GateId id = new_gate(GateKind::kCell);
  cell_[id] = cell;
  gate_name_[id] = names_.intern(name.empty() ? fresh_name("g") : name);
  fanin_pins_.assign(fanin_ref_[id], fanins.data(), fanins.size());
  for (int pin = 0; pin < static_cast<int>(fanins.size()); ++pin)
    connect(fanins[static_cast<std::size_t>(pin)], id, pin);
  NetlistDelta d;
  d.kind = DeltaKind::kGateAdded;
  d.gate = id;
  d.gate_kind = GateKind::kCell;
  d.new_cell = cell;
  d.name = gate_name_[id];
  d.fanins.assign(fanins.data(), fanins.size());
  publish(std::move(d));
  return id;
}

void Netlist::add_latch(GateId input, GateId output, int init) {
  POWDER_CHECK(input < kind_.size() && alive_[input] != 0);
  POWDER_CHECK_MSG(kind_[input] == GateKind::kOutput,
                   "latch input must be a pseudo-PO gate");
  POWDER_CHECK(output < kind_.size() && alive_[output] != 0);
  POWDER_CHECK_MSG(kind_[output] == GateKind::kInput,
                   "latch output must be a pseudo-PI gate");
  POWDER_CHECK_MSG(init >= 0 && init <= 3,
                   "latch init state must be 0, 1, 2 or 3");
  for (const Latch& l : latches_)
    POWDER_CHECK_MSG(l.input != input && l.output != output,
                     "gate already bound to a latch");
  latches_.push_back(Latch{input, output, init});
}

bool Netlist::is_latch_output(GateId id) const {
  for (const Latch& l : latches_)
    if (l.output == id) return true;
  return false;
}

bool Netlist::is_latch_input(GateId id) const {
  for (const Latch& l : latches_)
    if (l.input == id) return true;
  return false;
}

void Netlist::connect(GateId driver, GateId sink, int pin) {
  fanout_pins_.push_back(fanout_ref_[driver], FanoutRef{sink, pin});
}

void Netlist::disconnect(GateId driver, GateId sink, int pin) {
  const std::span<const FanoutRef> fo = fanout_pins_.view(fanout_ref_[driver]);
  const auto it = std::find(fo.begin(), fo.end(), FanoutRef{sink, pin});
  POWDER_CHECK_MSG(it != fo.end(), "fanout edge missing on disconnect");
  fanout_pins_.erase_at(fanout_ref_[driver],
                        static_cast<std::size_t>(it - fo.begin()));
}

void Netlist::set_fanin(GateId gate, int pin, GateId new_driver) {
  POWDER_CHECK(gate < kind_.size() && alive_[gate] != 0);
  POWDER_CHECK(new_driver < kind_.size() && alive_[new_driver] != 0);
  POWDER_CHECK(pin >= 0 && pin < num_fanins(gate));
  const GateId old_driver = fanin(gate, pin);
  if (old_driver == new_driver) return;
  POWDER_CHECK_MSG(!in_tfo(gate, new_driver),
                   "set_fanin would create a combinational cycle");
  disconnect(old_driver, gate, pin);
  fanin_pins_.at_mut(fanin_ref_[gate], static_cast<std::size_t>(pin)) =
      new_driver;
  connect(new_driver, gate, pin);
  NetlistDelta d;
  d.kind = DeltaKind::kFaninChanged;
  d.gate = gate;
  d.pin = pin;
  d.old_driver = old_driver;
  d.new_driver = new_driver;
  publish(std::move(d));
}

void Netlist::set_cell(GateId gate, CellId new_cell) {
  POWDER_CHECK(gate < kind_.size() && alive_[gate] != 0);
  POWDER_CHECK(kind_[gate] == GateKind::kCell);
  const CellId old_cell = cell_[gate];
  if (old_cell == new_cell) return;
  const Cell& old_c = library_->cell(old_cell);
  const Cell& new_c = library_->cell(new_cell);
  POWDER_CHECK_MSG(old_c.num_inputs() == new_c.num_inputs() &&
                       old_c.function == new_c.function,
                   "set_cell requires a functionally identical cell");
  cell_[gate] = new_cell;
  NetlistDelta d;
  d.kind = DeltaKind::kCellChanged;
  d.gate = gate;
  d.old_cell = old_cell;
  d.new_cell = new_cell;
  publish(std::move(d));
}

void Netlist::replace_all_fanouts(GateId old_driver, GateId new_driver) {
  POWDER_CHECK(old_driver != new_driver);
  POWDER_CHECK(alive_[old_driver] != 0 && alive_[new_driver] != 0);
  POWDER_CHECK_MSG(!in_tfo(old_driver, new_driver),
                   "replace_all_fanouts would create a cycle");
  // Move branches one by one, publishing one kFaninChanged per branch so
  // the delta stream replays exactly; copy the list because the rewiring
  // mutates it (and may grow the arena pool under the span).
  const std::span<const FanoutRef> fo =
      fanout_pins_.view(fanout_ref_[old_driver]);
  const std::vector<FanoutRef> branches(fo.begin(), fo.end());
  for (const FanoutRef& br : branches) {
    disconnect(old_driver, br.gate, br.pin);
    fanin_pins_.at_mut(fanin_ref_[br.gate],
                       static_cast<std::size_t>(br.pin)) = new_driver;
    connect(new_driver, br.gate, br.pin);
    NetlistDelta d;
    d.kind = DeltaKind::kFaninChanged;
    d.gate = br.gate;
    d.pin = br.pin;
    d.old_driver = old_driver;
    d.new_driver = new_driver;
    publish(std::move(d));
  }
}

std::vector<GateId> Netlist::remove_gate_recursive(
    GateId gate, std::vector<std::vector<GateId>>* removed_fanins) {
  std::vector<GateId> removed;
  std::vector<GateId> stack{gate};
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    if (alive_[g] == 0 || kind_[g] != GateKind::kCell) continue;
    if (fanout_ref_[g].size != 0) continue;
    const std::span<const GateId> fi_span = fanin_pins_.view(fanin_ref_[g]);
    const std::vector<GateId> fanins(fi_span.begin(), fi_span.end());
    alive_[g] = 0;
    removed.push_back(g);
    if (removed_fanins != nullptr) removed_fanins->push_back(fanins);
    for (int pin = 0; pin < static_cast<int>(fanins.size()); ++pin) {
      const GateId fi = fanins[static_cast<std::size_t>(pin)];
      disconnect(fi, g, pin);
      if (fanout_ref_[fi].size == 0) stack.push_back(fi);
    }
    fanin_pins_.release(fanin_ref_[g]);
    fanout_pins_.release(fanout_ref_[g]);
    NetlistDelta d;
    d.kind = DeltaKind::kGateRemoved;
    d.gate = g;
    d.fanins.assign(fanins.data(), fanins.size());
    publish(std::move(d));
  }
  return removed;
}

void Netlist::remove_single_gate(GateId gate) {
  POWDER_CHECK(gate < kind_.size() && alive_[gate] != 0);
  POWDER_CHECK(kind_[gate] == GateKind::kCell);
  POWDER_CHECK_MSG(fanout_ref_[gate].size == 0,
                   "removing gate " << gate_name(gate)
                                    << " which still drives fanout");
  const std::span<const GateId> fi_span = fanin_pins_.view(fanin_ref_[gate]);
  const std::vector<GateId> fanins(fi_span.begin(), fi_span.end());
  for (int pin = 0; pin < static_cast<int>(fanins.size()); ++pin)
    disconnect(fanins[static_cast<std::size_t>(pin)], gate, pin);
  fanin_pins_.release(fanin_ref_[gate]);
  fanout_pins_.release(fanout_ref_[gate]);
  alive_[gate] = 0;
  NetlistDelta d;
  d.kind = DeltaKind::kGateRemoved;
  d.gate = gate;
  d.fanins.assign(fanins.data(), fanins.size());
  publish(std::move(d));
}

void Netlist::revive_gate(GateId gate, const std::vector<GateId>& fanins) {
  POWDER_CHECK(gate < kind_.size() && alive_[gate] == 0);
  POWDER_CHECK(kind_[gate] == GateKind::kCell && cell_[gate] != kInvalidCell);
  POWDER_CHECK_MSG(static_cast<int>(fanins.size()) ==
                       library_->cell(cell_[gate]).num_inputs(),
                   "revive_gate arity mismatch for " << gate_name(gate));
  for (GateId fi : fanins)
    POWDER_CHECK_MSG(fi < kind_.size() && alive_[fi] != 0,
                     "revive_gate with dead fanin into " << gate_name(gate));
  alive_[gate] = 1;
  fanin_pins_.assign(fanin_ref_[gate], fanins.data(), fanins.size());
  for (int pin = 0; pin < static_cast<int>(fanins.size()); ++pin)
    connect(fanins[static_cast<std::size_t>(pin)], gate, pin);
  NetlistDelta d;
  d.kind = DeltaKind::kGateRevived;
  d.gate = gate;
  d.fanins.assign(fanins.data(), fanins.size());
  publish(std::move(d));
}

std::vector<GateId> Netlist::sweep_dead() {
  std::vector<GateId> removed;
  for (GateId g = 0; g < kind_.size(); ++g) {
    if (alive_[g] != 0 && kind_[g] == GateKind::kCell &&
        fanout_ref_[g].size == 0) {
      const auto r = remove_gate_recursive(g);
      removed.insert(removed.end(), r.begin(), r.end());
    }
  }
  return removed;
}

int Netlist::num_cells() const {
  int n = 0;
  for (GateId g = 0; g < kind_.size(); ++g)
    if (alive_[g] != 0 && kind_[g] == GateKind::kCell) ++n;
  return n;
}

const Cell& Netlist::cell_of(GateId id) const {
  POWDER_DCHECK(kind_[id] == GateKind::kCell);
  return library_->cell(cell_[id]);
}

double Netlist::pin_cap(GateId gate, int pin) const {
  if (kind_[gate] == GateKind::kOutput) return po_load_[gate];
  POWDER_DCHECK(kind_[gate] == GateKind::kCell);
  return library_->cell(cell_[gate])
      .pins[static_cast<std::size_t>(pin)]
      .input_cap;
}

double Netlist::signal_cap(GateId gate) const {
  double c = 0.0;
  for (const FanoutRef& br : fanouts(gate)) c += pin_cap(br.gate, br.pin);
  return c;
}

double Netlist::total_area() const {
  std::lock_guard<std::mutex> lock(area_mutex_);
  if (area_stale_) {
    double a = 0.0;
    for (const double x : area_) a += x;
    area_total_ = a;
    area_stale_ = false;
  }
  return area_total_;
}

std::vector<GateId> Netlist::compute_topo() const {
  std::vector<GateId> order;
  order.reserve(kind_.size());
  std::vector<std::uint8_t> state(kind_.size(), 0);  // 0=new 1=open 2=done
  std::vector<GateId> stack;
  for (GateId root = 0; root < kind_.size(); ++root) {
    if (alive_[root] == 0 || state[root] == 2) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const GateId g = stack.back();
      if (state[g] == 2) {
        stack.pop_back();
        continue;
      }
      if (state[g] == 0) {
        state[g] = 1;
        for (GateId fi : fanins(g)) {
          POWDER_CHECK_MSG(state[fi] != 1, "combinational cycle detected");
          if (state[fi] == 0) stack.push_back(fi);
        }
      } else {
        state[g] = 2;
        order.push_back(g);
        stack.pop_back();
      }
    }
  }
  return order;
}

const std::vector<GateId>& Netlist::topo_order() const {
  std::lock_guard<std::mutex> lock(topo_mutex_);
  if (topo_dirty_) {
    topo_cache_ = compute_topo();
    topo_pos_.resize(kind_.size());
    for (std::size_t i = 0; i < topo_cache_.size(); ++i)
      topo_pos_[topo_cache_[i]] = static_cast<std::uint32_t>(i);
    topo_dirty_ = false;
  }
  return topo_cache_;
}

std::span<const std::uint32_t> Netlist::topo_positions() const {
  (void)topo_order();
  return topo_pos_;
}

bool Netlist::in_tfo(GateId ancestor, GateId descendant) const {
  if (ancestor == descendant) return false;
  // Every gate on a path to `descendant` precedes it in any topological
  // order, so while the cached one is current (between mutations) the walk
  // skips the gates placed after it — and needs no walk at all when the
  // ancestor is one of them. Mid-edit the cache is stale and the walk is
  // unbounded.
  constexpr std::uint32_t kUnbounded = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t limit = kUnbounded;
  {
    // Only a mutation, on this thread, can make the cache stale again, so
    // the positions stay valid for the walk below once checked here.
    std::lock_guard<std::mutex> lock(topo_mutex_);
    if (!topo_dirty_ && alive_[ancestor] != 0 && alive_[descendant] != 0) {
      limit = topo_pos_[descendant];
      if (topo_pos_[ancestor] > limit) return false;
    }
  }
  if (tfo_stamp_.size() < kind_.size()) tfo_stamp_.resize(kind_.size(), 0);
  if (tfo_epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(tfo_stamp_.begin(), tfo_stamp_.end(), 0);
    tfo_epoch_ = 0;
  }
  const std::uint32_t seen = ++tfo_epoch_;
  tfo_stack_.clear();
  tfo_stack_.push_back(ancestor);
  tfo_stamp_[ancestor] = seen;
  while (!tfo_stack_.empty()) {
    const GateId g = tfo_stack_.back();
    tfo_stack_.pop_back();
    for (const FanoutRef& br : fanouts(g)) {
      if (br.gate == descendant) return true;
      if (tfo_stamp_[br.gate] != seen &&
          (limit == kUnbounded || topo_pos_[br.gate] < limit)) {
        tfo_stamp_[br.gate] = seen;
        tfo_stack_.push_back(br.gate);
      }
    }
  }
  return false;
}

std::vector<GateId> Netlist::tfo(GateId g) const {
  std::vector<GateId> out;
  std::vector<std::uint8_t> seen(kind_.size(), 0);
  std::vector<GateId> stack{g};
  seen[g] = 1;
  while (!stack.empty()) {
    const GateId cur = stack.back();
    stack.pop_back();
    for (const FanoutRef& br : fanouts(cur)) {
      if (!seen[br.gate]) {
        seen[br.gate] = 1;
        out.push_back(br.gate);
        stack.push_back(br.gate);
      }
    }
  }
  return out;
}

namespace {

/// Membership marks and cone buffer for mffc(), one set per thread: the
/// harvest's shards call mffc concurrently, and a shared scratch would race.
/// Each call takes two fresh stamps (pinned, in cone), so nothing is cleared
/// or allocated per call once the table covers the netlist.
struct MffcMarks {
  std::vector<std::uint32_t> stamp;
  std::vector<GateId> cone;
  std::uint32_t next = 0;

  /// Returns the call's "pinned" stamp; "in cone" is that plus one.
  std::uint32_t begin(std::size_t slots) {
    if (stamp.size() < slots) stamp.resize(slots, 0);
    if (next > std::numeric_limits<std::uint32_t>::max() - 2) {
      std::fill(stamp.begin(), stamp.end(), 0);
      next = 0;
    }
    next += 2;
    cone.clear();
    return next - 1;
  }
};

}  // namespace

std::vector<GateId> Netlist::mffc(GateId g,
                                  std::span<const GateId> keep_alive) const {
  const std::span<const GateId> cone = mffc_cone(g, keep_alive).gates();
  return {cone.begin(), cone.end()};
}

Netlist::MffcCone Netlist::mffc_cone(GateId g,
                                     std::span<const GateId> keep_alive) const {
  // Gates that die if g loses all fanout: g itself plus, transitively, each
  // fanin whose every fanout lies inside the cone built so far.
  thread_local MffcMarks marks;
  const std::uint32_t pinned = marks.begin(kind_.size());
  const std::uint32_t in_cone = pinned + 1;
  std::vector<std::uint32_t>& stamp = marks.stamp;
  std::vector<GateId>& cone = marks.cone;
  MffcCone result;
  result.stamp_ = stamp.data();
  result.in_cone_ = in_cone;
  if (kind_[g] != GateKind::kCell) return result;
  for (GateId k : keep_alive)
    if (k != g) stamp[k] = pinned;
  cone.push_back(g);
  stamp[g] = in_cone;
  // A fanin is absorbable when it is an unseen cell whose every fanout is
  // already inside the cone.
  auto absorbable = [&](GateId fi) {
    if (stamp[fi] >= pinned || kind_[fi] != GateKind::kCell) return false;
    for (const FanoutRef& br : fanouts(fi))
      if (stamp[br.gate] != in_cone) return false;
    return true;
  };
  // Process in reverse-topological manner: repeatedly try to absorb fanins.
  for (std::size_t i = 0; i < cone.size(); ++i) {
    for (GateId fi : fanins(cone[i])) {
      if (absorbable(fi)) {
        stamp[fi] = in_cone;
        cone.push_back(fi);
      }
    }
  }
  // A fanin rejected earlier (because one of its fanouts was still outside
  // the cone) can become absorbable after the cone grows; iterate over the
  // cone's fanins until a fixed point. Candidates are always fanins of
  // cone members, so the rescan stays local.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < cone.size(); ++i) {
      for (GateId fi : fanins(cone[i])) {
        if (absorbable(fi)) {
          stamp[fi] = in_cone;
          cone.push_back(fi);
          changed = true;
        }
      }
    }
  }
  result.gates_ = cone;
  return result;
}

Netlist Netlist::compacted(std::vector<GateId>* remap) const {
  Netlist out(library_, name_);
  out.library_owner_ = library_owner_;
  out.reserve(kind_.size(), fanin_pins_.pool_bytes() / sizeof(GateId));
  std::vector<GateId> map(kind_.size(), kNullGate);
  // Inputs keep their order; cells follow in topological order; outputs
  // keep their order last.
  for (GateId g : inputs_) map[g] = out.add_input(std::string(gate_name(g)));
  for (GateId g : topo_order()) {
    if (kind_[g] != GateKind::kCell) continue;
    std::vector<GateId> mapped;
    mapped.reserve(fanins(g).size());
    for (GateId fi : fanins(g)) {
      POWDER_CHECK(map[fi] != kNullGate);
      mapped.push_back(map[fi]);
    }
    map[g] = out.add_gate(cell_[g], mapped, std::string(gate_name(g)));
  }
  for (GateId g : outputs_) {
    map[g] = out.add_output(std::string(gate_name(g)), map[fanin(g, 0)],
                            po_load_[g]);
  }
  for (const Latch& l : latches_)
    out.add_latch(map[l.input], map[l.output], l.init);
  if (remap != nullptr) *remap = std::move(map);
  return out;
}

void Netlist::check_consistency() const {
  for (GateId g = 0; g < kind_.size(); ++g) {
    if (alive_[g] == 0) {
      POWDER_CHECK_MSG(fanin_ref_[g].size == 0 && fanout_ref_[g].size == 0,
                       "dead gate " << gate_name(g) << " still connected");
      continue;
    }
    switch (kind_[g]) {
      case GateKind::kInput:
        POWDER_CHECK(fanin_ref_[g].size == 0);
        break;
      case GateKind::kOutput:
        POWDER_CHECK_MSG(fanin_ref_[g].size == 1,
                         "output " << gate_name(g) << " must have one fanin");
        POWDER_CHECK(fanout_ref_[g].size == 0);
        break;
      case GateKind::kCell: {
        POWDER_CHECK(cell_[g] != kInvalidCell);
        const Cell& c = library_->cell(cell_[g]);
        POWDER_CHECK_MSG(num_fanins(g) == c.num_inputs(),
                         "gate " << gate_name(g) << " arity mismatch");
        break;
      }
    }
    for (int pin = 0; pin < num_fanins(g); ++pin) {
      const GateId fi = fanin(g, pin);
      POWDER_CHECK_MSG(fi < kind_.size() && alive_[fi] != 0,
                       "gate " << gate_name(g) << " has dead fanin");
      const std::span<const FanoutRef> fo = fanouts(fi);
      POWDER_CHECK_MSG(
          std::find(fo.begin(), fo.end(), FanoutRef{g, pin}) != fo.end(),
          "missing fanout back-edge into " << gate_name(g));
    }
    for (const FanoutRef& br : fanouts(g)) {
      POWDER_CHECK(br.gate < kind_.size() && alive_[br.gate] != 0);
      POWDER_CHECK_MSG(br.pin < num_fanins(br.gate) &&
                           fanin(br.gate, br.pin) == g,
                       "dangling fanout edge from " << gate_name(g));
    }
  }
  for (std::size_t i = 0; i < latches_.size(); ++i) {
    const Latch& l = latches_[i];
    POWDER_CHECK_MSG(l.input < kind_.size() && alive_[l.input] != 0 &&
                         kind_[l.input] == GateKind::kOutput,
                     "latch " << i << " input is not a live pseudo-PO");
    POWDER_CHECK_MSG(l.output < kind_.size() && alive_[l.output] != 0 &&
                         kind_[l.output] == GateKind::kInput,
                     "latch " << i << " output is not a live pseudo-PI");
    POWDER_CHECK(l.init >= 0 && l.init <= 3);
    for (std::size_t j = i + 1; j < latches_.size(); ++j)
      POWDER_CHECK_MSG(latches_[j].input != l.input &&
                           latches_[j].output != l.output,
                       "duplicate latch binding");
  }
  (void)compute_topo();  // throws on cycles, bypassing the cache
}

}  // namespace powder
