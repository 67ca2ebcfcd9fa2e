#include "power/attribution.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/json.hpp"

namespace powder {

namespace {

// Mirrors the report writer's table (api.cpp); indexed by ResubClass. Kept
// local so src/power/ stays independent of the optimizer headers.
const char* kClassNames[kAttributionClasses] = {"OS2", "IS2", "OS3", "IS3",
                                                "OSK", "ISK", "FUNCRED"};

void append_number(std::ostringstream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

}  // namespace

PowerAttribution::PowerAttribution(int top_k)
    : top_k_(top_k < 0 ? 0 : top_k) {}

PowerAttribution::~PowerAttribution() {
  if (attached_ && netlist_ != nullptr) netlist_->detach_observer(this);
}

void PowerAttribution::begin_run(const Netlist* netlist,
                                 const PowerModel* model) {
  netlist_ = netlist;
  model_ = model;
  model_name_ = power_model_name(model->kind());
  if (!attached_) {
    netlist_->attach_observer(this);
    attached_ = true;
  }
  last_epoch_ = netlist_->epoch();
  sweep(&before_);
}

void PowerAttribution::end_run() {
  if (netlist_ == nullptr) return;
  sweep(&after_);
  if (attached_) {
    netlist_->detach_observer(this);
    attached_ = false;
  }
  // Both the netlist and the power model live on optimize()'s stack; the
  // attribution sink outlives the run (the CLI serializes after optimize()
  // returns), so drop the borrowed pointers the moment the run ends.
  netlist_ = nullptr;
  model_ = nullptr;
}

void PowerAttribution::record_commit(int cls, double power_delta) {
  ledger_.push_back(LedgerEntry{cls, power_delta});
  class_gain_[cls] += power_delta;
  class_applied_[cls] += 1;
  ledger_commits_ += 1;
  ledger_gain_ += power_delta;
  ++commits_recorded_;
}

void PowerAttribution::record_rollback() {
  if (ledger_.empty()) return;
  const LedgerEntry rec = ledger_.back();
  ledger_.pop_back();
  class_gain_[rec.cls] -= rec.power_delta;
  class_applied_[rec.cls] -= 1;
  ledger_commits_ -= 1;
  ledger_gain_ -= rec.power_delta;
  ++rollbacks_recorded_;
}

void PowerAttribution::on_delta(const NetlistDelta& delta) {
  ++deltas_observed_;
  if (delta.epoch > last_epoch_) last_epoch_ = delta.epoch;
}

void PowerAttribution::sweep(Snapshot* out) const {
  out->taken = true;
  out->sum = 0.0;
  out->gates = 0;
  out->top.clear();
  out->by_cell.clear();

  const Netlist& nl = *netlist_;
  std::vector<std::pair<double, GateId>> ranked;
  // Same iteration set and accumulation order as total_power(): ascending
  // gate id, live gates only, primary outputs excluded. This is what makes
  // `sum == total_power()` a bitwise identity rather than a tolerance.
  for (GateId g = 0; g < nl.num_slots(); ++g) {
    if (!nl.alive(g)) continue;
    if (nl.kind(g) == GateKind::kOutput) continue;
    const double p = model_->signal_power(g);
    out->sum += p;
    out->gates += 1;
    ranked.emplace_back(p, g);
    const char* cell = nl.kind(g) == GateKind::kInput
                           ? "<input>"
                           : nl.cell_of(g).name.c_str();
    CellAgg& agg = out->by_cell[cell];
    agg.power += p;
    agg.gates += 1;
  }
  out->total_power = model_->total_power();

  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  const std::size_t k =
      std::min(ranked.size(), static_cast<std::size_t>(top_k_));
  out->top.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    TopGate t;
    t.gate = ranked[i].second;
    t.name = std::string(nl.gate_name(t.gate));
    t.cell = nl.kind(t.gate) == GateKind::kInput
                 ? "<input>"
                 : nl.cell_of(t.gate).name;
    t.power = ranked[i].first;
    out->top.push_back(std::move(t));
  }
}

std::string PowerAttribution::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"schema_version\":" << kAttributionSchemaVersion;
  os << ",\"model\":"
     << json_quote(model_name_.empty() ? "none" : model_name_);
  os << ",\"top_k\":" << top_k_;
  os << ",\"total_power_before\":";
  append_number(os, before_.total_power);
  os << ",\"total_power_after\":";
  append_number(os, after_.total_power);
  os << ",\"contribution_sum_before\":";
  append_number(os, before_.sum);
  os << ",\"contribution_sum_after\":";
  append_number(os, after_.sum);
  os << ",\"gates_before\":" << before_.gates;
  os << ",\"gates_after\":" << after_.gates;
  os << ",\"deltas_observed\":" << deltas_observed_;
  os << ",\"last_epoch\":" << last_epoch_;
  os << ",\"commits_recorded\":" << commits_recorded_;
  os << ",\"rollbacks_recorded\":" << rollbacks_recorded_;

  const auto dump_top = [&os](const char* key,
                              const std::vector<TopGate>& top) {
    os << ",\"" << key << "\":[";
    for (std::size_t i = 0; i < top.size(); ++i) {
      if (i != 0) os << ",";
      os << "{\"gate\":" << top[i].gate << ",\"name\":"
         << json_quote(top[i].name) << ",\"cell\":" << json_quote(top[i].cell)
         << ",\"power\":";
      append_number(os, top[i].power);
      os << "}";
    }
    os << "]";
  };
  dump_top("top_gates_before", before_.top);
  dump_top("top_gates_after", after_.top);

  // Union of cell kinds over both snapshots, in lexicographic order.
  os << ",\"by_cell\":{";
  {
    std::map<std::string, std::pair<CellAgg, CellAgg>> merged;
    for (const auto& [name, agg] : before_.by_cell) merged[name].first = agg;
    for (const auto& [name, agg] : after_.by_cell) merged[name].second = agg;
    bool first = true;
    for (const auto& [name, pair] : merged) {
      if (!first) os << ",";
      first = false;
      os << json_quote(name) << ":{\"power_before\":";
      append_number(os, pair.first.power);
      os << ",\"gates_before\":" << pair.first.gates << ",\"power_after\":";
      append_number(os, pair.second.power);
      os << ",\"gates_after\":" << pair.second.gates << "}";
    }
  }
  os << "}";

  os << ",\"by_class\":{";
  for (int i = 0; i < kAttributionClasses; ++i) {
    if (i != 0) os << ",";
    os << "\"" << kClassNames[i] << "\":{\"applied\":" << class_applied_[i]
       << ",\"gain\":";
    append_number(os, class_gain_[i]);
    os << "}";
  }
  os << "}";

  // Retired per-window view, kept for the document format: one entry for
  // the whole ledger (window -1) once anything was recorded.
  os << ",\"by_window\":[";
  if (commits_recorded_ > 0) {
    os << "{\"window\":-1,\"commits\":" << ledger_commits_ << ",\"gain\":";
    append_number(os, ledger_gain_);
    os << "}";
  }
  os << "]}";
  return os.str();
}

bool validate_attribution_json(const std::string& text, std::string* error) {
  std::string parse_error;
  const auto root = json_parse(text, &parse_error);
  if (root == nullptr) {
    *error = "attribution: parse failure: " + parse_error;
    return false;
  }
  if (!root->is_object()) {
    *error = "attribution: root is not an object";
    return false;
  }
  const JsonValue* ver = root->find_number("schema_version");
  if (ver == nullptr ||
      ver->as_number() != static_cast<double>(kAttributionSchemaVersion)) {
    *error = "attribution: missing or unexpected schema_version";
    return false;
  }
  if (root->find_string("model") == nullptr) {
    *error = "attribution: missing model";
    return false;
  }
  const char* kNumbers[] = {"total_power_before", "total_power_after",
                            "contribution_sum_before",
                            "contribution_sum_after"};
  double nums[4];
  for (int i = 0; i < 4; ++i) {
    const JsonValue* v = root->find_number(kNumbers[i]);
    if (v == nullptr) {
      *error = std::string("attribution: missing number ") + kNumbers[i];
      return false;
    }
    nums[i] = v->as_number();
  }
  // The hard invariant: the per-gate sweep reproduces total_power()
  // exactly, so the round-tripped doubles must be equal, not close.
  if (nums[2] != nums[0]) {
    *error = "attribution: contribution_sum_before != total_power_before";
    return false;
  }
  if (nums[3] != nums[1]) {
    *error = "attribution: contribution_sum_after != total_power_after";
    return false;
  }

  for (const char* key : {"top_gates_before", "top_gates_after"}) {
    const JsonValue* arr = root->find_array(key);
    if (arr == nullptr) {
      *error = std::string("attribution: missing array ") + key;
      return false;
    }
    double prev = std::numeric_limits<double>::infinity();
    for (const JsonValue& item : arr->items()) {
      if (!item.is_object() || item.find_number("gate") == nullptr ||
          item.find_string("name") == nullptr ||
          item.find_string("cell") == nullptr ||
          item.find_number("power") == nullptr) {
        *error = std::string("attribution: malformed entry in ") + key;
        return false;
      }
      const double p = item.find_number("power")->as_number();
      if (p > prev) {
        *error = std::string("attribution: ") + key + " not sorted";
        return false;
      }
      prev = p;
    }
  }

  const JsonValue* by_class = root->find_object("by_class");
  if (by_class == nullptr) {
    *error = "attribution: missing by_class";
    return false;
  }
  double gain_sum = 0.0;
  for (const char* name : kClassNames) {
    const JsonValue* cls = by_class->find_object(name);
    if (cls == nullptr || cls->find_number("applied") == nullptr ||
        cls->find_number("gain") == nullptr) {
      *error = std::string("attribution: missing class ") + name;
      return false;
    }
    gain_sum += cls->find_number("gain")->as_number();
  }
  // Ledger vs end-to-end drop: telescoped commit deltas and the single
  // subtraction accumulate in different orders, so this one is tolerant.
  const double drop = nums[0] - nums[1];
  const double scale = std::max({1.0, std::fabs(nums[0]), std::fabs(nums[1])});
  if (std::fabs(gain_sum - drop) > 1e-6 * scale) {
    *error = "attribution: class gains do not sum to the power drop";
    return false;
  }

  if (root->find_array("by_window") == nullptr) {
    *error = "attribution: missing by_window";
    return false;
  }
  error->clear();
  return true;
}

}  // namespace powder
