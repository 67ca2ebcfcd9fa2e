#include "io/blif.hpp"

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <sstream>
#include <vector>

#include "util/check.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace powder {

namespace {

/// Parse failure with position context. Every diagnostic names the 1-based
/// source line (of the first physical line when continuations were joined)
/// and, when useful, the offending token. Thrown as a typed input Error so
/// callers can distinguish bad files from engine failures.
[[noreturn]] void blif_fail(int line, const std::string& msg,
                            std::string_view near = {}) {
  std::ostringstream os;
  os << "BLIF parse error at line " << line << ": " << msg;
  if (!near.empty()) os << " (near '" << near << "')";
  throw Error::input(os.str());
}

}  // namespace

std::string write_blif(const Netlist& netlist) {
  // Latch pseudo gates are sequential bookkeeping, not interface nets: the
  // Q pseudo-PIs stay out of .inputs and the D pseudo-POs out of .outputs;
  // both reappear as .latch lines instead.
  std::vector<std::uint8_t> latch_gate(netlist.num_slots(), 0);
  for (const Latch& l : netlist.latches()) {
    latch_gate[l.input] = 1;
    latch_gate[l.output] = 1;
  }
  std::ostringstream os;
  os << ".model " << netlist.name() << "\n.inputs";
  for (GateId g : netlist.inputs())
    if (!latch_gate[g]) os << ' ' << netlist.gate_name(g);
  os << "\n.outputs";
  for (GateId g : netlist.outputs())
    if (!latch_gate[g]) os << ' ' << netlist.gate_name(g);
  os << '\n';
  for (const Latch& l : netlist.latches())
    os << ".latch " << netlist.gate_name(netlist.fanin(l.input, 0)) << ' '
       << netlist.gate_name(l.output) << ' ' << l.init << '\n';
  for (GateId g : netlist.topo_order()) {
    if (netlist.kind(g) != GateKind::kCell) continue;
    const Cell& cell = netlist.cell_of(g);
    os << ".gate " << cell.name;
    const std::span<const GateId> fanins = netlist.fanins(g);
    for (int pin = 0; pin < static_cast<int>(fanins.size()); ++pin)
      os << ' ' << cell.pins[static_cast<std::size_t>(pin)].name << '='
         << netlist.gate_name(fanins[static_cast<std::size_t>(pin)]);
    os << " O=" << netlist.gate_name(g) << '\n';
  }
  // Output connections: each PO is an alias of its driver. BLIF expresses
  // this with a buffer .names when the net names differ. Latch pseudo-POs
  // never surface as nets, so they need no alias.
  for (GateId o : netlist.outputs()) {
    if (latch_gate[o]) continue;
    const GateId driver = netlist.fanin(o, 0);
    if (netlist.gate_name(o) != netlist.gate_name(driver))
      os << ".names " << netlist.gate_name(driver) << ' '
         << netlist.gate_name(o) << "\n1 1\n";
  }
  os << ".end\n";
  return os.str();
}

namespace {

/// Logical lines of a BLIF text: comments stripped, whitespace trimmed and
/// `\`-continued lines joined, each with the 1-based physical line it
/// starts on. A line that needs no joining is a view into the text; a
/// joined one lives in `joined_`, whose strings never move.
class LineCursor {
 public:
  struct Line {
    std::string_view text;  // never empty
    int number;
  };

  explicit LineCursor(std::string_view text) : text_(text) {}

  /// The next logical line, or false at the end of the text.
  bool next(Line& out) {
    if (has_peeked_) {
      has_peeked_ = false;
      out = peeked_;
      return true;
    }
    return scan(out);
  }
  /// The line next() will return, without consuming it.
  bool peek(Line& out) {
    if (!has_peeked_) has_peeked_ = scan(peeked_);
    out = peeked_;
    return has_peeked_;
  }

 private:
  bool scan(Line& out) {
    bool joining = false;
    int start = 0;
    while (pos_ < text_.size()) {
      const std::size_t nl = text_.find('\n', pos_);
      const std::size_t end = nl == std::string_view::npos ? text_.size() : nl;
      std::string_view raw = text_.substr(pos_, end - pos_);
      pos_ = end + 1;
      ++lineno_;
      if (const std::size_t hash = raw.find('#');
          hash != std::string_view::npos)
        raw = raw.substr(0, hash);
      const std::string_view t = trim(raw);
      if (!joining) start = lineno_;
      if (!t.empty() && t.back() == '\\') {
        if (!joining) joined_.emplace_back();
        joining = true;
        joined_.back().append(t.substr(0, t.size() - 1)).push_back(' ');
        continue;
      }
      if (joining) {
        out = Line{joined_.back().append(t), start};
        return true;
      }
      if (!t.empty()) {
        out = Line{t, start};
        return true;
      }
    }
    // A continuation on the last line still ends a logical line.
    if (joining) out = Line{joined_.back(), start};
    return joining;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int lineno_ = 0;
  std::deque<std::string> joined_;
  Line peeked_{};
  bool has_peeked_ = false;
};

bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

/// Splits `line` into `tok` on runs of blanks (util's split(), without
/// allocating a vector per line).
void tokenize(std::string_view line, std::vector<std::string_view>& tok) {
  tok.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_blank(line[i])) ++i;
    const std::size_t j = i;
    while (i < line.size() && !is_blank(line[i])) ++i;
    if (i > j) tok.push_back(line.substr(j, i - j));
  }
}

using NetId = std::uint32_t;
constexpr NetId kNoNet = static_cast<NetId>(-1);

/// Dense ids for net names, interned on first sight. The keys are views
/// into the text (or a LineCursor's joined lines), so no name is copied.
class NetIds {
 public:
  explicit NetIds(std::size_t expected) {
    std::size_t cap = 64;
    while (cap < 2 * expected) cap *= 2;
    slots_.assign(cap, 0);
    names_.reserve(expected);
  }

  NetId intern(std::string_view name) {
    const std::uint64_t h = std::hash<std::string_view>{}(name);
    for (std::size_t i = h & (slots_.size() - 1);;
         i = (i + 1) & (slots_.size() - 1)) {
      const std::uint64_t slot = slots_[i];
      if (slot == 0) {
        const auto id = static_cast<NetId>(names_.size());
        names_.push_back(name);
        slots_[i] = (h & ~kIdBits) | (id + 1);
        if (2 * names_.size() > slots_.size()) grow();
        return id;
      }
      const auto id = static_cast<NetId>((slot & kIdBits) - 1);
      if ((slot & ~kIdBits) == (h & ~kIdBits) && names_[id] == name)
        return id;
    }
  }
  std::string_view name(NetId id) const { return names_[id]; }
  std::size_t size() const { return names_.size(); }

 private:
  static constexpr std::uint64_t kIdBits = 0xFFFFFFFF;

  void grow() {
    std::vector<std::uint64_t> old(2 * slots_.size(), 0);
    old.swap(slots_);
    for (const std::uint64_t slot : old) {
      if (slot == 0) continue;
      const std::string_view name = names_[(slot & kIdBits) - 1];
      std::size_t i = std::hash<std::string_view>{}(name) & (slots_.size() - 1);
      while (slots_[i] != 0) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = slot;
    }
  }

  std::vector<std::string_view> names_;
  // (hash high half << 32) | (id + 1); 0 marks an empty slot.
  std::vector<std::uint64_t> slots_;
};

bool is_output_pin(std::string_view pin) {
  return pin == "O" || pin == "o" || pin == "out" || pin == "Y";
}

// One scan over the text builds flat integer records; instantiation then
// walks them with an explicit stack. The netlist is built with exactly the
// calls, order and names of a recursive DFS from the outputs (in .outputs
// order, fanins in pin order) followed by the latch D cones, and every
// diagnostic keeps its text, line and precedence: parse errors in line
// order, then the driven-more-than-once checks (latch Q, gates, aliases),
// then instantiation errors in DFS order.
Netlist read_blif_impl(std::string_view text, const CellLibrary& library) {
  NetIds nets(text.size() / 16);
  std::string_view model = "blif";
  std::vector<NetId> input_nets, output_nets;
  int outputs_line = 0;
  struct GateRec {
    CellId cell;
    NetId out;
    std::uint32_t first_pin;  // fanin nets are pin_net[first_pin, +num_pins)
    std::uint32_t num_pins;
    int line;
  };
  std::vector<GateRec> gates;
  std::vector<NetId> pin_net;  // kNoNet: pin left unbound
  // Buffer aliases out <- in introduced by ".names in out / 1 1".
  struct AliasRec {
    NetId out, in;
    int line;
  };
  std::vector<AliasRec> aliases;
  // Sequential elements: .latch <input> <output> [<type> <control>] [<init>].
  struct LatchRec {
    NetId in, out;
    int init;
    int line;
  };
  std::vector<LatchRec> latches;

  LineCursor cursor(text);
  LineCursor::Line line;
  std::vector<std::string_view> tok;
  while (cursor.next(line)) {
    const int ln = line.number;
    tokenize(line.text, tok);
    if (tok.empty()) continue;
    if (tok[0] == ".model") {
      if (tok.size() > 1) model = tok[1];
    } else if (tok[0] == ".inputs") {
      for (std::size_t i = 1; i < tok.size(); ++i)
        input_nets.push_back(nets.intern(tok[i]));
    } else if (tok[0] == ".outputs") {
      outputs_line = ln;
      for (std::size_t i = 1; i < tok.size(); ++i)
        output_nets.push_back(nets.intern(tok[i]));
    } else if (tok[0] == ".gate") {
      if (tok.size() < 3)
        blif_fail(ln, ".gate needs a cell name and pin bindings", line.text);
      const CellId cid = library.find(tok[1]);
      if (cid == kInvalidCell) blif_fail(ln, "cell not in library", tok[1]);
      const Cell& cell = library.cell(cid);
      const auto first_pin = static_cast<std::uint32_t>(pin_net.size());
      pin_net.resize(pin_net.size() + cell.pins.size(), kNoNet);
      std::string_view out;
      for (std::size_t i = 2; i < tok.size(); ++i) {
        const std::size_t eq = tok[i].find('=');
        if (eq == std::string_view::npos)
          blif_fail(ln, "pin binding is not of the form pin=net", tok[i]);
        const std::string_view pin = tok[i].substr(0, eq);
        const std::string_view net = tok[i].substr(eq + 1);
        if (pin.empty() || net.empty())
          blif_fail(ln, "pin binding has an empty pin or net name", tok[i]);
        if (is_output_pin(pin)) {
          out = net;
          continue;
        }
        bool found = false;
        for (std::size_t p = 0; p < cell.pins.size(); ++p)
          if (cell.pins[p].name == pin) {
            pin_net[first_pin + p] = nets.intern(net);
            found = true;
          }
        if (!found)
          blif_fail(ln,
                    "cell " + cell.name + " has no pin named '" +
                        std::string(pin) + "'",
                    tok[i]);
      }
      if (out.empty())
        blif_fail(ln, ".gate has no output binding (O=...)", line.text);
      gates.push_back(GateRec{cid, nets.intern(out), first_pin,
                              static_cast<std::uint32_t>(cell.pins.size()),
                              ln});
    } else if (tok[0] == ".names") {
      // Accept: constants and single-input buffers only.
      if (tok.size() < 2) blif_fail(ln, ".names without any net");
      // The cover body: the following lines that do not start with '.'.
      // A rejected cover is quoted by its last line.
      std::size_t body_lines = 0;
      std::string_view first_body, last = line.text;
      LineCursor::Line body;
      while (cursor.peek(body) && body.text[0] != '.') {
        cursor.next(body);
        if (body_lines++ == 0) first_body = body.text;
        last = body.text;
      }
      if (tok.size() == 2) {
        const CellId cid =
            body_lines == 0 ? library.const0() : library.const1();
        if (cid == kInvalidCell)
          blif_fail(ln, "library lacks constant cells for constant .names",
                    tok[1]);
        gates.push_back(GateRec{cid, nets.intern(tok[1]),
                                static_cast<std::uint32_t>(pin_net.size()), 0,
                                ln});
      } else if (tok.size() == 3 && body_lines == 1 &&
                 trim(first_body) == "1 1") {
        aliases.push_back(
            AliasRec{nets.intern(tok[2]), nets.intern(tok[1]), ln});
      } else {
        blif_fail(ln,
                  ".names logic is not supported in mapped BLIF "
                  "(only constants and '1 1' buffers)",
                  last);
      }
    } else if (tok[0] == ".latch") {
      // .latch <input> <output> [<type> <control>] [<init-val>]; the clock
      // is single and implicit here, so a type/control pair is validated
      // and dropped. Missing init defaults to 3 (unknown), per SIS.
      if (tok.size() < 3 || tok.size() > 6)
        blif_fail(ln, ".latch needs an input and an output net", line.text);
      LatchRec rec{nets.intern(tok[1]), nets.intern(tok[2]), 3, ln};
      std::size_t next = 3;
      if (tok.size() >= 5) {
        const std::string_view type = tok[3];
        if (type != "fe" && type != "re" && type != "ah" && type != "al" &&
            type != "as")
          blif_fail(ln, ".latch type must be fe, re, ah, al or as", tok[3]);
        next = 5;  // tok[4] is the control net
      }
      if (tok.size() > next) {
        const std::string_view iv = tok[next];
        if (iv.size() != 1 || iv[0] < '0' || iv[0] > '3')
          blif_fail(ln, ".latch init value must be 0, 1, 2 or 3", iv);
        rec.init = iv[0] - '0';
      }
      latches.push_back(rec);
    } else if (tok[0] == ".end" || tok[0] == ".exdc") {
      break;
    } else {
      blif_fail(ln, "unsupported BLIF construct", tok[0]);
    }
  }

  Netlist netlist(&library, std::string(model));
  // Pre-size the SoA columns and pin arena: one slot per PI/PO/gate and a
  // pin-count estimate of 4 per instance (arena slabs round up internally).
  netlist.reserve(input_nets.size() + output_nets.size() + gates.size() +
                      2 * latches.size(),
                  4 * gates.size());
  // The gate driving each net once built; a repeated input keeps its first.
  std::vector<GateId> net_gate(nets.size(), kNullGate);
  for (const NetId n : input_nets) {
    const GateId g = netlist.add_input(nets.name(n));
    if (net_gate[n] == kNullGate) net_gate[n] = g;
  }
  // Latch outputs drive their Q nets as pseudo primary inputs.
  std::vector<GateId> latch_q(latches.size(), kNullGate);
  for (std::size_t i = 0; i < latches.size(); ++i) {
    const LatchRec& lr = latches[i];
    if (net_gate[lr.out] != kNullGate)
      blif_fail(lr.line, "net is driven more than once", nets.name(lr.out));
    latch_q[i] = net_gate[lr.out] = netlist.add_input(nets.name(lr.out));
  }
  constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> gate_of(nets.size(), kNone);
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const NetId out = gates[i].out;
    if (net_gate[out] != kNullGate || gate_of[out] != kNone)
      blif_fail(gates[i].line, "net is driven more than once",
                nets.name(out));
    gate_of[out] = static_cast<std::uint32_t>(i);
  }
  std::vector<std::uint32_t> alias_of(nets.size(), kNone);
  for (std::size_t i = 0; i < aliases.size(); ++i) {
    const NetId out = aliases[i].out;
    if (gate_of[out] != kNone || net_gate[out] != kNullGate ||
        alias_of[out] != kNone)
      blif_fail(aliases[i].line, "net is driven more than once",
                nets.name(out));
    alias_of[out] = static_cast<std::uint32_t>(i);
  }

  // The net an alias chain ends at. Alias nets never get a driver of their
  // own, so this is where their gate is looked up.
  auto resolve = [&](NetId net) {
    for (std::size_t hops = 0; alias_of[net] != kNone; ++hops) {
      if (hops > aliases.size())  // only a cycle is longer than every alias
        blif_fail(aliases[alias_of[net]].line,
                  "buffer aliases form a cycle through net", nets.name(net));
      net = aliases[alias_of[net]].in;
    }
    return net;
  };
  // Instantiation in dependency order. `ref_line` is the source line that
  // referenced `net`, so an undriven net is reported where it is used, not
  // as a generic end-of-parse failure. A frame revisits its pending pin
  // after the pin's driver is built, and then finds it in net_gate.
  std::vector<std::uint8_t> state(gates.size(), 0);  // 1 open, 2 built
  std::vector<GateId> fanin_gate(pin_net.size(), kNullGate);
  struct Frame {
    std::uint32_t gate, pin;
  };
  std::vector<Frame> stack;
  auto open = [&](NetId net, int ref_line) {
    const std::uint32_t gi = gate_of[net];
    if (gi == kNone)
      blif_fail(ref_line,
                "net has no driver (not an input, .gate output, or alias)",
                nets.name(net));
    if (state[gi] == 1)
      blif_fail(gates[gi].line, "combinational cycle through net",
                nets.name(net));
    state[gi] = 1;
    stack.push_back(Frame{gi, 0});
  };
  auto instantiate = [&](NetId net, int ref_line) -> GateId {
    net = resolve(net);
    if (net_gate[net] != kNullGate) return net_gate[net];
    open(net, ref_line);
    while (!stack.empty()) {
      Frame& f = stack.back();
      const GateRec& r = gates[f.gate];
      if (f.pin < r.num_pins) {
        const NetId fn = pin_net[r.first_pin + f.pin];
        if (fn == kNoNet)
          blif_fail(r.line, "gate leaves an input pin unbound",
                    nets.name(r.out));
        const NetId driver = resolve(fn);
        if (net_gate[driver] != kNullGate)
          fanin_gate[r.first_pin + f.pin++] = net_gate[driver];
        else
          open(driver, r.line);  // invalidates f
        continue;
      }
      state[f.gate] = 2;
      net_gate[r.out] = netlist.add_gate(
          r.cell, std::span(fanin_gate.data() + r.first_pin, r.num_pins),
          nets.name(r.out));
      stack.pop_back();
    }
    return net_gate[net];
  };

  std::string po_name;
  for (const NetId out : output_nets) {
    const GateId driver = instantiate(out, outputs_line);
    // Gate labels are unique; when the output net *is* the driver's label
    // (direct `.gate ... O=out`), the PO gate needs its own name. Via a
    // buffer alias the names already differ, keeping write/read
    // round-trips stable.
    po_name = nets.name(out);
    if (netlist.gate_name(driver) == po_name) po_name += "_po";
    netlist.add_output(po_name, driver);
  }
  // Latch inputs sample their D nets through pseudo primary outputs. All D
  // cones are instantiated first so the synthetic pseudo-PO names can be
  // checked against every net the netlist will actually contain.
  std::vector<GateId> latch_d(latches.size(), kNullGate);
  for (std::size_t i = 0; i < latches.size(); ++i)
    latch_d[i] = instantiate(latches[i].in, latches[i].line);
  for (std::size_t i = 0; i < latches.size(); ++i) {
    std::string li_name = std::string(nets.name(latches[i].out)) + "_li";
    while (netlist.names().contains(li_name)) li_name += "_";
    const GateId po = netlist.add_output(li_name, latch_d[i]);
    netlist.add_latch(po, latch_q[i], latches[i].init);
  }
  return netlist;
}

}  // namespace

Netlist read_blif(std::string_view text, const CellLibrary& library) {
  try {
    return read_blif_impl(text, library);
  } catch (const Error&) {
    throw;  // already typed (blif_fail)
  } catch (const CheckError& e) {
    // Internal invariant checks (duplicate gate labels, malformed nets)
    // tripped by hostile input are input errors at this boundary.
    throw Error::input(e.what());
  } catch (const std::exception& e) {
    throw Error::input(std::string("BLIF parse failure: ") + e.what());
  }
}

namespace {

SopNetwork read_pla_impl(std::string_view text, std::string name) {
  SopNetwork sop;
  sop.name = std::move(name);
  int ni = -1, no = -1;
  std::istringstream is{std::string(text)};
  std::string raw;
  while (std::getline(is, raw)) {
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    const auto tok = split(raw);
    if (tok.empty()) continue;
    if (tok[0] == ".i") {
      POWDER_CHECK_MSG(tok.size() >= 2, ".i without a count");
      ni = std::stoi(std::string(tok[1]));
      POWDER_CHECK_MSG(ni > 0, "non-positive .i count");
    } else if (tok[0] == ".o") {
      POWDER_CHECK_MSG(tok.size() >= 2, ".o without a count");
      POWDER_CHECK_MSG(ni > 0, ".o before .i");
      no = std::stoi(std::string(tok[1]));
      POWDER_CHECK_MSG(no > 0, "non-positive .o count");
      sop.outputs.assign(static_cast<std::size_t>(no), Cover(ni));
    } else if (tok[0] == ".ilb") {
      for (std::size_t i = 1; i < tok.size(); ++i)
        sop.input_names.emplace_back(tok[i]);
    } else if (tok[0] == ".ob") {
      for (std::size_t i = 1; i < tok.size(); ++i)
        sop.output_names.emplace_back(tok[i]);
    } else if (tok[0] == ".p" || tok[0] == ".type") {
      // cube count / type hints — ignored ('fd' semantics are the default)
    } else if (tok[0] == ".e" || tok[0] == ".end") {
      break;
    } else if (tok[0][0] == '.') {
      POWDER_CHECK_MSG(false, "unsupported PLA construct: " << raw);
    } else {
      POWDER_CHECK_MSG(ni > 0 && no > 0, "cube before .i/.o");
      POWDER_CHECK_MSG(tok.size() == 2, "malformed PLA cube line: " << raw);
      const Cube cube = Cube::parse(tok[0]);
      POWDER_CHECK(cube.num_vars() == ni);
      const std::string_view outs = tok[1];
      POWDER_CHECK(static_cast<int>(outs.size()) == no);
      for (int o = 0; o < no; ++o) {
        const char v = outs[static_cast<std::size_t>(o)];
        if (v == '1' || v == '4') {
          sop.outputs[static_cast<std::size_t>(o)].add(cube);
        } else if (v == '-' || v == '~' || v == '2') {
          // External don't-care ('fd' type): lazily allocate the DC sets.
          if (sop.dc_sets.empty())
            sop.dc_sets.assign(static_cast<std::size_t>(no), Cover(ni));
          sop.dc_sets[static_cast<std::size_t>(o)].add(cube);
        }
      }
    }
  }
  POWDER_CHECK_MSG(ni > 0 && no > 0, "PLA missing .i/.o");
  while (static_cast<int>(sop.input_names.size()) < ni)
    sop.input_names.push_back("x" + std::to_string(sop.input_names.size()));
  while (static_cast<int>(sop.output_names.size()) < no)
    sop.output_names.push_back("y" + std::to_string(sop.output_names.size()));
  return sop;
}

}  // namespace

SopNetwork read_pla(std::string_view text, std::string name) {
  try {
    return read_pla_impl(text, std::move(name));
  } catch (const Error&) {
    throw;
  } catch (const CheckError& e) {
    throw Error::input(e.what());
  } catch (const std::exception& e) {
    // std::stoi on a non-numeric .i/.o count, and friends.
    throw Error::input(std::string("PLA parse failure: ") + e.what());
  }
}

std::string write_pla(const SopNetwork& sop) {
  std::ostringstream os;
  os << ".i " << sop.num_inputs() << "\n.o " << sop.num_outputs() << '\n';
  os << ".ilb";
  for (const auto& n : sop.input_names) os << ' ' << n;
  os << "\n.ob";
  for (const auto& n : sop.output_names) os << ' ' << n;
  os << '\n';
  // Collect distinct cubes and their output masks.
  std::map<std::string, std::string> rows;  // cube text -> output mask
  for (int o = 0; o < sop.num_outputs(); ++o) {
    for (const Cube& c : sop.outputs[static_cast<std::size_t>(o)].cubes()) {
      auto [it, fresh] = rows.try_emplace(
          c.to_pla(), std::string(static_cast<std::size_t>(sop.num_outputs()),
                                  '0'));
      (void)fresh;
      it->second[static_cast<std::size_t>(o)] = '1';
    }
  }
  os << ".p " << rows.size() << '\n';
  for (const auto& [cube, mask] : rows) os << cube << ' ' << mask << '\n';
  os << ".e\n";
  return os.str();
}

}  // namespace powder
