// Reader parity oracle (`ctest -L io`). read_blif scans the text once into
// flat records and instantiates with an explicit stack; reference_read_blif
// below is the recursive, std::string-keyed reader it replaced, kept
// verbatim. On every input both must build the same netlist GateId by
// GateId (kind, cell, name, fanins, PI/PO/latch order, arena and name-pool
// traffic) and the same write_blif bytes, or fail with the same what().
// The exact-threshold Rng::biased_word is checked against the per-bit
// `uniform() < p` definition it replaced, draw for draw.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "benchgen/benchmarks.hpp"
#include "io/blif.hpp"
#include "mapper/mapper.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace powder {
namespace {

// ---- the reference: the recursive reader, as it was ----------------------

[[noreturn]] void blif_fail(int line, const std::string& msg,
                            std::string_view near = {}) {
  std::ostringstream os;
  os << "BLIF parse error at line " << line << ": " << msg;
  if (!near.empty()) os << " (near '" << near << "')";
  throw Error::input(os.str());
}

Netlist reference_read_blif_impl(std::string_view text,
                                 const CellLibrary& library) {
  // Join continuation lines (trailing backslash) and strip comments,
  // remembering for each logical line the physical line it started on so
  // diagnostics can point back into the original file.
  struct Line {
    std::string text;
    int number;  // 1-based physical line of the first fragment
  };
  std::vector<Line> lines;
  {
    std::string cur;
    int cur_start = 0, lineno = 0;
    std::istringstream is{std::string(text)};
    std::string raw;
    while (std::getline(is, raw)) {
      ++lineno;
      const std::size_t hash = raw.find('#');
      if (hash != std::string::npos) raw.resize(hash);
      std::string_view t = trim(raw);
      if (cur.empty()) cur_start = lineno;
      if (!t.empty() && t.back() == '\\') {
        cur += std::string(t.substr(0, t.size() - 1));
        cur += ' ';
        continue;
      }
      cur += std::string(t);
      if (!cur.empty()) lines.push_back(Line{cur, cur_start});
      cur.clear();
    }
    if (!cur.empty()) lines.push_back(Line{cur, cur_start});
  }

  std::string model = "blif";
  std::vector<std::string> input_names, output_names;
  int outputs_line = 0;
  struct GateRec {
    CellId cell;
    std::vector<std::string> fanin_nets;  // in pin order
    std::string out_net;
    int line;  // source line, for diagnostics
  };
  std::vector<GateRec> gates;
  // Buffer aliases out_net -> in_net introduced by ".names a b / 1 1".
  struct Alias {
    std::string out, in;
    int line;
  };
  std::vector<Alias> aliases;
  // Sequential elements: .latch <input> <output> [<type> <control>] [<init>].
  struct LatchRec {
    std::string in_net, out_net;
    int init;
    int line;
  };
  std::vector<LatchRec> latch_recs;

  for (std::size_t li = 0; li < lines.size(); ++li) {
    const int ln = lines[li].number;
    const auto tok = split(lines[li].text);
    if (tok.empty()) continue;
    if (tok[0] == ".model") {
      if (tok.size() > 1) model = std::string(tok[1]);
    } else if (tok[0] == ".inputs") {
      for (std::size_t i = 1; i < tok.size(); ++i)
        input_names.emplace_back(tok[i]);
    } else if (tok[0] == ".outputs") {
      outputs_line = ln;
      for (std::size_t i = 1; i < tok.size(); ++i)
        output_names.emplace_back(tok[i]);
    } else if (tok[0] == ".gate") {
      if (tok.size() < 3)
        blif_fail(ln, ".gate needs a cell name and pin bindings",
                  lines[li].text);
      const CellId cid = library.find(tok[1]);
      if (cid == kInvalidCell)
        blif_fail(ln, "cell not in library", tok[1]);
      const Cell& cell = library.cell(cid);
      GateRec rec;
      rec.cell = cid;
      rec.line = ln;
      rec.fanin_nets.resize(cell.pins.size());
      for (std::size_t i = 2; i < tok.size(); ++i) {
        const std::size_t eq = tok[i].find('=');
        if (eq == std::string_view::npos)
          blif_fail(ln, "pin binding is not of the form pin=net", tok[i]);
        const std::string pin(tok[i].substr(0, eq));
        const std::string net(tok[i].substr(eq + 1));
        if (pin.empty() || net.empty())
          blif_fail(ln, "pin binding has an empty pin or net name", tok[i]);
        if (pin == "O" || pin == "o" || pin == "out" || pin == "Y") {
          rec.out_net = net;
          continue;
        }
        bool found = false;
        for (std::size_t p = 0; p < cell.pins.size(); ++p)
          if (cell.pins[p].name == pin) {
            rec.fanin_nets[p] = net;
            found = true;
          }
        if (!found)
          blif_fail(ln, "cell " + cell.name + " has no pin named '" + pin +
                            "'",
                    tok[i]);
      }
      if (rec.out_net.empty())
        blif_fail(ln, ".gate has no output binding (O=...)", lines[li].text);
      gates.push_back(std::move(rec));
    } else if (tok[0] == ".names") {
      // Accept: constants and single-input buffers only.
      std::vector<std::string> nets;
      for (std::size_t i = 1; i < tok.size(); ++i) nets.emplace_back(tok[i]);
      if (nets.empty()) blif_fail(ln, ".names without any net");
      // Gather the cover body (subsequent lines not starting with '.').
      std::vector<std::string> body;
      while (li + 1 < lines.size() && lines[li + 1].text[0] != '.')
        body.push_back(lines[++li].text);
      if (nets.size() == 1) {
        const CellId cid =
            body.empty() ? library.const0() : library.const1();
        if (cid == kInvalidCell)
          blif_fail(ln, "library lacks constant cells for constant .names",
                    nets[0]);
        gates.push_back(GateRec{cid, {}, nets[0], ln});
      } else if (nets.size() == 2 && body.size() == 1 &&
                 trim(body[0]) == "1 1") {
        aliases.push_back(Alias{nets[1], nets[0], ln});
      } else {
        blif_fail(ln,
                  ".names logic is not supported in mapped BLIF "
                  "(only constants and '1 1' buffers)",
                  lines[li].text);
      }
    } else if (tok[0] == ".latch") {
      // .latch <input> <output> [<type> <control>] [<init-val>]; the clock
      // is single and implicit here, so a type/control pair is validated
      // and dropped. Missing init defaults to 3 (unknown), per SIS.
      if (tok.size() < 3 || tok.size() > 6)
        blif_fail(ln, ".latch needs an input and an output net",
                  lines[li].text);
      LatchRec rec;
      rec.in_net = std::string(tok[1]);
      rec.out_net = std::string(tok[2]);
      rec.init = 3;
      rec.line = ln;
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
      latch_recs.push_back(std::move(rec));
    } else if (tok[0] == ".end" || tok[0] == ".exdc") {
      break;
    } else {
      blif_fail(ln, "unsupported BLIF construct", tok[0]);
    }
  }

  Netlist netlist(&library, model);
  // Pre-size the SoA columns and pin arena: one slot per PI/PO/gate and a
  // pin-count estimate of 4 per instance (arena slabs round up internally).
  netlist.reserve(
      input_names.size() + output_names.size() + gates.size() +
          2 * latch_recs.size(),
      4 * gates.size());
  std::unordered_map<std::string, GateId> net_driver;
  for (const std::string& n : input_names)
    net_driver.emplace(n, netlist.add_input(n));

  // Latch outputs drive their Q nets as pseudo primary inputs.
  std::vector<GateId> latch_q(latch_recs.size(), kNullGate);
  for (std::size_t i = 0; i < latch_recs.size(); ++i) {
    const LatchRec& lr = latch_recs[i];
    if (net_driver.count(lr.out_net) != 0)
      blif_fail(lr.line, "net is driven more than once", lr.out_net);
    latch_q[i] = netlist.add_input(lr.out_net);
    net_driver.emplace(lr.out_net, latch_q[i]);
  }

  std::unordered_map<std::string, std::size_t> gate_of_net;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (net_driver.count(gates[i].out_net) != 0 ||
        !gate_of_net.emplace(gates[i].out_net, i).second)
      blif_fail(gates[i].line, "net is driven more than once",
                gates[i].out_net);
  }
  std::unordered_map<std::string, std::string> alias_of;
  for (const Alias& a : aliases) {
    if (gate_of_net.count(a.out) != 0 || net_driver.count(a.out) != 0 ||
        !alias_of.emplace(a.out, a.in).second)
      blif_fail(a.line, "net is driven more than once", a.out);
  }

  // Recursive instantiation in dependency order. `ref_line` is the source
  // line that referenced `net`, so an undriven net is reported where it is
  // used, not as a generic end-of-parse failure.
  std::vector<std::uint8_t> state(gates.size(), 0);
  auto instantiate = [&](auto&& self, const std::string& net,
                         int ref_line) -> GateId {
    if (const auto it = net_driver.find(net); it != net_driver.end())
      return it->second;
    if (const auto al = alias_of.find(net); al != alias_of.end()) {
      const GateId g = self(self, al->second, ref_line);
      net_driver.emplace(net, g);
      return g;
    }
    const auto it = gate_of_net.find(net);
    if (it == gate_of_net.end())
      blif_fail(ref_line, "net has no driver (not an input, .gate output, "
                          "or alias)",
                net);
    const std::size_t gi = it->second;
    if (state[gi] == 1)
      blif_fail(gates[gi].line, "combinational cycle through net", net);
    state[gi] = 1;
    std::vector<GateId> fanins;
    for (const std::string& fn : gates[gi].fanin_nets) {
      if (fn.empty())
        blif_fail(gates[gi].line, "gate leaves an input pin unbound", net);
      fanins.push_back(self(self, fn, gates[gi].line));
    }
    state[gi] = 2;
    const GateId g = netlist.add_gate(gates[gi].cell, fanins, net);
    net_driver.emplace(net, g);
    return g;
  };

  for (const std::string& out : output_names) {
    const GateId driver = instantiate(instantiate, out, outputs_line);
    // Gate labels are unique; when the output net *is* the driver's label
    // (direct `.gate ... O=out`), the PO gate needs its own name. Via a
    // buffer alias the names already differ, keeping write/read
    // round-trips stable.
    const std::string po_name =
        netlist.gate_name(driver) == out ? out + "_po" : out;
    netlist.add_output(po_name, driver);
  }
  // Latch inputs sample their D nets through pseudo primary outputs. All D
  // cones are instantiated first so the synthetic pseudo-PO names can be
  // checked against every net the netlist will actually contain.
  std::vector<GateId> latch_d(latch_recs.size(), kNullGate);
  for (std::size_t i = 0; i < latch_recs.size(); ++i)
    latch_d[i] =
        instantiate(instantiate, latch_recs[i].in_net, latch_recs[i].line);
  for (std::size_t i = 0; i < latch_recs.size(); ++i) {
    std::string li_name = latch_recs[i].out_net + "_li";
    while (netlist.names().contains(li_name)) li_name += "_";
    const GateId po = netlist.add_output(li_name, latch_d[i]);
    netlist.add_latch(po, latch_q[i], latch_recs[i].init);
  }
  return netlist;
}

Netlist reference_read_blif(std::string_view text,
                            const CellLibrary& library) {
  try {
    return reference_read_blif_impl(text, library);
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

// ---- comparison -----------------------------------------------------------

const CellLibrary& lib() {
  static const CellLibrary library = CellLibrary::standard();
  return library;
}

/// The two netlists are the same GateId by GateId, down to the arena and
/// name-pool traffic that the report's layout diagnostics expose.
void expect_same_netlist(const Netlist& want, const Netlist& got,
                         const std::string& label) {
  ASSERT_EQ(want.name(), got.name()) << label;
  ASSERT_EQ(want.num_slots(), got.num_slots()) << label;
  for (GateId g = 0; g < want.num_slots(); ++g) {
    ASSERT_EQ(want.kind(g), got.kind(g)) << label << " gate " << g;
    ASSERT_EQ(want.alive(g), got.alive(g)) << label << " gate " << g;
    ASSERT_EQ(want.cell_id(g), got.cell_id(g)) << label << " gate " << g;
    ASSERT_EQ(want.gate_name(g), got.gate_name(g)) << label << " gate " << g;
    ASSERT_EQ(want.po_load(g), got.po_load(g)) << label << " gate " << g;
    const auto a = want.fanins(g), b = got.fanins(g);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << label << " gate " << g;
  }
  EXPECT_EQ(want.inputs(), got.inputs()) << label;
  EXPECT_EQ(want.outputs(), got.outputs()) << label;
  ASSERT_EQ(want.num_latches(), got.num_latches()) << label;
  for (std::size_t i = 0; i < want.latches().size(); ++i) {
    const Latch& x = want.latches()[i];
    const Latch& y = got.latches()[i];
    EXPECT_EQ(x.input, y.input) << label << " latch " << i;
    EXPECT_EQ(x.output, y.output) << label << " latch " << i;
    EXPECT_EQ(x.init, y.init) << label << " latch " << i;
  }
  EXPECT_EQ(want.names().size(), got.names().size()) << label;
  EXPECT_EQ(want.name_pool_bytes(), got.name_pool_bytes()) << label;
  EXPECT_EQ(want.pin_slabs_allocated(), got.pin_slabs_allocated()) << label;
  EXPECT_EQ(want.pin_slabs_recycled(), got.pin_slabs_recycled()) << label;
  EXPECT_EQ(want.deltas_published(), got.deltas_published()) << label;
  EXPECT_EQ(write_blif(want), write_blif(got)) << label;
}

/// Whether the reference can read `text` at all: it recurses through alias
/// chains without a cycle check, so an alias cycle overflows its stack. The
/// one-scan reader reports those with a message of their own.
bool reference_can_read(const std::string& got_error) {
  return got_error.find("buffer aliases form a cycle") == std::string::npos;
}

/// Reads `text` with both readers and checks they agree. Returns false when
/// the reference could not be asked (see reference_can_read).
bool check_parity(const std::string& text, const std::string& label) {
  std::optional<Netlist> got, want;
  std::string got_error, want_error;
  try {
    got.emplace(read_blif(text, lib()));
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kInput) << label;
    got_error = e.what();
  }
  if (!reference_can_read(got_error)) return false;
  try {
    want.emplace(reference_read_blif(text, lib()));
  } catch (const Error& e) {
    want_error = e.what();
  }
  EXPECT_EQ(want_error, got_error) << label;
  if (want && got) expect_same_netlist(*want, *got, label);
  EXPECT_EQ(want.has_value(), got.has_value()) << label;
  return true;
}

/// perfbench's input permutation: statements are a line starting with '.'
/// plus the lines after it that do not; the `.gate` statements trade places.
std::string shuffle_gates(const std::string& text, std::uint64_t seed) {
  std::vector<std::vector<std::string_view>> stmts;
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{}
                                        : rest.substr(nl + 1);
    if (stmts.empty() || (!line.empty() && line[0] == '.'))
      stmts.emplace_back();
    stmts.back().push_back(line);
  }
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < stmts.size(); ++i)
    if (starts_with(stmts[i][0], ".gate ")) slots.push_back(i);
  std::vector<std::vector<std::string_view>> gates;
  for (const std::size_t i : slots) gates.push_back(stmts[i]);
  Rng rng(seed);
  for (std::size_t i = gates.size(); i > 1; --i)
    std::swap(gates[i - 1], gates[rng.below(i)]);
  for (std::size_t k = 0; k < slots.size(); ++k) stmts[slots[k]] = gates[k];
  std::string out;
  for (const auto& s : stmts)
    for (const std::string_view line : s) out.append(line).push_back('\n');
  return out;
}

std::string mapped_text(const std::string& name) {
  return write_blif(map_aig(make_benchmark(name), lib()));
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// A sequential circuit with every .latch form: no init, an init, and a
// type/control pair with and without an init. `q0_li` already names a net,
// so the pseudo-PO of q0 becomes `q0_li_`.
const char* kLatchForms =
    ".model seq_forms\n"
    ".inputs a b clk\n"
    ".outputs f g\n"
    ".gate nand2 a=a b=q0 O=n1\n"
    ".gate nand2 a=n1 b=b O=d0\n"
    ".gate xor2 a=q0 b=q1 O=d1\n"
    ".gate nand2 a=q1 b=n1 O=f\n"
    ".gate inv1 a=q2 O=q0_li\n"
    ".names q0_li g\n1 1\n"
    ".latch d0 q0 0\n"
    ".latch d1 q1\n"
    ".latch n1 q2 re clk 1\n"
    ".latch d0 q3 fe clk\n"
    ".end\n";

// Aliases (a chain, an alias of an input, an output through an alias),
// constants, a repeated input, two .inputs lines and gates listed before
// their fanins.
const char* kAliasesAndConstants =
    ".model odd\n"
    ".inputs a b\n"
    ".inputs c a\n"
    ".outputs f g h k\n"
    ".gate or2 a=n1 b=z1 O=f\n"
    ".gate and2 a=a b=b O=n1\n"
    ".names z1\n1\n"
    ".names z0\n"
    ".names n1 t1\n1 1\n"
    ".names t1 t2\n1 1\n"
    ".names t2 g\n1 1\n"
    ".names c h\n1 1\n"
    ".gate xor2 a=z0 b=t2 O=k\n"
    ".gate inv1 a=a O=unused\n"
    ".end\n";

std::vector<std::pair<std::string, std::string>> small_inputs() {
  std::vector<std::pair<std::string, std::string>> inputs = {
      {"comp", mapped_text("comp")},
      {"latch_forms", kLatchForms},
      {"aliases", kAliasesAndConstants},
      {"seq_small", slurp(std::string(POWDER_GOLDEN_DIR) + "/seq_small.blif")},
  };
  return inputs;
}

// ---- netlists ------------------------------------------------------------

TEST(BlifParity, QuickSuiteSplaAndAlu4) {
  std::vector<std::string> names = quick_suite();
  names.push_back("spla");
  names.push_back("alu4");
  for (const std::string& name : names) {
    const std::string text = mapped_text(name);
    check_parity(text, name);
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
      check_parity(shuffle_gates(text, seed),
                   name + " shuffle " + std::to_string(seed));
  }
}

TEST(BlifParity, ScaleCircuitsUnderShuffles) {
  for (const int gates : {500, 4000, 10000}) {
    const std::string text = write_blif(make_scale_netlist(gates));
    const std::string name = "scale" + std::to_string(gates);
    check_parity(text, name);
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
      check_parity(shuffle_gates(text, seed),
                   name + " shuffle " + std::to_string(seed));
  }
}

TEST(BlifParity, SequentialCircuits) {
  check_parity(kLatchForms, "latch_forms");
  check_parity(slurp(std::string(POWDER_GOLDEN_DIR) + "/seq_small.blif"),
               "seq_small");
  for (const std::string& name : quick_suite()) {
    // The mapped circuit with its first output fed back into its first
    // input through a latch, as sequential_test builds it.
    Netlist nl = map_aig(make_benchmark(name), lib());
    nl.add_latch(nl.outputs().front(), nl.inputs().front(), /*init=*/0);
    const std::string text = write_blif(nl);
    check_parity(text, name + " latched");
    check_parity(shuffle_gates(text, 7), name + " latched shuffle");
  }
}

/// `text` rewritten line by line by `fn`, which appends to `out`.
template <typename Fn>
std::string rewrite_lines(const std::string& text, Fn fn) {
  std::string out;
  std::size_t pos = 0;
  int index = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t end = nl == std::string::npos ? text.size() : nl;
    fn(std::string_view(text).substr(pos, end - pos), index++, out);
    pos = end + 1;
  }
  return out;
}

TEST(BlifParity, TextVariants) {
  for (const auto& [name, text] : small_inputs()) {
    std::vector<std::pair<std::string, std::string>> variants;
    variants.emplace_back("crlf", rewrite_lines(text, [](auto line, int,
                                                         std::string& out) {
      out.append(line).append("\r\n");
    }));
    // Tabs between the tokens of every '.' line; a cover line other than
    // exactly "1 1" would turn a buffer into unsupported logic.
    variants.emplace_back("tabs", rewrite_lines(text, [](auto line, int,
                                                         std::string& out) {
      std::string l(line);
      if (starts_with(l, ".")) std::replace(l.begin(), l.end(), ' ', '\t');
      out.append("\t").append(l).append(" \t\n");
    }));
    variants.emplace_back(
        "comments", rewrite_lines(text, [](auto line, int i, std::string& out) {
          if (i % 3 == 0) out.append("# a full-line comment\n\n");
          out.append(line).append(i % 2 ? "  # trailing, with a \\\n" : "\n");
        }));
    // Every binding on its own continued line; a `\` alone on a line; a
    // continuation whose next physical line is blank.
    variants.emplace_back(
        "continuations",
        rewrite_lines(text, [](auto line, int i, std::string& out) {
          const bool split_up = i % 2 == 0 && (starts_with(line, ".gate") ||
                                                starts_with(line, ".inputs"));
          for (const char c : line) {
            if (split_up && c == ' ')
              out.append(" \\\n  ");
            else
              out.push_back(c);
          }
          out.append("\n");
          if (i == 2) out.append("\\\n");
          if (i == 1) out.append(".inputs \\\n\n");
        }));
    variants.emplace_back("no_final_newline",
                          text.substr(0, text.size() - 1));
    variants.emplace_back("trailing_garbage",
                          text + "garbage after .end\n.gate nosuch\n");
    variants.emplace_back("exdc", rewrite_lines(text, [](auto line, int,
                                                         std::string& out) {
      out.append(line == ".end" ? ".exdc\n.gate junk" : line).append("\n");
    }));
    // Every output renamed through a two-alias chain.
    variants.emplace_back(
        "aliased_outputs",
        rewrite_lines(text, [](auto line, int, std::string& out) {
          if (!starts_with(line, ".outputs")) {
            if (line == ".end") {
              out.append(".names via_0 out_0\n1 1\n.names out_0 renamed_0\n"
                         "1 1\n");
            }
            out.append(line).append("\n");
            return;
          }
          out.append(line).append(" renamed_0\n");
          out.append(".names ");
          const auto tok = split(line);
          out.append(tok.size() > 1 ? tok[1] : "x").append(" via_0\n1 1\n");
        }));
    for (const auto& [what, variant] : variants)
      EXPECT_TRUE(check_parity(variant, name + " " + what));
  }
}

// ---- diagnostics ----------------------------------------------------------

TEST(BlifParity, CorpusDiagnostics) {
  int compared = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(POWDER_CORPUS_DIR)) {
    if (entry.path().extension() != ".blif") continue;
    if (check_parity(slurp(entry.path()), entry.path().filename().string()))
      ++compared;
  }
  EXPECT_GE(compared, 20);
}

TEST(BlifParity, TruncationsOfValidFiles) {
  for (const auto& [name, text] : small_inputs())
    for (std::size_t n = 0; n < text.size(); ++n)
      check_parity(text.substr(0, n), name + " cut at " + std::to_string(n));
}

/// One random edit: drop, duplicate or swap lines, or overwrite a byte with
/// a character the grammar cares about.
std::string mutate(const std::string& text, Rng& rng) {
  std::vector<std::string> lines;
  std::stringstream is(text);
  for (std::string l; std::getline(is, l);) lines.push_back(l);
  const std::size_t n = lines.size();
  switch (rng.below(5)) {
    case 0:
      lines.erase(lines.begin() + static_cast<long>(rng.below(n)));
      break;
    case 1: {
      const std::size_t i = rng.below(n);
      lines.insert(lines.begin() + static_cast<long>(i), lines[i]);
      break;
    }
    case 2:
      std::swap(lines[rng.below(n)], lines[rng.below(n)]);
      break;
    default: {
      static const char kChars[] = "=.#\\ \t\r\nabfOq01";
      std::string& l = lines[rng.below(n)];
      if (l.empty()) break;
      l[rng.below(l.size())] = kChars[rng.below(sizeof kChars - 1)];
    }
  }
  std::string out;
  for (const std::string& l : lines) out.append(l).push_back('\n');
  return out;
}

TEST(BlifParity, MutationsOfValidFiles) {
  int skipped = 0, compared = 0;
  for (const auto& [name, text] : small_inputs()) {
    Rng rng(std::hash<std::string>{}(name));
    for (int k = 0; k < 600; ++k) {
      std::string variant = mutate(text, rng);
      if (k % 2) variant = mutate(variant, rng);
      if (check_parity(variant, name + " mutation " + std::to_string(k)))
        ++compared;
      else
        ++skipped;
    }
  }
  EXPECT_GT(compared, 20 * skipped);
}

// ---- stimulus ---------------------------------------------------------------

/// Rng::biased_word as it was: 64 draws of `uniform() < p`.
std::uint64_t reference_biased_word(Rng& rng, double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~0ull;
  std::uint64_t w = 0;
  for (int i = 0; i < 64; ++i)
    if (rng.uniform() < p) w |= 1ull << i;
  return w;
}

TEST(BiasedWord, MatchesThePerBitDefinition) {
  std::vector<double> probs = {0.5,
                               1.0 / 3.0,
                               0x1.0p-60,
                               1.0 - 0x1.0p-53,
                               0x1.0p-53,
                               0x1.0p-54,
                               0.1,
                               0.999,
                               std::numeric_limits<double>::denorm_min(),
                               std::numeric_limits<double>::min()};
  const std::size_t base = probs.size();
  for (std::size_t i = 0; i < base; ++i) {
    probs.push_back(std::nextafter(probs[i], 0.0));
    probs.push_back(std::nextafter(probs[i], 1.0));
  }
  for (const double p : {0.0, -0.0, 1.0, -1.0, 2.0,
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(),
                         std::nextafter(0.0, 1.0), std::nextafter(1.0, 0.0)})
    probs.push_back(p);
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    for (const double p : probs) {
      Rng got(seed * 7919 + 1), want(seed * 7919 + 1);
      for (int word = 0; word < 4; ++word)
        ASSERT_EQ(got.biased_word(p), reference_biased_word(want, p))
            << "p = " << p << " seed " << seed << " word " << word;
      ASSERT_EQ(got.next64(), want.next64()) << "p = " << p << " seed " << seed;
    }
  }
}

// Probabilities whose threshold lands right on a draw: the first draw m of
// each stream meets q = m * 2^-53 and its two neighbours.
TEST(BiasedWord, ExactAtTheThreshold) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const double at = static_cast<double>(Rng(seed).next64() >> 11) * 0x1.0p-53;
    for (const double q :
         {at, std::nextafter(at, 1.0), std::nextafter(at, 0.0)}) {
      Rng got(seed), want(seed);
      EXPECT_EQ(got.biased_word(q), reference_biased_word(want, q))
          << "q = " << q << " seed " << seed;
      EXPECT_EQ(got.next64(), want.next64());
    }
  }
}

}  // namespace
}  // namespace powder
