// Malformed-input corpus: every file under tests/corpus/ must be rejected
// by read_blif with a *typed* input error — never a crash, never a silent
// partial netlist, and never a mis-categorized engine/resource error.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/blif.hpp"
#include "util/error.hpp"

namespace powder {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open corpus file " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(POWDER_CORPUS_DIR)) {
    if (entry.path().extension() == ".blif") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(Corpus, EveryMalformedFileRaisesTypedInputError) {
  const CellLibrary lib = CellLibrary::standard();
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 10u) << "corpus directory looks incomplete";
  for (const auto& path : files) {
    const std::string text = slurp(path);
    bool threw = false;
    try {
      (void)read_blif(text, lib);
    } catch (const Error& e) {
      threw = true;
      EXPECT_EQ(e.category(), ErrorCategory::kInput)
          << path << ": wrong category, what() = " << e.what();
      EXPECT_NE(std::string(e.what()).find("input error"), std::string::npos)
          << path;
    } catch (const std::exception& e) {
      ADD_FAILURE() << path << " threw an untyped exception: " << e.what();
      threw = true;
    }
    EXPECT_TRUE(threw) << path << " parsed without error";
  }
}

// The full diagnostic of every corpus file, pinned: the message, the line
// it names and the token it quotes. A reader rewrite must reproduce each one
// exactly, including which of several faults in a file is reported first.
const std::map<std::string, std::string>& golden_diagnostics() {
  static const std::map<std::string, std::string> golden = {
    {"alias_chain_double_driver.blif",
     "input error: BLIF parse error at line 9: net is driven more than "
     "once (near 'b')"},
    {"alias_cycle.blif",
     "input error: BLIF parse error at line 6: buffer aliases form a "
     "cycle through net (near 'y')"},
    {"bad_pin_binding.blif",
     "input error: BLIF parse error at line 3: pin binding is not of "
     "the form pin=net (near 'borked')"},
    {"bare_gate.blif",
     "input error: BLIF parse error at line 1: .gate needs a cell name "
     "and pin bindings (near '.gate')"},
    {"binary_junk.blif",
     "input error: BLIF parse error at line 1: unsupported BLIF "
     "construct (near '\x01\x02\x03')"},
    {"combinational_cycle.blif",
     "input error: BLIF parse error at line 4: combinational cycle "
     "through net (near 'x')"},
    {"continued_gate_error.blif",
     "input error: BLIF parse error at line 4: cell and2 has no pin "
     "named 'c' (near 'c=a')"},
    {"cycle_through_alias.blif",
     "input error: BLIF parse error at line 4: combinational cycle "
     "through net (near 'x')"},
    {"double_driver.blif",
     "input error: BLIF parse error at line 5: net is driven more than "
     "once (near 'f')"},
    {"duplicate_alias.blif",
     "input error: BLIF parse error at line 5: net is driven more than "
     "once (near 'f')"},
    {"empty_net_name.blif",
     "input error: BLIF parse error at line 4: pin binding has an empty "
     "pin or net name (near 'a=')"},
    {"latch_bad_arity.blif",
     "input error: BLIF parse error at line 4: .latch needs an input "
     "and an output net (near '.latch a')"},
    {"latch_bad_init.blif",
     "input error: BLIF parse error at line 4: .latch init value must "
     "be 0, 1, 2 or 3 (near '9')"},
    {"latch_bad_type.blif",
     "input error: BLIF parse error at line 4: .latch type must be fe, "
     "re, ah, al or as (near 'qq')"},
    {"latch_double_driver.blif",
     "input error: BLIF parse error at line 5: net is driven more than "
     "once (near 'q')"},
    {"missing_output_binding.blif",
     "input error: BLIF parse error at line 4: .gate has no output "
     "binding (O=...) (near '.gate and2 a=a b=b')"},
    {"names_logic.blif",
     "input error: BLIF parse error at line 4: .names logic is not "
     "supported in mapped BLIF (only constants and '1 1' buffers) (near "
     "'11 1')"},
    {"truncated_continuation.blif",
     "input error: BLIF parse error at line 4: .gate needs a cell name "
     "and pin bindings (near '.gate  ')"},
    {"unbound_pin_second_gate.blif",
     "input error: BLIF parse error at line 4: gate leaves an input pin "
     "unbound (near 'v')"},
    {"undriven_net.blif",
     "input error: BLIF parse error at line 4: net has no driver (not "
     "an input, .gate output, or alias) (near 'ghost')"},
    {"unknown_cell.blif",
     "input error: BLIF parse error at line 4: cell not in library "
     "(near 'nosuchcell')"},
    {"unsupported_construct.blif",
     "input error: BLIF parse error at line 4: unsupported BLIF "
     "construct (near '.subckt')"},
  };
  return golden;
}

TEST(Corpus, EveryDiagnosticMatchesItsGolden) {
  const CellLibrary lib = CellLibrary::standard();
  const auto& golden = golden_diagnostics();
  std::set<std::string> seen;
  for (const auto& path : corpus_files()) {
    const std::string file = path.filename().string();
    seen.insert(file);
    const auto it = golden.find(file);
    std::string what = "(parsed without error)";
    try {
      (void)read_blif(slurp(path), lib);
    } catch (const std::exception& e) {
      what = e.what();
    }
    if (it == golden.end()) {
      ADD_FAILURE() << file << " has no golden diagnostic; what() = " << what;
      continue;
    }
    EXPECT_EQ(what, it->second) << file;
  }
  for (const auto& [file, what] : golden)
    EXPECT_TRUE(seen.count(file) != 0) << "golden for missing file " << file;
}

// The typed error still satisfies every legacy catch site: Error IS-A
// CheckError, so pre-taxonomy callers keep working unchanged.
TEST(Corpus, TypedErrorsRemainCatchableAsCheckError) {
  const CellLibrary lib = CellLibrary::standard();
  EXPECT_THROW((void)read_blif(".gate\n", lib), CheckError);
  EXPECT_THROW((void)read_blif(".gate\n", lib), Error);
}

// Diagnostics still carry position context through the typed wrapper.
TEST(Corpus, DiagnosticsKeepLineContext) {
  const CellLibrary lib = CellLibrary::standard();
  try {
    (void)read_blif(
        ".model m\n.inputs a\n.outputs f\n.gate nosuchcell a=a O=f\n.end\n",
        lib);
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("nosuchcell"), std::string::npos) << msg;
  }
}

// A net driven both by a .gate and by an alias (or twice by gates) is a
// hardening addition of the typed-error pass: previously the second driver
// was silently ignored.
TEST(Corpus, DoubleDriversAreRejected) {
  const CellLibrary lib = CellLibrary::standard();
  const char* twice_by_gates =
      ".model m\n.inputs a b\n.outputs f\n"
      ".gate and2 a=a b=b O=f\n.gate or2 a=a b=b O=f\n.end\n";
  const char* gate_plus_alias =
      ".model m\n.inputs a b\n.outputs f\n"
      ".gate and2 a=a b=b O=f\n.names a f\n1 1\n.end\n";
  for (const char* text : {twice_by_gates, gate_plus_alias}) {
    try {
      (void)read_blif(text, lib);
      FAIL() << "double driver accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kInput);
      EXPECT_NE(std::string(e.what()).find("driven more than once"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace powder
